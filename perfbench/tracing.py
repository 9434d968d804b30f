"""Spans and exact counts recorded from outside the dualstream package.

Nothing in ``src/`` is instrumented.  Instead, ``Hooks`` replaces public
functions and methods of the package with thin wrappers for the duration of
a pass, and puts the originals back afterwards.  A module-level function is
replaced under every name the package bound it to (``train.py`` imports
``backward`` from ``tensor.py``, ``cli.py`` imports ``train_model`` from
``train.py``, and so on), so a call is caught whichever module makes it.

Three sets of hooks exist:

* boundary hooks (always installed): ``train_model``, ``train_gate`` and
  ``apply_checkpoint``, called once per command, record a span each.
* tick hooks (always installed): the end of every optimizer step and the
  start of every model forward are time-stamped, which gives the
  closed-loop time of each training step, scored scene and loss
  evaluation.  At most every ``CAL_EVERY_S`` a tick also runs one
  calibration slice (see ``calibration_slice``), so that host speed is
  sampled all through every phase.
* layer hooks (traced passes only): one span per call of each layer's
  public entry point, plus graph walks from every loss passed to
  ``backward`` (model and gate) and from the model's outputs, which count
  tape nodes by following ``Tensor.parents``.

Every span has a name, start, end, parent, phase, sub-phase and pass; the
workload and run id are added to each line when the spans are written out.
Graph walks are themselves spans (``trace.walk``); their time is removed
from every enclosing span, so counting does not inflate layer timings.
Spans and ticks read ``Tracer.clock``, which leaves out the time spent in
calibration slices, so no figure counts them either.
"""

import json
import sys
import time
from dataclasses import fields, is_dataclass

import numpy as np

WALK = "trace.walk"
# at most one calibration slice per this many seconds (about 2% of the time)
CAL_EVERY_S = 0.025
# graph walks per (kind, sub-phase): node counts repeat exactly, so a few
# walks suffice and the rest of the run carries no walking cost
WALKS_PER_KIND = 8

BOUNDARY = [
    ("train", "train_model"),
    ("train", "train_gate"),
    ("train", "apply_checkpoint"),
]

LAYERS = [
    ("tensor", "backward"),
    ("tensor", "zero_grads"),
    ("attention", "cal_forward"),
    ("attention", "sal_forward"),
    ("encoders", "VisualEncoder.forward"),
    ("encoders", "AudioEncoder.frame_embedding"),
    ("encoders", "fuse"),
    ("model", "ActiveSpeakerModel.forward"),
    ("model", "dual_forward"),
    ("losses", "total_loss"),
    ("gate", "ConfidenceNet.logits"),
    ("gate", "gate_batch"),
    ("train", "MomentumSGD.step"),
    ("train", "save_checkpoint"),
    ("train", "load_checkpoint"),
    ("cli", "collect_predictions"),
    ("evaluation", "average_precision"),
    ("evaluation", "f1_per_speaker"),
    ("evaluation", "false_positive_count"),
    ("evaluation", "write_predictions"),
    ("data", "generate"),
    ("data", "write_corpus"),
    ("data", "read_corpus"),
]

TICKS = [
    ("train", "MomentumSGD.step", "end"),
    ("model", "ActiveSpeakerModel.forward", "start"),
]

SUB_PHASE = {"train.train_model": "model", "train.train_gate": "gate"}


FIELDS = ("name", "t0", "t1", "parent", "phase", "sub", "pass_no", "walk",
          "forward", "kind", "nodes", "params")
FORWARD = "model.ActiveSpeakerModel.forward"


class Span:
    """A finished span, rebuilt from the tuple the tracer stores.

    ``parent`` and ``forward`` are indices into the span list (-1: none);
    ``forward`` is the enclosing model forward.  ``walk`` is the graph-walk
    time inside the span; ``kind``, ``nodes`` and ``params`` are set on graph
    walks only.  ``pass_no`` is negative for set-up repetitions.
    """

    __slots__ = FIELDS

    def __init__(self, values):
        for name, value in zip(FIELDS, values):
            setattr(self, name, value)

    @property
    def duration(self):
        return self.t1 - self.t0 - self.walk


class Tracer:
    """In-memory span recorder; one per run, written out when the run ends.

    A finished span is stored as a flat tuple of numbers and strings, which
    the garbage collector stops tracking, so a run's tens of thousands of
    spans do not slow the collections the measured program triggers.
    """

    def __init__(self):
        self.spans = []   # finished spans as tuples in FIELDS order
        self.stack = []   # open spans: [index, *FIELDS without t1]
        self.phase = "setup"
        self.sub = ""
        self.pass_no = -1
        self.walks = {}
        self.ticks = []   # (name, pass_no, phase, sub, time)
        self.cal = []     # (time, duration) of each calibration slice
        self.cal_total = 0.0
        self.cal_last = 0.0

    def clock(self):
        """``perf_counter`` less the time spent in calibration slices."""
        return time.perf_counter() - self.cal_total

    def calibrate(self):
        """Run a calibration slice if none ran in the last ``CAL_EVERY_S``."""
        start = time.perf_counter()
        if start - self.cal_last < CAL_EVERY_S:
            return
        calibration_slice()
        self.cal_last = time.perf_counter()
        self.cal.append((start - self.cal_total, self.cal_last - start))
        self.cal_total += self.cal_last - start

    def cal_during(self, t0, t1):
        """Durations of the calibration slices run between clock times t0, t1."""
        return [d for t, d in self.cal if t0 <= t <= t1]

    def open(self, name):
        forward = next((rec[0] for rec in reversed(self.stack) if rec[1] == FORWARD), -1)
        rec = [len(self.spans), name, self.clock(),
               self.stack[-1][0] if self.stack else -1,
               self.phase, self.sub, self.pass_no, 0.0, forward, None, None, None]
        self.spans.append(None)
        self.stack.append(rec)
        return rec

    def close(self, rec):
        t1 = self.clock()
        self.stack.pop()
        if rec[1] == WALK:
            rec[7] = t1 - rec[2]
            for outer in self.stack:
                outer[7] += rec[7]
        self.spans[rec[0]] = (rec[1], rec[2], t1, *rec[3:])

    def span(self, name):
        return _SpanContext(self, name)

    def finished(self, pass_no=None):
        """Finished spans as ``Span`` objects, indexed like the span list."""
        return [Span(t) if t is not None and (pass_no is None or t[6] == pass_no)
                else None for t in self.spans]

    def count_nodes(self, kind, roots):
        """Walk the tape from ``roots``; record distinct nodes and Parameters."""
        key = (kind, self.phase, self.sub)
        if self.walks.get(key, 0) >= WALKS_PER_KIND:
            return
        self.walks[key] = self.walks.get(key, 0) + 1
        rec = self.open(WALK)
        rec[9] = kind
        rec[10], rec[11] = walk_graph(roots)
        self.close(rec)

    def dump(self, path, workload, run_id):
        """Write one JSON line per span: name, start, end, parent, phase, pass."""
        spans = self.finished()
        base = spans[0].t0 if spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(spans):
                rec = {"id": i, "name": s.name, "start": s.t0 - base,
                       "end": s.t1 - base, "parent": s.parent,
                       "phase": s.phase, "sub": s.sub, "pass": s.pass_no,
                       "workload": workload, "run": run_id}
                if s.name == WALK:
                    rec.update(kind=s.kind, nodes=s.nodes, params=s.params)
                fh.write(json.dumps(rec) + "\n")


class _SpanContext:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.rec = self.tracer.open(self.name)
        return self.rec

    def __exit__(self, *exc):
        self.tracer.close(self.rec)
        return False


_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = _CAL_RNG.standard_normal((8, 16))
_CAL_W = _CAL_RNG.standard_normal((16, 16)) * 0.1
_CAL_SEQ = _CAL_RNG.standard_normal((4, 48, 16))
_CAL_V = _CAL_RNG.standard_normal((16, 16)) * 0.1


class _CalNode:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents


def calibration_slice():
    """A fixed piece of work that uses nothing from the package, about half
    a millisecond: small-array numpy dispatch, a softmax over [4, 48, 16]
    blocks, and building and walking a chain of small Python objects.  The
    pipeline mixes the same kinds of work, so the slice's time tracks the
    host's speed as the pipeline feels it; on a shared machine that speed
    swings by half from one spell to the next.  Over a 90-second probe on a
    2-core Xeon, pipeline forwards slowed by the slice's factor to the power
    0.8-1.2 (tiny, default and [4, 48] scenes)."""
    x = _CAL_SMALL
    for _ in range(20):
        x = np.tanh(x @ _CAL_W) * 0.5 + x
    y = _CAL_SEQ
    for _ in range(6):
        z = y @ _CAL_V
        z = np.exp(z - z.max(axis=-1, keepdims=True))
        y = y + 0.1 * (z / z.sum(axis=-1, keepdims=True))
    node = None
    for i in range(600):
        node = _CalNode(i, (node,) if node is not None else ())
    seen = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(n.parents)
    return x, y, len(seen)


def walk_graph(roots):
    """Distinct tape nodes reachable from ``roots`` and how many are Parameters."""
    from dualstream.tensor import Parameter

    seen = set()
    stack = list(roots)
    params = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Parameter):
            params += 1
        stack.extend(node.parents)
    return len(seen), params


def output_tensors(obj):
    """Tensors held by a forward's output object (one level of nesting)."""
    from dualstream.tensor import Tensor

    out = []
    if isinstance(obj, Tensor):
        return [obj]
    if is_dataclass(obj):
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, Tensor):
                out.append(value)
            elif is_dataclass(value):
                out.extend(output_tensors(value))
    return out


class Hooks:
    """Install and remove wrappers around the package's public callables."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []  # (owner, attribute, original)

    def _targets(self, module_name, qualname):
        """(owner, attribute, original) triples that bind the callable."""
        module = sys.modules[f"dualstream.{module_name}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            return [(cls, attr, cls.__dict__[attr])]
        original = getattr(module, qualname)
        owners = [mod for name, mod in sorted(sys.modules.items())
                  if name == "dualstream" or name.startswith("dualstream.")]
        return [(mod, attr, original) for mod in owners
                for attr, value in vars(mod).items() if value is original]

    def install(self, specs, ticks=False):
        for spec in specs:
            module_name, qualname = spec[:2]
            name = f"{module_name}.{qualname}"
            targets = self._targets(module_name, qualname)
            if not targets:
                raise RuntimeError(f"cannot hook {name}: not found")
            original = targets[0][2]
            wrapper = (self._tick(original, name, spec[2]) if ticks
                       else self._wrap(original, name))
            for owner, attr, original in targets:
                self.saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []

    def _tick(self, fn, name, when):
        tracer = self.tracer

        def tick():
            tracer.calibrate()
            tracer.ticks.append((name, tracer.pass_no, tracer.phase,
                                 tracer.sub, tracer.clock()))

        if when == "start":
            def wrapper(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                tick()
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, fn, name):
        tracer = self.tracer
        sub = SUB_PHASE.get(name)

        if name == "tensor.backward":
            def wrapper(*args, **kwargs):
                tracer.count_nodes("loss", args[:1])
                with tracer.span(name):
                    return fn(*args, **kwargs)
        elif name == "model.ActiveSpeakerModel.forward":
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    out = fn(*args, **kwargs)
                tracer.count_nodes("forward", output_tensors(out))
                return out
        elif sub is not None:
            def wrapper(*args, **kwargs):
                saved, tracer.sub = tracer.sub, sub
                try:
                    with tracer.span(name):
                        return fn(*args, **kwargs)
                finally:
                    tracer.sub = saved
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper
