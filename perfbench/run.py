#!/usr/bin/env python3
"""Benchmark for the dualstream pipeline: one workload per invocation.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The benchmark generates its corpora from
``--seed`` with the package's own generator and hands the program only the
corpus files, then drives the ``dualstream train``, ``dualstream eval`` and
``dualstream gradcheck`` commands in-process through ``cli.main``.
Every workload is a closed loop with one caller: a pass is train -> eval,
plus the gradcheck audit in the passes the workload names, and passes repeat
until ``--seconds`` is spent (at least two, so that the byte-for-byte
determinism of the checkpoint and the predictions CSV can be compared within
the run).

With ``--trace 0`` the last line of stdout is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric,
computed from spans recorded around the package's public functions (see
``tracing.py``).  Traced runs alternate traced and untraced passes and
report the difference as ``trace.overhead_pct``.  Human-readable lines
(environment, each end-to-end figure with the call times behind it, each
per-layer figure with its tail and sample count, artifact hashes, failed
checks) precede the JSON line; a full record of
the run goes to ``.bench_build/perfbench/results/``.

Exit status: 0 when every output check passed, 1 when a check failed (the
JSON line is still printed, with ``correct`` false), 2 when the benchmark
cannot run at all (for example, no ``src/dualstream`` next to it, or a
package API it calls has changed); no JSON line is printed then.
"""

import os

# one BLAS / OpenMP thread for the workload process; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
OUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import (BOUNDARY, FORWARD, LAYERS, TICKS, WALK, Hooks, Tracer,  # noqa: E402
                     calibration_slice)

SETUP_REPEATS = 7
MIN_PASSES = 2
# On a shared 2-core host the speed of the whole machine swings by half
# between spells that last tens of seconds, so raw call times moved by up to
# half between runs.  Each end-to-end timing is therefore scaled to a fixed
# host speed: a call's time is multiplied by CAL_REF_S over the mean time of
# the calibration slices (tracing.calibration_slice) run during that call.
# A slice that a collector pause or a preemption lands in counts as twice
# the median slice at most; a slow spell makes slices slower by less.
# CAL_REF_S is about a slice's time there in faster spells, when slices run
# between pipeline steps, so the figures are of the order of that host's
# seconds.  Raw times are printed beside them.
CAL_REF_S = 0.6e-3
SETUP_CAL_SLICES = 10   # calibration slices before and after each set-up
HELD_OUT_SEED_OFFSET = 1000
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dualstream.cli; "
                "print(time.perf_counter() - t)")

# the sizes of the model `dualstream gradcheck` audits (cli.TINY and the
# literals cmd_gradcheck passes to GenConfig, ModelConfig and ConfidenceNet),
# as config keys for the gradcheck-tiny workload's own train and eval phases
TINY_CONFIG = {
    "data.speakers": 2, "data.frames": 3, "data.height": 4, "data.width": 4,
    "data.mel_bins": 8, "data.noise_std": 0.2, "model.channels": 8,
    "model.heads": 2, "model.rounds": 2, "model.s_max": 2,
    "model.vis_hidden": 8, "model.audio_hidden": 8,
    "gate.conv_hidden": 4, "gate.rnn_hidden": 4,
}


@dataclass(frozen=True)
class Workload:
    """One input regime.  Every pass trains and scores; the first pass, or
    every pass with ``audit_every_pass``, also runs the gradcheck audit,
    whose size the CLI fixes.  The sizes decide which
    phase dominates the run, and ``focus`` names the phase whose model
    forwards the forward-path layer metrics describe."""

    name: str
    focus: str                  # "model" (training), "eval" or "audit"
    train_shape: tuple          # (speakers, frames) of the training corpus
    train_scenes: int
    epochs: int
    gate_epochs: int
    held_shape: tuple
    held_scenes: int
    audit_every_pass: bool = False
    train_seed: int = None      # None: derived from --seed; else fixed
    config: dict = field(default_factory=dict)

    def audits_in(self, index):
        return self.audit_every_pass or index == 0


WORKLOADS = {
    w.name: w for w in [
        # `dualstream train` (model, then gate) on default-shape scenes, then
        # scoring a held-out corpus: dispatch-bound, about half backward
        Workload("train-default", "model", (3, 12), 48, 4, 8, (3, 12), 128),
        # `dualstream eval --gate on` on long scenes with a checkpoint trained
        # from a fixed corpus seed, so the checkpoint is the same in every run
        Workload("eval-long", "eval", (4, 48), 32, 2, 4, (4, 48), 64,
                 train_seed=7),
        # the `dualstream gradcheck` audit (every parameter, 8 coordinates:
        # 2,905 loss evaluations) in every pass.  Its train and eval phases
        # use the audited model's sizes; the tiny model barely learns, so its
        # held-out AP would swing with its training corpus, and a fixed
        # training corpus and a large held-out corpus keep that figure steady
        Workload("gradcheck-tiny", "audit", (2, 3), 32, 4, 12, (2, 3), 256,
                 audit_every_pass=True, train_seed=7, config=TINY_CONFIG),
    ]
}


# ---------------------------------------------------------------------------
# small helpers


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tail_stats(values):
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are fewer than 20 samples), and the sample count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n,
           "tail_pct": None, "tail": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            k = min(n - 1, math.ceil(pct / 100.0 * n) - 1)
            out["tail_pct"], out["tail"] = pct, values[k]
            break
    return out


def ap_range(records):
    """Lowest and highest average precision over the orderings of records
    whose scores are equal as written.

    The CSV holds scores at 9 decimals while the reported AP is computed
    from the unrounded scores, so two scores less than 1e-9 apart are tied
    in the CSV and the CSV alone cannot say which ranked first.  With no
    such ties both bounds equal ``average_precision`` of the records, summed
    in the same order.
    """
    ranked = sorted(records, key=lambda r: -r.score)
    positives = sum(r.label for r in ranked)
    lo = hi = 0.0
    rank = hit = 0
    start = 0
    while start < len(ranked):
        end = start
        while end < len(ranked) and ranked[end].score == ranked[start].score:
            end += 1
        p = sum(r.label for r in ranked[start:end])
        n = end - start - p
        for k in range(1, p + 1):
            hi += (hit + k) / (rank + k)          # positives first
            lo += (hit + k) / (rank + n + k)      # negatives first
        rank, hit, start = rank + end - start, hit + p, end
    return lo / positives, hi / positives


def slice_mean(times):
    """Mean slice time, each slice counted as twice the median at most."""
    cap = 2.0 * statistics.median(times)
    return statistics.mean(min(t, cap) for t in times)


def slice_time(n):
    """``slice_mean`` of ``n`` calibration slices run back to back."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        calibration_slice()
        times.append(time.perf_counter() - t0)
    return slice_mean(times)


def read_metrics_report(path):
    report = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            report[key] = value
    return report


def read_env():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS")},
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": tree_hash(SRC),
    }


def git_commit():
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def tree_hash(top):
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def time_import():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, wl, seed, seconds, trace):
        from dualstream.config import RunConfig

        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.run_id = f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.work = OUT / "work" / self.run_id
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfg = RunConfig(dict(wl.config))
        self.cli_args = [a for k, v in wl.config.items()
                         for a in ("--set", f"{k}={v}")]
        self.tracer = Tracer()
        self.boundary = Hooks(self.tracer)
        self.layers = Hooks(self.tracer)
        self.ops = []           # (operation, [failed check messages])
        self.passes = []        # per-pass records
        self.traced_passes = set()

    # -- bookkeeping ---------------------------------------------------------

    def op(self, name, failures):
        self.ops.append((name, failures))
        for msg in failures:
            print(f"# CHECK FAILED [{name}]: {msg}")

    def cli(self, argv):
        """Run one `dualstream` command in-process: (exit code, its stdout)."""
        from dualstream import cli

        out = io.StringIO()
        with open(self.work / "cli.log", "a") as log, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(log):
            rc = cli.main(self.cli_args + argv)
        with open(self.work / "cli.log", "a") as log:
            log.write(out.getvalue())
        return rc, out.getvalue()

    def first(self, key):
        """``key`` of the first pass that recorded it."""
        return next((p[key] for p in self.passes if key in p), None)

    def timed(self, record, key, t0, t1):
        """Record a call's time (tracer clock) and its calibration slices."""
        cal = self.tracer.cal_during(t0, t1)
        if not cal:
            raise RuntimeError(f"no calibration slice ran during {key}")
        record[key] = t1 - t0
        record[key.replace("_s", "_cal_s")] = slice_mean(cal)

    def same_as_first(self, record, key, what, failures):
        first = self.first(key)
        if first is not None and first != record[key]:
            failures.append(f"{what} differ from the first pass")

    # -- set-up ----------------------------------------------------------------

    def corpora(self):
        from dualstream.data import generate

        gen = self.cfg.gen_config()
        wl = self.wl
        train_seed = self.seed if wl.train_seed is None else wl.train_seed
        train = generate(replace(gen, seed=train_seed,
                                 speakers=wl.train_shape[0],
                                 frames=wl.train_shape[1]), wl.train_scenes)
        held = generate(replace(gen, seed=HELD_OUT_SEED_OFFSET + self.seed,
                                speakers=wl.held_shape[0],
                                frames=wl.held_shape[1]), wl.held_scenes)
        return train, held

    def build(self):
        from dualstream import cli
        from dualstream.model import ActiveSpeakerModel

        model = ActiveSpeakerModel(self.cfg.model_config())
        return model.parameters() + cli._build_gate_net(self.cfg).parameters()

    def setup_once(self):
        """Corpus generation, writing and reading back, model and gate
        build, and loading a checkpoint into them."""
        from dualstream.data import read_corpus, write_corpus
        from dualstream.train import apply_checkpoint, load_checkpoint

        t0 = time.perf_counter()
        train, held = self.corpora()
        write_corpus(train, self.work / "train.bin")
        write_corpus(held, self.work / "held.bin")
        self.held = read_corpus(self.work / "held.bin")
        read_corpus(self.work / "train.bin")
        apply_checkpoint(self.build(), load_checkpoint(self.work / "init.ckpt"))
        return time.perf_counter() - t0

    def setup(self):
        from dualstream.train import save_checkpoint

        self.tracer.phase = "setup"
        # the checkpoint every set-up loads: the freshly built model and gate
        save_checkpoint({p.name: p.data for p in self.build()},
                        self.work / "init.ckpt")
        imports, builds, slices = [], [], []
        for rep in range(SETUP_REPEATS):
            self.tracer.pass_no = -1 - rep
            before = slice_time(SETUP_CAL_SLICES)
            imports.append(time_import())
            builds.append(self.setup_once())
            slices.append((before + slice_time(SETUP_CAL_SLICES)) / 2)
        self.import_s = imports
        self.setup_raw_s = [a + b for a, b in zip(imports, builds)]
        self.setup_s = [t * CAL_REF_S / c for t, c in zip(self.setup_raw_s, slices)]
        self.corpus_bytes = sum((self.work / f).stat().st_size
                                for f in ("train.bin", "held.bin"))
        self.valid_cells = int(sum(int(sc.mask.sum()) for sc in self.held))

    # -- one pass --------------------------------------------------------------

    def run_pass(self, index, traced):
        tracer = self.tracer
        tracer.pass_no = index
        if traced:
            self.traced_passes.add(index)
            self.layers.install(LAYERS)
        try:
            record = {"index": index, "traced": traced}
            tracer.phase = "train"
            ok = self.train_stage(record)
            if ok:
                tracer.phase = "eval"
                self.eval_stage(record)
            if self.wl.audits_in(index):
                tracer.phase = "audit"
                self.audit_stage(record)
        finally:
            tracer.phase = "idle"
            self.layers.remove()
        self.passes.append(record)
        return ok

    def train_stage(self, record):
        wl = self.wl
        ckpt = self.work / "model.ckpt"
        rc, _ = self.cli(["--set", f"gate.epochs={wl.gate_epochs}", "train",
                          "--corpus", str(self.work / "train.bin"),
                          "--out", str(ckpt), "--epochs", str(wl.epochs)])
        failures = []
        if rc != 0:
            failures.append(f"dualstream train exited {rc}")
        else:
            rows = (self.work / "model.ckpt.log").read_text().splitlines()[1:]
            if len(rows) != wl.epochs:
                failures.append(f"{len(rows)} loss rows for {wl.epochs} epochs")
            for row in rows:
                if not all(math.isfinite(float(x)) for x in row.split(",")[1:]):
                    failures.append(f"non-finite training loss row: {row}")
            record["ckpt_sha256"] = sha256(ckpt)
            self.same_as_first(record, "ckpt_sha256", "checkpoint bytes", failures)
            spans = self.boundary_spans(record["index"])
            for key, name in (("model_s", "train.train_model"),
                              ("gate_s", "train.train_gate")):
                span = spans[name][-1]
                self.timed(record, key, span.t0, span.t1)
        self.op("train", failures)
        return rc == 0

    def eval_stage(self, record, gate="on"):
        from dualstream.evaluation import read_predictions

        name = "eval" if gate == "on" else "eval-gate-off"
        csv = self.work / f"preds-{gate}.csv"
        report = self.work / f"metrics-{gate}.txt"
        rc, _ = self.cli(["eval", "--corpus", str(self.work / "held.bin"),
                          "--model", str(self.work / "model.ckpt"),
                          "--predictions", str(csv), "--metrics", str(report),
                          "--gate", gate])
        t_end = self.tracer.clock()
        failures = []
        if rc != 0:
            self.op(name, [f"dualstream eval exited {rc}"])
            return None
        metrics = read_metrics_report(report)
        records = read_predictions(csv)
        if len(records) != self.valid_cells:
            failures.append(f"{len(records)} CSV records for "
                            f"{self.valid_cells} mask-valid cells")
        # the report prints AP at 9 decimals, and rounding is monotone
        lo, hi = (float(f"{x:.9f}") for x in ap_range(records))
        if not lo <= float(metrics.get("ap", "nan")) <= hi:
            failures.append(f"reported ap {metrics.get('ap')} outside "
                            f"[{lo:.9f}, {hi:.9f}] recomputed from the CSV")
        if gate == "on":
            # from the end of the checkpoint load (the first forward follows
            # at once) to the command's return, after the CSV and the report
            loaded = self.boundary_spans(record["index"])["train.apply_checkpoint"][-1]
            self.timed(record, "eval_s", loaded.t1, t_end)
            record["ap"] = float(metrics["ap"])
            record["ap_nogate"] = metrics.get("ap_nogate")
            record["records"] = len(records)
            record["csv_sha256"] = sha256(csv)
            self.same_as_first(record, "csv_sha256", "predictions CSV bytes", failures)
        self.op(name, failures)
        return records, metrics

    def audit_stage(self, record):
        from dualstream import cli

        t0 = self.tracer.clock()
        rc, output = self.cli(["gradcheck"])
        self.timed(record, "audit_s", t0, self.tracer.clock())
        # each loss evaluation runs exactly one model forward
        record["loss_evals"] = len(self.ticks(FORWARD, record["index"], "audit"))
        failures = []
        if rc != 0:
            failures.append(f"dualstream gradcheck exited {rc}")
        found = re.search(r"^overall worst_rel_err=(\S+)", output, re.MULTILINE)
        if found is None:
            failures.append("dualstream gradcheck printed no overall error")
        else:
            record["worst_rel_err"] = float(found.group(1))
            if record["worst_rel_err"] > cli.GRADCHECK_LIMIT:
                failures.append(f"worst relative error {found.group(1)} exceeds "
                                f"{cli.GRADCHECK_LIMIT}")
        # the printed report: per-module errors and the overall verdict
        record["audit_sha256"] = hashlib.sha256(output.encode()).hexdigest()
        self.same_as_first(record, "audit_sha256", "gradcheck reports", failures)
        self.op("audit", failures)

    def gate_bound_check(self):
        """Score once more with the gate off and compare cell by cell: a
        positive raw score may only shrink, by a multiplier in [1-gamma, 1]."""
        from dualstream.evaluation import read_predictions

        self.tracer.phase = "check"
        result = self.eval_stage({"index": -1, "traced": False}, gate="off")
        if result is None:
            return
        raw_records, raw_metrics = result
        gp = self.cfg.gate_params()
        gated = {(r.scene_id, r.speaker_idx, r.frame_idx): r.score
                 for r in read_predictions(self.work / "preds-on.csv")}
        failures = []
        if raw_metrics.get("ap") != self.first("ap_nogate"):
            failures.append(f"gate-off ap {raw_metrics.get('ap')} != gate-on "
                            f"ap_nogate {self.first('ap_nogate')}")
        tol = 1e-9  # both scores are written at 9 decimals
        for r in raw_records:
            g = gated.get((r.scene_id, r.speaker_idx, r.frame_idx))
            if g is None:
                failures.append(f"cell {r.scene_id}/{r.speaker_idx}/{r.frame_idx} "
                                f"missing from the gated CSV")
            elif r.score > gp.t_main and not (
                    (1.0 - gp.gamma) * r.score - tol <= g <= r.score):
                failures.append(f"gated score {g} outside [(1-gamma)*raw, raw] "
                                f"for raw {r.score}")
            elif r.score <= gp.t_main and abs(g - r.score) > tol:
                failures.append(f"gate changed a non-positive score {r.score} -> {g}")
            if len(failures) > 5:
                break
        self.op("gate-bound", failures)

    # -- whole run -------------------------------------------------------------

    def ticks(self, name, index, phase):
        return [t for n, p, ph, _, t in self.tracer.ticks
                if n == name and p == index and ph == phase]

    def boundary_spans(self, index):
        by_name = {}
        for span in self.tracer.finished(index):
            if span is not None:
                by_name.setdefault(span.name, []).append(span)
        return by_name

    def execute(self):
        self.boundary.install(BOUNDARY)
        self.boundary.install(TICKS, ticks=True)
        if self.trace:
            self.layers.install(LAYERS)
        try:
            self.setup()
        finally:
            self.layers.remove()
        start = time.perf_counter()
        index = 0
        while True:
            traced = self.trace and index % 2 == 0
            t0 = time.perf_counter()
            ok = self.run_pass(index, traced)
            last = time.perf_counter() - t0
            index += 1
            if not ok:
                break
            # the next pass is expected to take as long as the last one,
            # or, if the last one ran an audit the next one skips, less
            spent = time.perf_counter() - start
            if index >= MIN_PASSES and spent + last > self.seconds:
                break
        if all(not f for _, f in self.ops):
            self.gate_bound_check()
        self.boundary.remove()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# metrics


def scaled(record, key):
    """A call's time scaled to the reference host speed (see CAL_REF_S)."""
    return record[key] * CAL_REF_S / record[key.replace("_s", "_cal_s")]


def end_to_end(run):
    """End-to-end figures over the untraced passes (set-up over its repeats).

    Each phase is timed as a whole call: ``train_model``, ``train_gate``,
    the eval command from the end of its checkpoint load (its first forward
    follows) to its return, and the gradcheck command.  So per-epoch,
    per-parameter and collection work and collector pauses all count.  Each
    time is scaled to the reference host speed, and the median call of the
    run is reported; the note beside it lists every call's scaled and raw
    time and the mean calibration slice during it.
    """
    wl = run.wl
    plain = [p for p in run.passes if not p["traced"]]

    def median_call(key):
        calls = [p for p in plain if key in p]
        times = [scaled(p, key) for p in calls]
        return statistics.median(times), "median scaled call of " + ", ".join(
            f"{t:.4g} (raw {p[key]:.4g} s, slice "
            f"{p[key.replace('_s', '_cal_s')] * 1e3:.3g} ms)" for t, p in zip(times, calls))

    model_s, model_note = median_call("model_s")
    gate_s, gate_note = median_call("gate_s")
    eval_s, eval_note = median_call("eval_s")
    audit_s, audit_note = median_call("audit_s")
    steps = wl.train_scenes * wl.epochs
    gate_steps = wl.train_scenes * wl.gate_epochs
    n = len(plain)
    return {
        "setup_s": (statistics.median(run.setup_s),
                    f"median of {len(run.setup_s)} scaled set-ups: " + ", ".join(
                        f"{x:.3f} (raw {r:.3f})"
                        for x, r in zip(run.setup_s, run.setup_raw_s))),
        "train_scenes_per_s": (steps / model_s,
                               f"{steps} steps in train_model; {model_note}"),
        "gate_train_scenes_per_s": (gate_steps / gate_s,
                                    f"{gate_steps} steps in train_gate; {gate_note}"),
        "eval_scenes_per_s": (wl.held_scenes / eval_s,
                              f"{wl.held_scenes} scenes; {eval_note}"),
        "gradcheck_s": (audit_s, f"dualstream gradcheck; {audit_note}"),
        "heldout_ap": (statistics.median(p["ap"] for p in plain),
                       f"identical in all {n} passes" if len({p["ap"] for p in plain}) == 1
                       else "DIFFERS between passes"),
        "peak_rss_mb": (run.peak_rss_mb, "ru_maxrss of the benchmark process"),
    }


def layer_metrics(run):
    """Per-layer figures from the traced passes and the traced set-up."""
    spans = run.tracer.finished()
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    walk_times = [(s.t0, s.t1) for s in spans if s.name == WALK]
    kept = [(i, s) for i, s in enumerate(spans)
            if s.pass_no in run.traced_passes or s.phase == "setup"]

    def context(s):
        # training is split into the model and the gate loops
        return (s.sub or "train") if s.phase == "train" else s.phase

    def select(name, where):
        return [(i, s) for i, s in kept if s.name == name
                and (where is None or context(s) == where)]

    def ms(name, where):
        return [s.duration * 1e3 for _, s in select(name, where)]

    def per_group_ms(name, where):
        """Sum of a call's durations within each pass or set-up repetition."""
        sums = {}
        for _, s in select(name, where):
            sums[s.pass_no] = sums.get(s.pass_no, 0.0) + s.duration * 1e3
        return list(sums.values())

    def walked(kind, where, attr):
        return [getattr(s, attr) for _, s in select(WALK, where) if s.kind == kind]

    def loop_ms(marks):
        """Gaps between successive time marks, less graph-walk time."""
        out = []
        for a, b in zip(marks, marks[1:]):
            lost = sum(max(0.0, min(b, w1) - max(a, w0)) for w0, w1 in walk_times)
            out.append((b - a - lost) * 1e3)
        return out

    def step_ms(where):
        """Closed-loop step times: gaps between successive optimizer-step
        ends inside one training call."""
        loop = "train.train_model" if where == "model" else "train.train_gate"
        steps = [s for _, s in select("train.MomentumSGD.step", where)]
        return [gap for _, call in select(loop, where)
                for gap in loop_ms([s.t1 for s in steps
                                    if call.t0 <= s.t0 and s.t1 <= call.t1])]

    # forward-path layers: one sample per model forward in the focus phase
    focus = run.wl.focus
    forwards = {i: {} for i, _ in select(FORWARD, focus)}
    for i, s in kept:
        if s.forward in forwards:
            forwards[s.forward].setdefault(s.name, []).append(i)

    def per_forward(name, fn):
        return [sum(fn(i) for i in inner.get(name, [])) for inner in forwards.values()]

    def self_ms(name):
        return per_forward(name, lambda i: (spans[i].duration - child[i]) * 1e3)

    def total_ms(name):
        return per_forward(name, lambda i: spans[i].duration * 1e3)

    def calls(name):
        return per_forward(name, lambda i: 1)

    plain = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    focus_key = {"model": "model_s", "eval": "eval_s", "audit": "audit_s"}[focus]
    overhead = 100.0 * (statistics.median(scaled(p, focus_key) for p in traced)
                        / statistics.median(scaled(p, focus_key) for p in plain) - 1.0)
    setup_scenes = run.wl.train_scenes + run.wl.held_scenes

    samples = {
        "tensor.nodes_per_step": walked("loss", "model", "nodes"),
        "tensor.params_per_step": walked("loss", "model", "params"),
        "tensor.nodes_per_forward": walked("forward", focus, "nodes"),
        "tensor.backward_ms": ms("tensor.backward", "model"),
        "tensor.zero_grads_ms": ms("tensor.zero_grads", "model"),
        "encoders.visual_ms": self_ms("encoders.VisualEncoder.forward"),
        "encoders.audio_ms": self_ms("encoders.AudioEncoder.frame_embedding"),
        "encoders.fuse_ms": self_ms("encoders.fuse"),
        "attention.cal_ms": total_ms("attention.cal_forward"),
        "attention.sal_ms": total_ms("attention.sal_forward"),
        "attention.cal_calls": calls("attention.cal_forward"),
        "attention.sal_calls": calls("attention.sal_forward"),
        "model.forward_ms": [spans[f].duration * 1e3 for f in forwards],
        "model.dual_ms": self_ms("model.dual_forward"),
        "losses.total_loss_ms": ms("losses.total_loss", "model"),
        "gate.logits_ms": ms("gate.ConfidenceNet.logits", "eval"),
        "gate.backward_ms": ms("tensor.backward", "gate"),
        "gate.batch_ms": ms("gate.gate_batch", "eval"),
        "gate.nodes_per_scene": walked("loss", "gate", "nodes"),
        "train.step_ms": step_ms("model"),
        "train.gate_step_ms": step_ms("gate"),
        "train.sgd_ms": ms("train.MomentumSGD.step", "model"),
        "train.save_checkpoint_ms": ms("train.save_checkpoint", "train"),
        "train.load_checkpoint_ms": ms("train.load_checkpoint", None),
        "cli.collect_ms": [(s.duration - child[i]) * 1e3 for i, s in
                           select("cli.collect_predictions", "eval")],
        "evaluation.records": [p["records"] for p in run.passes if "records" in p],
        "evaluation.ap_ms": per_group_ms("evaluation.average_precision", "eval"),
        "evaluation.f1_ms": per_group_ms("evaluation.f1_per_speaker", "eval"),
        "evaluation.fp_ms": per_group_ms("evaluation.false_positive_count", "eval"),
        "evaluation.write_predictions_ms": ms("evaluation.write_predictions", "eval"),
        "data.generate_ms_per_scene": [v / setup_scenes for v in
                                       per_group_ms("data.generate", "setup")],
        "data.write_corpus_ms": per_group_ms("data.write_corpus", "setup"),
        "data.read_corpus_ms": per_group_ms("data.read_corpus", "setup"),
        "data.corpus_bytes": [run.corpus_bytes],
        "gradcheck.loss_evals": [p["loss_evals"] for p in run.passes if "loss_evals" in p],
        "gradcheck.loss_eval_ms": [gap for i in sorted(run.traced_passes)
                                   for gap in loop_ms(run.ticks(FORWARD, i, "audit"))],
        "cli.import_s": run.import_s,
        "trace.overhead_pct": [overhead],
    }
    missing = sorted(k for k, v in samples.items() if not v)
    if missing:
        raise RuntimeError(f"no samples for layer metric(s): {', '.join(missing)}")
    return {k: (statistics.median(v), describe(tail_stats(v)))
            for k, v in samples.items()}


def describe(stats):
    tail = (f"p{stats['tail_pct']:g}={stats['tail']:.6g}"
            if stats["tail_pct"] is not None else "no tail (<20 samples)")
    return f"median of n={stats['n']}, {tail}"


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dualstream" / "__init__.py").is_file():
        print(f"error: no dualstream package under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dualstream.cli  # noqa: F401  (hooks patch the loaded modules)

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    env = read_env()
    print(f"# workload={run.wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} run={run.run_id}")
    print("# env " + json.dumps(env, sort_keys=True))
    try:
        run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    attempted = len(run.ops)
    failed = sum(1 for _, f in run.ops if f)
    e2e = end_to_end(run) if failed == 0 and not run.trace else {}
    layers = layer_metrics(run) if failed == 0 and run.trace else {}
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    chosen = layers if run.trace else e2e
    listed = {m["name"] for m in spec["per_layer" if run.trace else "end_to_end"]}
    if failed == 0 and set(chosen) != listed:
        raise RuntimeError(f"metrics {sorted(set(chosen) ^ listed)} are computed "
                           f"but not listed in {SPEC.name}, or listed but not computed")

    for kind, figures in (("e2e", e2e), ("layer", layers)):
        for name, (value, note) in figures.items():
            print(f"# {kind} {name} = {value:.6g} {units[name]} ({note})")
    for p in run.passes:
        print(f"# pass {p['index']} traced={int(p['traced'])} "
              f"ckpt_sha256={p.get('ckpt_sha256')} csv_sha256={p.get('csv_sha256')} "
              f"audit_sha256={p.get('audit_sha256')} "
              f"worst_rel_err={p.get('worst_rel_err', float('nan')):.3e}")
    repeats = {}
    for key in ("ckpt_sha256", "csv_sha256", "audit_sha256"):
        seen = [p[key] for p in run.passes if key in p]
        repeats[key] = len(set(seen)) == 1 if len(seen) > 1 else None
    print("# identical across passes: " + " ".join(
        f"{k}={'n/a (one pass)' if v is None else v}" for k, v in repeats.items()))

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    passes = [{k: v for k, v in p.items() if not isinstance(v, list)}
              for p in run.passes]
    record = {"run": run.run_id, "workload": run.wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "end_to_end": e2e, "per_layer": layers, "passes": passes,
              "deterministic": repeats,
              "ops": [{"op": n, "failures": f} for n, f in run.ops]}
    (results / f"{run.run_id}.json").write_text(json.dumps(record, indent=1))
    if run.trace:
        run.tracer.dump(results / f"{run.run_id}.spans.jsonl", run.wl.name, run.run_id)
    print(f"# result file {results / (run.run_id + '.json')}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, (v, _) in chosen.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report why the benchmark could not run, then exit 2
        traceback.print_exc()
        sys.exit(2)
