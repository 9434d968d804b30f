"""Tape ops the package no longer calls, kept as the oracles its fused nodes
must match.

``attention._block``, ``losses.masked_bce`` and ``losses.contrastive_av``
each replace a chain of these primitive ops with one tape node; the tests
rebuild those chains from the ops here and require the fused nodes to give
the chains' values bit for bit and their gradients bit for bit or to
rounding.  Their arithmetic is the package's former ops', unchanged.  Each
is a ``tensor.op``, so it honours ``no_grad`` and ``gradcheck`` can replay
it.  ``layer_norm`` and ``attention_core`` wrap the numpy kernels of
``dualstream.attention`` as stand-alone tape nodes, so that each kernel is
checked on its own, as the fused block's former ops were.  ``gelu`` is the
activation in its former allocating form, erf taken on x / sqrt(2) itself,
so that ``tensor.gelu_forward``, which takes it on |x| / sqrt(2) and copies
x's sign back, is held to it.

``generate_scene`` is the scene generator in its former loop form: lip
motion and speech audio built one (slot, frame) cell at a time.
``data.generate_scene`` draws the same random numbers in the same order and
builds its arrays with array math; the tests require the two to give the
same bytes for every array.

``full_recompute_audit`` is the gradient audit in its former form, every
perturbed pass re-running the whole loss; ``gradcheck`` replays only the
op calls a perturbed Parameter reaches, and the tests require the two to
report the same errors.

``average_precision``, ``f1_per_speaker``, ``false_positive_count`` and
``distractor_cells`` are the ranking metrics in their former record form,
one Python loop over ``PredictionRecord`` tuples each, and ``eval_metrics``
is the report ``cmd_eval`` built from them; the package's metrics read the
arrays of one ``evaluation.Cells``, and the tests require the same values
bit for bit.
"""

import numpy as np
from scipy.special import erf, expit

from dualstream.attention import (attention_backward, attention_forward,
                                  layer_norm_backward, layer_norm_forward)
from dualstream.data import (_DISTRACTOR_STAY, _FACE_SCALE, _LIP_AMPLITUDE,
                             _LIP_RATE, STEPS_PER_FRAME, Scenario, _lip_mask,
                             frame_steps, slot_signature)
from dualstream.errors import DimensionError, MetricError
from dualstream.gradcheck import STEP, relative_error
from dualstream.tensor import (Tensor, _data, _unbroadcast, backward,
                               gelu_backward, no_grad, op, zero_grads)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


@op
def sub(a, b):
    ad, bd = _data(a), _data(b)

    def vjp(g, need):
        return (_unbroadcast(g, ad.shape) if need[0] else None,
                _unbroadcast(-g, bd.shape) if need[1] else None)

    return ad - bd, (a, b), vjp


@op
def power(a, p):
    """Raise to a constant real exponent."""
    a, p = _lift(a), float(p)
    return a.data ** p, (a,), lambda g, need: (g * p * a.data ** (p - 1.0),)


@op
def texp(a):
    a = _lift(a)
    out = np.exp(a.data)
    return out, (a,), lambda g, need: (g * out,)


@op
def tlog(a):
    a = _lift(a)
    return np.log(a.data), (a,), lambda g, need: (g / a.data,)


@op
def tanh(a):
    a = _lift(a)
    out = np.tanh(a.data)
    return out, (a,), lambda g, need: (g * (1.0 - out * out),)


@op
def softplus(a):
    """log(1 + exp(x)) in the overflow-safe split form."""
    a = _lift(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return out, (a,), lambda g, need: (g * expit(x),)


@op
def matmul(a, b):
    """Batched matrix product over the last two axes.

    Leading axes broadcast numpy-style; gradients are summed back down to
    each operand's shape.
    """
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    for da, db in zip(a.shape[-3::-1], b.shape[-3::-1]):
        if da != db and da != 1 and db != 1:
            raise DimensionError(
                f"matmul batch dimensions incompatible: {a.shape} @ {b.shape}")

    def vjp(g, need):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return a.data @ b.data, (a, b), vjp


@op
def softmax(a, axis):
    """Max-shifted exp-normalize along ``axis``; rows sum to one."""
    a = _lift(a)
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g, need):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return out, (a,), vjp


def gelu_phi(x):
    """Phi(x) = (erf(x / sqrt(2)) + 1) * 0.5, one new array per step."""
    return (erf(x * (1.0 / np.sqrt(2.0))) + 1.0) * 0.5


@op
def gelu(a):
    """x * Phi(x), with ``tensor.gelu_backward`` as its VJP."""
    a = _lift(a)
    x = a.data
    phi = gelu_phi(x)
    return x * phi, (a,), lambda g, need: (gelu_backward(g, x, phi),)


@op
def take_rows(a, idx):
    """Gather rows along axis 0 by an integer index array."""
    a = _lift(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g, need):
        z = np.zeros(a.shape)
        np.add.at(z, idx, g)
        return (z,)

    return a.data[idx], (a,), vjp


@op
def layer_norm(x, gamma, beta, eps=1e-5):
    """``attention.layer_norm_forward`` / ``_backward`` as one tape node."""
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    out, saved = layer_norm_forward(x.data, gamma.data, beta.data, eps)
    return (out, (x, gamma, beta),
            lambda g, need: layer_norm_backward(g, gamma.data, saved))


@op
def attention_core(q, k, v, num_heads):
    """``attention.attention_forward`` / ``_backward`` as one tape node."""
    q, k, v = _lift(q), _lift(k), _lift(v)
    out, saved = attention_forward(q.data, k.data, v.data, num_heads)
    return out, (q, k, v), lambda g, need: attention_backward(g, saved)


def _markov_chain(rng, frames, p_on_on, p_off_on):
    p_stationary = p_off_on / max(p_off_on + (1.0 - p_on_on), 1e-12)
    state = 1 if rng.random() < p_stationary else 0
    out = np.zeros(frames, dtype=np.uint8)
    for t in range(frames):
        stay = p_on_on if state else p_off_on
        state = 1 if rng.random() < stay else 0
        out[t] = state
    return out


def _trim_concurrency(rng, proposals, max_concurrent, overlap_rate):
    """Enforce the hard cap, preferring a single continuing speaker; with
    probability overlap_rate a multi-speaker frame keeps up to the cap."""
    s, frames = proposals.shape
    labels = np.zeros_like(proposals)
    for t in range(frames):
        active = np.flatnonzero(proposals[:, t])
        if active.size == 0:
            continue
        if active.size == 1:
            labels[active, t] = 1
            continue
        cap = max_concurrent if rng.random() < overlap_rate else 1
        cap = min(cap, max_concurrent)
        prev = set(np.flatnonzero(labels[:, t - 1])) if t > 0 else set()
        continuing = [x for x in active if x in prev]
        fresh = [x for x in active if x not in prev]
        order = list(rng.permutation(continuing)) + list(rng.permutation(fresh))
        labels[[int(x) for x in order[:cap]], t] = 1
    return labels


def generate_scene(cfg, index):
    """Build one scenario; fully determined by (cfg.seed, index)."""
    rng = np.random.default_rng([cfg.seed, index])
    s, t_frames = cfg.speakers, cfg.frames
    h, w, m = cfg.height, cfg.width, cfg.mel_bins

    # valid slots: usually all, sometimes fewer, to exercise masking
    if s > 1 and rng.random() < 0.3:
        valid = int(rng.integers(1, s + 1))
    else:
        valid = s
    mask = np.zeros((s, t_frames), dtype=np.uint8)
    mask[:valid] = 1

    proposals = np.zeros((s, t_frames), dtype=np.uint8)
    for spk in range(valid):
        proposals[spk] = _markov_chain(rng, t_frames, cfg.p_on_on, cfg.p_off_on)
    labels = _trim_concurrency(rng, proposals, cfg.max_concurrent,
                               cfg.overlap_rate)

    distractor = np.zeros((s, t_frames), dtype=np.uint8)
    for spk in range(valid):
        chain = _markov_chain(rng, t_frames, _DISTRACTOR_STAY,
                              cfg.distractor_rate)
        distractor[spk] = chain & (1 - labels[spk])

    lip = _lip_mask(h, w)
    visual = np.zeros((s, t_frames, h, w, 1))
    for spk in range(s):
        if spk < valid:
            face = rng.uniform(-1.0, 1.0, size=(h, w)) * _FACE_SCALE
        else:
            face = np.zeros((h, w))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        moving = labels[spk] | distractor[spk]
        for t in range(t_frames):
            frame = face.copy()
            if moving[t]:
                osc = _LIP_AMPLITUDE * np.sin(2.0 * np.pi * _LIP_RATE * t + phase)
                frame = frame + osc * lip
            visual[spk, t, :, :, 0] = frame
    visual += rng.normal(0.0, cfg.noise_std, size=visual.shape)

    audio = np.zeros((STEPS_PER_FRAME * t_frames, m))
    by_frame = frame_steps(audio)
    for spk in range(valid):
        sig = slot_signature(spk, m)
        for t in range(t_frames):
            if labels[spk, t]:
                by_frame[t] += sig
    # speech-mimicking bursts: a signature's spectrum on 1-2 of a frame's
    # steps, scaled so the frame mean looks like sustained speech
    if cfg.noise_std > 0 and cfg.burst_rate > 0:
        event = None
        for t in range(t_frames):
            if event is not None and rng.random() < 0.5:
                event = None
            if event is None and rng.random() < cfg.burst_rate:
                sig = slot_signature(int(rng.integers(0, s)), m)
                hits = int(rng.integers(1, 3))
                scale = cfg.burst_amp * rng.uniform(0.8, 1.3)
                event = (sig * scale * (STEPS_PER_FRAME / hits), hits)
            if event is not None:
                shape, hits = event
                steps = rng.choice(STEPS_PER_FRAME, size=hits, replace=False)
                by_frame[t, steps] += shape
    audio += rng.normal(0.0, cfg.noise_std, size=audio.shape)

    return Scenario(
        scene_id=f"scene{index:05d}",
        visual=visual,
        audio=audio,
        labels=labels,
        mask=mask,
        distractor=distractor,
    )


def full_recompute_audit(build_loss, params, max_coords=16, seed=0):
    """``gradcheck.check_parameter_gradients`` with every perturbed pass a
    full ``build_loss`` run under ``no_grad``: the same coordinates, steps
    and error measure; returns ``{param_name: worst_relative_error}``."""
    zero_grads(params)
    backward(build_loss())
    analytic = {p.name: p.grad.copy() for p in params}

    worst = {}
    with no_grad():
        for k, p in enumerate(params):
            n = p.data.size
            if n <= max_coords:
                coords = np.arange(n)
            else:
                rng = np.random.default_rng([seed, k])
                coords = np.sort(rng.choice(n, size=max_coords, replace=False))
            flat = p.data.reshape(-1)
            err = 0.0
            for i in coords:
                orig = flat[i]
                try:
                    flat[i] = orig + STEP
                    up = build_loss().item()
                    flat[i] = orig - STEP
                    down = build_loss().item()
                finally:
                    flat[i] = orig
                numeric = (up - down) / (2.0 * STEP)
                err = max(err, relative_error(analytic[p.name].reshape(-1)[i],
                                              numeric))
            worst[p.name] = err
    return worst


def _ranked(records):
    return sorted(records, key=lambda r: (-r.score, r.scene_id,
                                          r.speaker_idx, r.frame_idx))


def average_precision(records) -> float:
    """Mean over positives of precision at that positive's rank.

    Raises MetricError when there are no positive records (the metric is
    undefined, not zero).
    """
    ranked = _ranked(records)
    positives = sum(r.label for r in ranked)
    if positives == 0:
        raise MetricError("average precision undefined: no positive records")
    hit = 0
    total = 0.0
    for rank, rec in enumerate(ranked, start=1):
        if rec.label:
            hit += 1
            total += hit / rank
    return total / positives


def f1_per_speaker(records, threshold: float) -> dict:
    """F1 of the decision (score > threshold) grouped by speaker index."""
    counts = {}
    for r in records:
        tp, fp, fn = counts.setdefault(r.speaker_idx, [0, 0, 0])
        predicted = r.score > threshold
        if predicted and r.label:
            counts[r.speaker_idx][0] += 1
        elif predicted and not r.label:
            counts[r.speaker_idx][1] += 1
        elif not predicted and r.label:
            counts[r.speaker_idx][2] += 1
    out = {}
    for spk, (tp, fp, fn) in sorted(counts.items()):
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        denom = precision + recall
        out[spk] = 2.0 * precision * recall / denom if denom else 0.0
    return out


def false_positive_count(records, threshold: float, distractor_cells=None) -> int:
    """Label-0 records scoring above the threshold; optionally restricted to
    the given set of distractor-annotated (scene_id, speaker, frame) cells."""
    count = 0
    for r in records:
        if r.label or r.score <= threshold:
            continue
        if distractor_cells is not None and (
                (r.scene_id, r.speaker_idx, r.frame_idx) not in distractor_cells):
            continue
        count += 1
    return count


def distractor_cells(scenes) -> set:
    cells = set()
    for scene in scenes:
        for spk, frame in zip(*np.nonzero(scene.distractor)):
            cells.add((scene.scene_id, int(spk), int(frame)))
    return cells


def eval_metrics(records, raw_records, threshold, cells) -> dict:
    """``cmd_eval``'s report of the gated and raw records; ``cells`` is the
    ``distractor_cells`` set."""
    f1 = f1_per_speaker(records, threshold)
    metrics = {
        "n_records": len(records),
        "threshold": float(threshold),
        "ap": average_precision(records),
        "ap_nogate": average_precision(raw_records),
        "fp_total": false_positive_count(records, threshold),
        "fp_total_nogate": false_positive_count(raw_records, threshold),
        "fp_distractor": false_positive_count(records, threshold, cells),
        "fp_distractor_nogate": false_positive_count(raw_records, threshold, cells),
    }
    for spk, value in f1.items():
        metrics[f"f1_speaker_{spk}"] = value
    metrics["f1_macro"] = sum(f1.values()) / len(f1) if f1 else 0.0
    return metrics
