"""Training objectives: masked per-branch cross-entropy plus a frame-aligned
audio-visual contrastive term.

All three prediction branches (fused, visual, audio) are supervised with
binary cross-entropy over logits, averaged over mask-valid cells only; the
contrastive term pulls the audio and visual embeddings of the same
active-speech frame together against every other active frame in the clip,
symmetrically in both directions, with cosine similarity and a fixed
temperature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import expit as _expit

from .errors import ContractError, DimensionError
from .ranges import NON_NEGATIVE, POSITIVE, check_ranges, knob
from .tensor import Tensor, add, mul, record, tsum


@dataclass(frozen=True)
class LossWeights:
    """Non-negative branch weights; at least one must be positive."""

    w_av: float = knob(1.0, NON_NEGATIVE)
    w_v: float = knob(0.5, NON_NEGATIVE)
    w_a: float = knob(0.5, NON_NEGATIVE)
    w_con: float = knob(0.3, NON_NEGATIVE)
    temperature: float = knob(0.07, POSITIVE)

    def __post_init__(self):
        check_ranges(self, ContractError)
        if max(self.w_av, self.w_v, self.w_a, self.w_con) == 0:
            raise ContractError("at least one loss weight must be positive")


def _zero(*inputs):
    """A degenerate term: 0 as a tape node over its Tensor ``inputs`` that
    sends them no gradient, so no constant becomes a leaf of the tape and
    an all-degenerate loss still has a tape to walk."""
    return record(np.zeros(()), inputs, lambda g, need: [None] * len(inputs))


def any_speech(labels) -> np.ndarray:
    """Frame-level target [T]: 1 where any speaker of the [S, T] labels speaks."""
    return (np.asarray(labels).sum(axis=0) > 0).astype(np.float64)


def masked_bce(logits: Tensor, labels, mask) -> Tensor:
    """Mean binary cross-entropy (with logits) over mask=1 positions, as one
    tape node.

    Uses the stable form softplus(x) - x*y per element.  An empty mask is
    defined as zero loss.  The gradient is computed as the composed
    softplus / mul / sub / sum tape computed it, gm * sigmoid(x) + (-gm) * y
    with gm = g / sum(mask) * mask, not as the algebraically equal
    (sigmoid(x) - y) * gm: the gate trainer's result moves with the last bit.
    """
    labels = np.asarray(labels, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if logits.shape != labels.shape or logits.shape != mask.shape:
        raise DimensionError(
            f"masked_bce shapes disagree: logits {logits.shape}, "
            f"labels {labels.shape}, mask {mask.shape}")
    total = mask.sum()
    if total == 0:
        return _zero(logits)
    x, scale = logits.data, 1.0 / float(total)
    softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    out = ((softplus - x * labels) * mask).sum() * scale

    def vjp(g, need):
        gm = np.broadcast_to(g * scale, x.shape) * mask
        return (gm * _expit(x) + (-gm) * labels,)

    return record(out, (logits,), vjp)


def contrastive_av(f_a_frames: Tensor, f_v_frames: Tensor, active_mask,
                   temperature: float) -> Tensor:
    """Symmetric frame-aligned InfoNCE over active-speech frames, as one
    tape node.

    Aligned (audio_t, visual_t) pairs are positives; every other active
    frame in the clip is a negative.  Similarity is cosine scaled by
    ``temperature``.  Fewer than two active frames make the objective
    degenerate, so it returns 0 (with a warning).  The forward replays the
    arithmetic of the row-gather / normalize / matmul / log-sum-exp op
    chain in its order, so the loss is bit-identical to that chain's.
    """
    if temperature <= 0:
        raise ContractError(f"temperature must be > 0, got {temperature}")
    if f_a_frames.shape != f_v_frames.shape or f_a_frames.ndim != 2:
        raise DimensionError(
            f"contrastive_av expects matching [T, C] inputs, got "
            f"{f_a_frames.shape} vs {f_v_frames.shape}")
    active = np.flatnonzero(np.asarray(active_mask) != 0)
    if active.size < 2:
        warnings.warn("contrastive_av: fewer than 2 active frames, "
                      "returning zero loss", stacklevel=2)
        return _zero(f_a_frames, f_v_frames)

    def normalize(rows):
        base = (rows * rows).sum(axis=1, keepdims=True) + 1e-12
        return rows * base ** -0.5, base

    def log_sum_exp_rows(s):
        # stable row-wise logsumexp; the max shift is a constant for gradients
        shift = s.max(axis=1, keepdims=True)
        e = np.exp(s - shift)
        total = e.sum(axis=1)
        return np.log(total) + shift.reshape(-1), e, total

    a_rows, v_rows = f_a_frames.data[active], f_v_frames.data[active]
    a, a_base = normalize(a_rows)
    v, v_base = normalize(v_rows)
    inv_t, n = 1.0 / float(temperature), active.size
    sim = (a @ v.transpose((1, 0))) * inv_t
    diag = (sim * np.eye(n)).sum(axis=1)
    lse_av, e_av, s_av = log_sum_exp_rows(sim)
    lse_va, e_va, s_va = log_sum_exp_rows(sim.transpose((1, 0)))
    out = ((lse_av - diag).sum() * (1.0 / float(n))
           + (lse_va - diag).sum() * (1.0 / float(n))) * 0.5

    def vjp(g, need):
        gl = np.broadcast_to((g * 0.5) * (1.0 / float(n)), (n,))
        g_sim = ((gl / s_av)[:, None] * e_av
                 + np.diag((-gl) + (-gl))
                 + ((gl / s_va)[:, None] * e_va).transpose((1, 0))) * inv_t
        grads = []
        for rows, base, g_unit, src in ((a_rows, a_base, g_sim @ v, f_a_frames),
                                        (v_rows, v_base, (a.T @ g_sim).T, f_v_frames)):
            g_sq = (g_unit * rows).sum(axis=1, keepdims=True) * -0.5 * base ** -1.5
            full = np.zeros(src.shape)
            full[active] = g_unit * base ** -0.5 + (g_sq * rows + g_sq * rows)
            grads.append(full)
        return grads

    return record(out, (f_a_frames, f_v_frames), vjp)


def active_visual_frames(visual_emb: Tensor, labels) -> Tensor:
    """Scene-level visual frame embedding: per frame, the mean of the
    embeddings of the speakers active in that frame (zero where nobody
    speaks; those frames are excluded by the contrastive active mask)."""
    labels = np.asarray(labels, dtype=np.float64)
    counts = np.maximum(labels.sum(axis=0), 1.0)
    weights = labels / counts  # [S, T]
    return tsum(mul(visual_emb, weights[:, :, None]), axis=0)


def total_loss(out, labels, mask, w: LossWeights):
    """Weighted sum of the branch losses of one forward's ``ModelOutput``
    against a scene's {0,1} [S, T] ``labels`` and ``mask``; returns (total,
    parts dict).

    ``labels`` are read where ``mask`` is 1 by the per-cell terms; padded
    speaker slots carry all-zero mask rows.  The contrastive term pairs the
    audio frames with ``active_visual_frames``.
    """
    visual_frames = active_visual_frames(out.visual_frames, labels)
    speech = any_speech(labels)
    any_valid = (np.asarray(mask).sum(axis=0) > 0).astype(np.float64)

    l_av = masked_bce(out.scores, labels, mask)
    l_v = masked_bce(out.visual_logits, labels, mask)
    l_a = masked_bce(out.audio_logits, speech, any_valid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        l_con = contrastive_av(out.audio_frames, visual_frames, speech,
                               w.temperature)

    total = add(add(mul(l_av, w.w_av), mul(l_v, w.w_v)),
                add(mul(l_a, w.w_a), mul(l_con, w.w_con)))
    parts = {"l_av": l_av.item(), "l_v": l_v.item(),
             "l_a": l_a.item(), "l_con": l_con.item()}
    return total, parts
