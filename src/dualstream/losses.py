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

from .errors import ContractError, DimensionError
from .tensor import (Tensor, add, matmul, mul, power, softplus, sub, take_rows,
                     texp, tlog, tmean, transpose, tsum)


@dataclass(frozen=True)
class LossWeights:
    """Non-negative branch weights; at least one must be positive."""

    w_av: float = 1.0
    w_v: float = 0.5
    w_a: float = 0.5
    w_con: float = 0.3
    temperature: float = 0.07

    def __post_init__(self):
        if min(self.w_av, self.w_v, self.w_a, self.w_con) < 0:
            raise ContractError(f"loss weights must be non-negative: {self}")
        if max(self.w_av, self.w_v, self.w_a, self.w_con) == 0:
            raise ContractError("at least one loss weight must be positive")
        if self.temperature <= 0:
            raise ContractError(f"temperature must be > 0, got {self.temperature}")


@dataclass
class SupervisionBatch:
    """One scene's targets and branch outputs, ready for the total loss.

    ``labels`` are only read where ``mask`` is 1; padded speaker slots carry
    all-zero mask rows.  The embedding pair feeds the contrastive term and
    may be omitted (None) to skip it.
    """

    labels: np.ndarray          # {0,1} [S, T]
    mask: np.ndarray            # {0,1} [S, T]
    fused_logits: Tensor        # [S, T]
    visual_logits: Tensor       # [S, T]
    audio_logits: Tensor        # [T] any-speech
    audio_frames: Tensor | None = None   # [T, C]
    visual_frames: Tensor | None = None  # [T, C]


def masked_bce(logits: Tensor, labels, mask) -> Tensor:
    """Mean binary cross-entropy (with logits) over mask=1 positions.

    Uses the stable form softplus(x) - x*y per element.  An empty mask is
    defined as zero loss.
    """
    labels = np.asarray(labels, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if logits.shape != labels.shape or logits.shape != mask.shape:
        raise DimensionError(
            f"masked_bce shapes disagree: logits {logits.shape}, "
            f"labels {labels.shape}, mask {mask.shape}")
    total = mask.sum()
    if total == 0:
        return Tensor(0.0)
    elem = sub(softplus(logits), mul(logits, labels))
    return mul(tsum(mul(elem, mask)), 1.0 / float(total))


def _log_sum_exp_rows(sim: Tensor) -> Tensor:
    # stable row-wise logsumexp; the max shift is a constant w.r.t. gradients
    shift = sim.data.max(axis=1, keepdims=True)
    return add(tlog(tsum(texp(sub(sim, shift)), axis=1)), shift.reshape(-1))


def contrastive_av(f_a_frames: Tensor, f_v_frames: Tensor, active_mask,
                   temperature: float) -> Tensor:
    """Symmetric frame-aligned InfoNCE over active-speech frames.

    Aligned (audio_t, visual_t) pairs are positives; every other active
    frame in the clip is a negative.  Similarity is cosine scaled by
    ``temperature``.  Fewer than two active frames make the objective
    degenerate, so it returns 0 (with a warning).
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
        return Tensor(0.0)

    def normalize(rows):
        sq = tsum(mul(rows, rows), axis=1, keepdims=True)
        return mul(rows, power(add(sq, 1e-12), -0.5))

    a = normalize(take_rows(f_a_frames, active))
    v = normalize(take_rows(f_v_frames, active))
    sim = mul(matmul(a, transpose(v, (1, 0))), 1.0 / float(temperature))
    n = active.size
    eye = np.eye(n)
    diag = tsum(mul(sim, eye), axis=1)
    loss_av = tmean(sub(_log_sum_exp_rows(sim), diag))
    sim_t = transpose(sim, (1, 0))
    loss_va = tmean(sub(_log_sum_exp_rows(sim_t), diag))
    return mul(add(loss_av, loss_va), 0.5)


def active_visual_frames(visual_emb: Tensor, labels) -> Tensor:
    """Scene-level visual frame embedding: per frame, the mean of the
    embeddings of the speakers active in that frame (zero where nobody
    speaks; those frames are excluded by the contrastive active mask)."""
    labels = np.asarray(labels, dtype=np.float64)
    counts = np.maximum(labels.sum(axis=0), 1.0)
    weights = labels / counts  # [S, T]
    return tsum(mul(visual_emb, weights[:, :, None]), axis=0)


def total_loss(batch: SupervisionBatch, w: LossWeights):
    """Weighted sum of the branch losses; returns (total, parts dict)."""
    any_speech = (np.asarray(batch.labels).sum(axis=0) > 0).astype(np.float64)
    any_valid = (np.asarray(batch.mask).sum(axis=0) > 0).astype(np.float64)

    l_av = masked_bce(batch.fused_logits, batch.labels, batch.mask)
    l_v = masked_bce(batch.visual_logits, batch.labels, batch.mask)
    l_a = masked_bce(batch.audio_logits, any_speech, any_valid)
    if batch.audio_frames is not None and batch.visual_frames is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            l_con = contrastive_av(batch.audio_frames, batch.visual_frames,
                                   any_speech, w.temperature)
    else:
        l_con = Tensor(0.0)

    total = add(add(mul(l_av, w.w_av), mul(l_v, w.w_v)),
                add(mul(l_a, w.w_a), mul(l_con, w.w_con)))
    parts = {"l_av": l_av.item(), "l_v": l_v.item(),
             "l_a": l_a.item(), "l_con": l_con.item()}
    return total, parts
