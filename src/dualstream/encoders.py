"""Toy frame-level encoders and bidirectional cross-modal fusion.

The visual encoder embeds each face crop independently (no temporal mixing
inside the encoder); the audio encoder mean-pools the 4x-rate spectrogram
down to the visual frame rate and embeds each frame.  The model replicates
that embedding across the speaker axis, so each candidate sees the same
scene audio.

Fusion runs one cross-attention block in each direction over the time axis
(speakers folded into the batch) and concatenates audio-then-visual along
the channel axis, doubling the width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionBlock, cal_forward
from .errors import ContractError, DimensionError
from .tensor import Parameter, Tensor, concat, gelu, init_uniform, linear


@dataclass
class VisualClip:
    """S candidate face tracks, T frames of HxW grayscale crops."""

    values: np.ndarray  # [S, T, H, W, 1]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 5 or self.values.shape[-1] != 1:
            raise ContractError(
                f"visual clip must be [S, T, H, W, 1], got {self.values.shape}")
        if min(self.values.shape[:2]) < 1:
            raise ContractError("visual clip needs S >= 1 and T >= 1")
        if not np.isfinite(self.values).all():
            raise ContractError("visual clip contains non-finite values")


@dataclass
class AudioClip:
    """Mel-like spectrogram at 4x the visual frame rate."""

    values: np.ndarray  # [4T, M]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ContractError(
                f"audio clip must be [4T, M], got {self.values.shape}")
        if self.values.shape[0] % 4 != 0:
            raise ContractError(
                f"audio length {self.values.shape[0]} not divisible by 4")
        if not np.isfinite(self.values).all():
            raise ContractError("audio clip contains non-finite values")


class VisualEncoder:
    """Two-layer pointwise network on flattened crops: HW -> hidden -> C."""

    def __init__(self, height, width, channels, hidden, rng, name="visual_enc"):
        self.height, self.width = height, width
        d_in = height * width
        self.w1 = Parameter(init_uniform(rng, d_in, (d_in, hidden)), f"{name}.w1")
        self.b1 = Parameter(np.zeros(hidden), f"{name}.b1")
        self.w2 = Parameter(init_uniform(rng, hidden, (hidden, channels)), f"{name}.w2")
        self.b2 = Parameter(np.zeros(channels), f"{name}.b2")

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, clip: VisualClip) -> Tensor:
        s, t, h, w, _ = clip.values.shape
        if (h, w) != (self.height, self.width):
            raise DimensionError(
                f"visual encoder built for {self.height}x{self.width} crops, "
                f"got {h}x{w}")
        x = clip.values.reshape(s, t, h * w)
        return linear(gelu(linear(x, self.w1, self.b1)), self.w2, self.b2)


class AudioEncoder:
    """Mean-pool groups of 4 audio steps to frames, then embed M -> hidden -> C."""

    def __init__(self, mel_bins, channels, hidden, rng, name="audio_enc"):
        self.mel_bins = mel_bins
        self.w1 = Parameter(init_uniform(rng, mel_bins, (mel_bins, hidden)), f"{name}.w1")
        self.b1 = Parameter(np.zeros(hidden), f"{name}.b1")
        self.w2 = Parameter(init_uniform(rng, hidden, (hidden, channels)), f"{name}.w2")
        self.b2 = Parameter(np.zeros(channels), f"{name}.b2")

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def frame_embedding(self, clip: AudioClip) -> Tensor:
        """Scene-level per-frame embedding, shape [T, C]."""
        steps, m = clip.values.shape
        if m != self.mel_bins:
            raise DimensionError(
                f"audio encoder built for {self.mel_bins} bins, got {m}")
        frames = clip.values.reshape(steps // 4, 4, m).mean(axis=1)
        return linear(gelu(linear(frames, self.w1, self.b1)), self.w2, self.b2)


def fuse(f_v: Tensor, f_a: Tensor, cal_av: AttentionBlock,
         cal_va: AttentionBlock) -> Tensor:
    """Bidirectional cross-modal attention over time, concatenated audio-first.

    f~_a = CAL(f_a, f_v, f_v) and f~_v = CAL(f_v, f_a, f_a), each with the
    speaker axis folded into the batch and attention running over T; the
    output is [f~_a || f~_v] along channels, shape [S, T, 2C].
    """
    if f_v.shape != f_a.shape:
        raise DimensionError(
            f"fuse expects matching [S, T, C] inputs, got {f_v.shape} vs {f_a.shape}")
    fa_t = cal_forward(f_a, f_v, cal_av)
    fv_t = cal_forward(f_v, f_a, cal_va)
    return concat([fa_t, fv_t], axis=-1)
