"""Toy frame-level encoders and bidirectional cross-modal fusion.

The visual encoder embeds each face crop independently (no temporal mixing
inside the encoder); the audio encoder mean-pools each frame's audio steps
(``data.frame_steps``) down to the visual frame rate and embeds each frame.
The model replicates that embedding across the speaker axis, so each
candidate sees the same scene audio.  Both encoders take a scene's arrays
as they are: ``data.check_scene`` has already checked them.

Fusion runs one cross-attention block in each direction over the time axis
(speakers folded into the batch) and concatenates audio-then-visual along
the channel axis, doubling the width.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionBlock, cal_forward
from .data import frame_steps
from .tensor import Module, Parameter, Tensor, concat, gelu, init_uniform, linear


class VisualEncoder(Module):
    """Two-layer pointwise network on flattened crops: HW -> hidden -> C."""

    def __init__(self, height, width, channels, hidden, rng):
        d_in = height * width
        self.w1 = Parameter(init_uniform(rng, d_in, (d_in, hidden)), "visual_enc.w1")
        self.b1 = Parameter(np.zeros(hidden), "visual_enc.b1")
        self.w2 = Parameter(init_uniform(rng, hidden, (hidden, channels)), "visual_enc.w2")
        self.b2 = Parameter(np.zeros(channels), "visual_enc.b2")

    def forward(self, visual: np.ndarray) -> Tensor:
        """[S, T, H, W, 1] crops to [S, T, C] embeddings."""
        s, t, h, w, _ = visual.shape
        x = visual.reshape(s, t, h * w)
        return linear(gelu(linear(x, self.w1, self.b1)), self.w2, self.b2)


class AudioEncoder(Module):
    """Mean-pool each frame's audio steps, then embed M -> hidden -> C."""

    def __init__(self, mel_bins, channels, hidden, rng):
        self.w1 = Parameter(init_uniform(rng, mel_bins, (mel_bins, hidden)), "audio_enc.w1")
        self.b1 = Parameter(np.zeros(hidden), "audio_enc.b1")
        self.w2 = Parameter(init_uniform(rng, hidden, (hidden, channels)), "audio_enc.w2")
        self.b2 = Parameter(np.zeros(channels), "audio_enc.b2")

    def frame_embedding(self, audio: np.ndarray) -> Tensor:
        """Scene-level per-frame embedding, shape [T, C], from [4T, M] audio."""
        frames = frame_steps(audio).mean(axis=1)
        return linear(gelu(linear(frames, self.w1, self.b1)), self.w2, self.b2)


def fuse(f_v: Tensor, f_a: Tensor, cal_av: AttentionBlock,
         cal_va: AttentionBlock) -> Tensor:
    """Bidirectional cross-modal attention over time, concatenated audio-first.

    f~_a = CAL(f_a, f_v, f_v) and f~_v = CAL(f_v, f_a, f_a) on [S, T, C]
    inputs (the model broadcasts f_a to f_v's shape), each with the speaker
    axis folded into the batch and attention running over T; the output is
    [f~_a || f~_v] along channels, shape [S, T, 2C].
    """
    fa_t = cal_forward(f_a, f_v, cal_av)
    fv_t = cal_forward(f_v, f_a, cal_va)
    return concat([fa_t, fv_t], axis=-1)
