"""Voice gate: audio-only speech confidence plus the score-correction rule.

The gate is a pure post-processor.  A small temporal network (two 1-d
convolutions, one bidirectional tanh recurrence, a linear head and a
sigmoid squash) maps a scene's audio to a per-frame speech confidence
p_hat in (0, 1); ``gate_audio_features`` defines what it reads.  Each
convolution is one ``conv1d_same`` tape node and each recurrence direction
one ``tanh_rnn`` node, so a gate loss has the same small tape at any scene
length.  At
evaluation time each positive main score s is rescaled by

    alpha = min(p_hat / (t_veto + eps), 1)   if p_hat < t_veto, else 1
    s_final = s * ((1 - gamma) + gamma * alpha)   if s > t_main, else s

so frames with weak audio evidence have their confident predictions
downgraded while everything else passes through unchanged.  The multiplier
is bounded in [1 - gamma, 1]: gating can shrink a positive score but never
flip its sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import (Parameter, Tensor, add, concat, conv1d_same, gelu,
                     init_uniform, linear, reshape, sigmoid, tanh_rnn)

# keeps voice_confidence strictly inside (0, 1) even when the trained head
# saturates the float64 sigmoid
_SQUASH_MARGIN = 1e-9


@dataclass(frozen=True)
class GateParams:
    """Thresholds and blend weight for the score-correction rule."""

    t_main: float = 0.0
    t_veto: float = 0.06
    gamma: float = 0.8
    eps: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.t_veto < 1.0):
            raise ContractError(f"t_veto must lie in (0, 1), got {self.t_veto}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ContractError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.eps <= 0.0:
            raise ContractError(f"eps must be > 0, got {self.eps}")


def gate_scale(p_hat: float, gp: GateParams) -> float:
    """Scaling factor alpha in (0, 1]; equals 1 whenever p_hat >= t_veto."""
    if p_hat >= gp.t_veto:
        return 1.0
    return min(p_hat / (gp.t_veto + gp.eps), 1.0)


def gate_apply(s: float, p_hat: float, gp: GateParams) -> float:
    """Reconciled score: scores above t_main are blended toward (1-gamma)*s."""
    if s <= gp.t_main:
        return s
    alpha = gate_scale(p_hat, gp)
    return s * ((1.0 - gp.gamma) + gp.gamma * alpha)


def gate_batch(scores: np.ndarray, p_hat: np.ndarray, gp: GateParams) -> np.ndarray:
    """Vectorized gate over [S, T] scores with one shared p_hat per frame."""
    scores = np.asarray(scores, dtype=np.float64)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    if scores.ndim != 2 or p_hat.ndim != 1 or scores.shape[1] != p_hat.shape[0]:
        raise DimensionError(
            f"gate_batch: scores {scores.shape} incompatible with "
            f"p_hat {p_hat.shape}")
    alpha = np.where(p_hat < gp.t_veto,
                     np.minimum(p_hat / (gp.t_veto + gp.eps), 1.0), 1.0)
    multiplier = (1.0 - gp.gamma) + gp.gamma * alpha
    return np.where(scores > gp.t_main, scores * multiplier, scores)


def gate_audio_features(audio: np.ndarray) -> np.ndarray:
    """The gate's input contract: [4T, M] audio in, [T, 2M] features out.

    Each visual frame spans 4 audio steps; its features are the mean and the
    std of those steps.  The within-frame spread is what separates sustained
    speech from spiky interference.
    """
    steps, m = audio.shape
    grouped = audio.reshape(steps // 4, 4, m)
    return np.concatenate([grouped.mean(axis=1), grouped.std(axis=1)], axis=1)


class ConfidenceNet:
    """Conv-conv-biRNN-linear speech detector over ``gate_audio_features``."""

    def __init__(self, mel_bins, conv_hidden, rnn_hidden, rng, name="gate"):
        self.mel_bins = mel_bins

        def conv(tag, cin, cout, k=3):
            w = Parameter(init_uniform(rng, k * cin, (k, cin, cout)),
                          f"{name}.{tag}_w")
            b = Parameter(np.zeros(cout), f"{name}.{tag}_b")
            return w, b

        def rnn(tag, cin, h):
            wx = Parameter(init_uniform(rng, cin, (cin, h)), f"{name}.{tag}_wx")
            wh = Parameter(init_uniform(rng, h, (h, h)), f"{name}.{tag}_wh")
            b = Parameter(np.zeros(h), f"{name}.{tag}_b")
            return wx, wh, b

        self.c1_w, self.c1_b = conv("conv1", 2 * mel_bins, conv_hidden)
        self.c2_w, self.c2_b = conv("conv2", conv_hidden, conv_hidden)
        self.fwd = rnn("rnn_fwd", conv_hidden, rnn_hidden)
        self.bwd = rnn("rnn_bwd", conv_hidden, rnn_hidden)
        self.out_w = Parameter(init_uniform(rng, 2 * rnn_hidden,
                                            (2 * rnn_hidden, 1)), f"{name}.out_w")
        self.out_b = Parameter(np.zeros(1), f"{name}.out_b")

    def parameters(self):
        return [self.c1_w, self.c1_b, self.c2_w, self.c2_b,
                *self.fwd, *self.bwd, self.out_w, self.out_b]

    def logits(self, audio) -> Tensor:
        """Per-frame speech logits, shape [T], from [4T, M] audio."""
        audio = np.asarray(audio, dtype=np.float64)
        if audio.ndim != 2 or audio.shape[1] != self.mel_bins:
            raise DimensionError(
                f"confidence net expects [4T, {self.mel_bins}] audio, "
                f"got {audio.shape}")
        if audio.shape[0] == 0 or audio.shape[0] % 4 != 0:
            raise DimensionError(
                f"confidence net needs a positive multiple of 4 audio steps, "
                f"got {audio.shape[0]}")
        x = gelu(conv1d_same(gate_audio_features(audio), self.c1_w, self.c1_b))
        x = gelu(conv1d_same(x, self.c2_w, self.c2_b))
        both = concat([tanh_rnn(x, *self.fwd),
                       tanh_rnn(x, *self.bwd, reverse=True)], axis=1)
        return reshape(linear(both, self.out_w, self.out_b), (x.shape[0],))


def voice_confidence(audio, net: ConfidenceNet) -> Tensor:
    """Frame-level speech confidence in the open interval (0, 1), from
    [4T, M] audio."""
    p = sigmoid(net.logits(audio))
    return add(p * (1.0 - 2.0 * _SQUASH_MARGIN), _SQUASH_MARGIN)
