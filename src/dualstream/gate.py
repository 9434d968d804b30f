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

from .data import frame_steps
from .errors import ContractError, DimensionError
from .ranges import POSITIVE, UNIT, Range, check_ranges, knob
from .tensor import (Parameter, Tensor, add, concat, conv1d_same, gelu,
                     init_uniform, linear, reshape, sigmoid, tanh_rnn)

# keeps voice_confidence strictly inside (0, 1) even when the trained head
# saturates the float64 sigmoid
_SQUASH_MARGIN = 1e-9


@dataclass(frozen=True)
class GateParams:
    """Thresholds and blend weight for the score-correction rule."""

    t_main: float = 0.0
    t_veto: float = knob(0.06, Range(0, 1, open_lo=True, open_hi=True))
    gamma: float = knob(0.8, UNIT)
    eps: float = knob(1e-6, POSITIVE)

    def __post_init__(self):
        check_ranges(self, ContractError)


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

    Each visual frame spans ``data.STEPS_PER_FRAME`` audio steps; its
    features are the mean and the std of those steps.  The within-frame
    spread is what separates sustained speech from spiky interference.
    """
    grouped = frame_steps(audio)
    return np.concatenate([grouped.mean(axis=1), grouped.std(axis=1)], axis=1)


class ConfidenceNet:
    """Conv-conv-biRNN-linear speech detector over ``gate_audio_features``."""

    def __init__(self, mel_bins, conv_hidden, rnn_hidden, rng, name="gate"):
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
        """Per-frame speech logits, shape [T], from a scene's [4T, M] audio
        (``data.check_scene``)."""
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
