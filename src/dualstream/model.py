"""Decoupled dual-stream interaction model.

Two views of the fused features are refined in parallel: the speaker
stream attends across candidate speakers within each frame (with a
learnable per-slot embedding added first), the temporal stream attends
across frames for each speaker.  After each round the streams exchange
information through mutual cross-attention; after the final round they are
summed and a single linear head produces one raw logit per (speaker,
frame).  The logits deliberately stay un-squashed: the voice gate consumes
them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionBlock, cal_forward, sal_forward
from .data import GenConfig
from .encoders import AudioEncoder, VisualEncoder, fuse
from .errors import ContractError
from .ranges import NON_NEGATIVE, SIZE, check_ranges, knob
from .tensor import (Module, Parameter, Tensor, add, broadcast_to, getitem,
                     init_uniform, linear, reshape, tmean, transpose)


def speaker_stream(f_av: Tensor, table: Tensor, sal: AttentionBlock) -> Tensor:
    """Within-frame speaker interaction: swap to [T, S, 2C], add the first S
    rows of the slot embedding ``table``, self-attend over S with T folded
    into the batch, swap back.  ``data.check_scene`` keeps S within the
    table."""
    s = f_av.shape[0]
    x = add(transpose(f_av, (1, 0, 2)), getitem(table, (slice(0, s),)))
    return transpose(sal_forward(x, sal), (1, 0, 2))


@dataclass
class InteractionRound(Module):
    sal_time: AttentionBlock | None      # None: the temporal stream ablated
    sal_speaker: AttentionBlock | None   # None: the speaker stream ablated
    cal_time: AttentionBlock
    cal_speaker: AttentionBlock


class DualStreamStack(Module):
    """The interaction rounds, the speaker-slot embedding and the output
    head, all at the fused width 2C.

    ``cfg.ablate_speaker`` / ``cfg.ablate_temporal`` replace the
    corresponding stream with the identity (the cross-stream exchange still
    runs), which is how the stream-contribution comparisons are produced.
    An ablated stream's blocks (and the speaker stream's slot embedding)
    are drawn, then dropped: every kept Parameter is the full model's at the
    same ``init_seed``, and the stack holds, trains and saves only what its
    forward runs.
    """

    def __init__(self, cfg: ModelConfig, rng):
        d = 2 * cfg.channels

        def block(r, tag, ablated=False):
            made = AttentionBlock(d, cfg.heads, cfg.mlp_ratio * d, rng,
                                  f"dual.r{r}.{tag}")
            return None if ablated else made

        # keyword arguments run left to right: the parameter draw order
        self.rounds = [InteractionRound(
            sal_time=block(r, "sal_time", cfg.ablate_temporal),
            sal_speaker=block(r, "sal_speaker", cfg.ablate_speaker),
            cal_time=block(r, "cal_time"), cal_speaker=block(r, "cal_speaker"))
            for r in range(cfg.rounds)]
        # one learnable row per speaker slot, added before speaker attention
        table = Parameter(init_uniform(rng, d, (cfg.s_max, d)),
                          "dual.speaker_emb.table")
        self.speaker_emb = None if cfg.ablate_speaker else table
        self.head_w = Parameter(init_uniform(rng, d, (d, 1)), "dual.head_w")
        self.head_b = Parameter(np.zeros(1), "dual.head_b")


def dual_forward(f_av: Tensor, stack: DualStreamStack) -> Tensor:
    """Run the interaction rounds and the linear head; returns raw logits [S, T].

    Each round: the temporal stream self-attends over T (S folded into the
    batch), the speaker stream over S, then each queries the other over T
    (mutual cross-attention, speakers in the batch).
    """
    s, t, _ = f_av.shape
    x_time = x_sub = f_av
    for rnd in stack.rounds:
        # an ablated stream (no block) passes its input on
        f_time = (x_time if rnd.sal_time is None
                  else sal_forward(x_time, rnd.sal_time))
        f_sub = (x_sub if rnd.sal_speaker is None else speaker_stream(
            x_sub, stack.speaker_emb, rnd.sal_speaker))
        x_time, x_sub = (cal_forward(f_time, f_sub, rnd.cal_time),
                         cal_forward(f_sub, f_time, rnd.cal_speaker))
    f_dual = add(x_time, x_sub)
    return reshape(linear(f_dual, stack.head_w, stack.head_b), (s, t))


def _input_size(name):
    """``GenConfig``'s size field ``name`` as a model knob: the same data.*
    key, default and range, declared once."""
    f = GenConfig.__dataclass_fields__[name]
    return knob(f.default, f.metadata["range"], key=f"data.{name}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters (widths, depth, capacity, init seed)."""

    channels: int = knob(16, SIZE)
    heads: int = knob(4, SIZE)
    mlp_ratio: int = knob(4, SIZE)
    rounds: int = knob(2, SIZE)
    s_max: int = knob(4, SIZE)
    vis_hidden: int = knob(32, SIZE)
    audio_hidden: int = knob(32, SIZE)
    # input sizes: the corpus's
    height: int = _input_size("height")
    width: int = _input_size("width")
    mel_bins: int = _input_size("mel_bins")
    init_seed: int = knob(0, NON_NEGATIVE)
    ablate_speaker: bool = False
    ablate_temporal: bool = False

    def __post_init__(self):
        check_ranges(self, ContractError)
        if self.channels % self.heads != 0:
            raise ContractError(
                f"channels {self.channels} must be divisible by heads {self.heads}")


@dataclass
class ModelOutput:
    """Everything one forward pass produces for training and evaluation."""

    scores: Tensor          # [S, T] fused-branch raw logits
    visual_logits: Tensor   # [S, T] auxiliary visual-branch logits
    audio_logits: Tensor    # [T] auxiliary any-speech logits
    audio_frames: Tensor    # [T, C] pre-fusion audio embedding
    visual_frames: Tensor   # [S, T, C] pre-fusion visual embedding


class ActiveSpeakerModel(Module):
    """Encoders, cross-modal fusion, dual-stream stack and output heads."""

    def __init__(self, cfg: ModelConfig):
        rng = np.random.default_rng(cfg.init_seed)
        c = cfg.channels
        self.visual_enc = VisualEncoder(cfg.height, cfg.width, c,
                                        cfg.vis_hidden, rng)
        self.audio_enc = AudioEncoder(cfg.mel_bins, c, cfg.audio_hidden, rng)
        self.cal_av = AttentionBlock(c, cfg.heads, cfg.mlp_ratio * c, rng,
                                     "fusion.cal_av")
        self.cal_va = AttentionBlock(c, cfg.heads, cfg.mlp_ratio * c, rng,
                                     "fusion.cal_va")
        self.stack = DualStreamStack(cfg, rng)
        self.head_v_w = Parameter(init_uniform(rng, c, (c, 1)), "heads.visual_w")
        self.head_v_b = Parameter(np.zeros(1), "heads.visual_b")
        self.head_a_w = Parameter(init_uniform(rng, c, (c, 1)), "heads.audio_w")
        self.head_a_b = Parameter(np.zeros(1), "heads.audio_b")

    def forward(self, visual: np.ndarray, audio: np.ndarray) -> ModelOutput:
        """One scene's [S, T, H, W, 1] crops and [4T, M] audio, which meet
        ``data.check_scene``, to logits and embeddings."""
        s, t = visual.shape[:2]
        f_v = self.visual_enc.forward(visual)
        audio_frames = self.audio_enc.frame_embedding(audio)
        c = audio_frames.shape[-1]
        # the scene audio repeated over the S speaker slots
        f_a = broadcast_to(audio_frames, (s, t, c))
        f_av = fuse(f_v, f_a, self.cal_av, self.cal_va)

        scores = dual_forward(f_av, self.stack)

        # channel halves of f_av: [0, C) is the cross-attended audio stream,
        # [C, 2C) the visual stream
        fa_tilde = getitem(f_av, (Ellipsis, slice(0, c)))
        fv_tilde = getitem(f_av, (Ellipsis, slice(c, 2 * c)))
        visual_logits = reshape(linear(fv_tilde, self.head_v_w, self.head_v_b), (s, t))
        audio_logits = reshape(
            linear(tmean(fa_tilde, axis=0), self.head_a_w, self.head_a_b), (t,))

        return ModelOutput(
            scores=scores,
            visual_logits=visual_logits,
            audio_logits=audio_logits,
            audio_frames=audio_frames,
            visual_frames=f_v,
        )
