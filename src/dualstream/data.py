"""Seeded synthetic multi-speaker scenario generator plus corpus I/O.

Each scenario couples S face-crop streams with one shared spectrogram.
Speaking spans come from independent two-state Markov chains, trimmed to a
hard concurrency cap with a small probability of keeping an overlap
(natural turn-taking).  Speaking frames add that slot's voice signature to
the audio; speaking OR distractor frames add a lip-motion oscillation to
the crop.  Distractor frames are the false-positive bait: full visual
motion, zero audio contribution.

Slot identities (voice signatures, face patterns, lip phases) are fixed
constants of the generator, independent of the corpus seed, so models
trained on one corpus transfer to any other.

Corpus container (little-endian, magic "D2SYN1"):
    u32 scene count, then per scene:
    u32 id length + utf-8 id, u32 x5 dims (S, T, H, W, M),
    float64 visual [S*T*H*W], float64 audio [4T*M],
    then labels / mask / distractor as one byte per cell, row-major.
    Scene ids are unique within a corpus: a (scene id, speaker, frame)
    triple names one cell.

``check_scene`` is the one contract a scene meets before any model sees
it; the encoders, the model and the gate rely on it and check nothing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, FormatError
from .ranges import AT_LEAST_1, NON_NEGATIVE, UNIT, check_ranges, knob

MAGIC = b"D2SYN1"

# audio steps per visual frame: the spectrogram runs at 4x the frame rate
STEPS_PER_FRAME = 4
FLAGS = ("labels", "mask", "distractor")

_LIP_AMPLITUDE = 1.2
_LIP_RATE = 0.23  # cycles per frame, away from sin zero-lattices
_FACE_SCALE = 0.6
_BASE_BAND_AMP = 1.0
_SLOT_BAND_AMP = 0.45
_DISTRACTOR_STAY = 0.7


@dataclass(frozen=True)
class GenConfig:
    """Knobs for one corpus: sizes, Markov dynamics, noise, distractors.

    Besides the Gaussian floor (``noise_std``), the audio carries short
    non-speech burst events: a voice signature's spectrum dumped into one
    or two of a frame's four audio steps, amplified so the frame-rate MEAN
    matches sustained speech.  Only the within-frame step pattern reveals
    them, which is exactly the evidence mean-pooling destroys.  Bursts are
    part of the noise model: noise_std = 0 yields clean audio with no
    bursts.
    """

    seed: int = 0
    speakers: int = knob(3, AT_LEAST_1)
    frames: int = knob(12, AT_LEAST_1)
    height: int = knob(8, AT_LEAST_1)
    width: int = knob(8, AT_LEAST_1)
    mel_bins: int = knob(13, AT_LEAST_1)
    p_on_on: float = knob(0.9, UNIT)
    p_off_on: float = knob(0.08, UNIT)
    distractor_rate: float = knob(0.12, UNIT)
    noise_std: float = knob(0.3, NON_NEGATIVE)
    burst_rate: float = knob(0.08, UNIT)
    burst_amp: float = knob(1.0, NON_NEGATIVE)
    max_concurrent: int = knob(2, AT_LEAST_1)
    overlap_rate: float = knob(0.05, UNIT)

    def __post_init__(self):
        check_ranges(self, ConfigError)


@dataclass
class Scenario:
    """One synthetic clip with ground truth."""

    scene_id: str
    visual: np.ndarray      # [S, T, H, W, 1] float64
    audio: np.ndarray       # [STEPS_PER_FRAME * T, M] float64
    labels: np.ndarray      # {0,1} [S, T] uint8
    mask: np.ndarray        # {0,1} [S, T] uint8
    distractor: np.ndarray  # {0,1} [S, T] uint8


def frame_steps(audio: np.ndarray) -> np.ndarray:
    """[4T, M] audio as a [T, 4, M] view: the steps of each visual frame."""
    steps, m = audio.shape
    return audio.reshape(steps // STEPS_PER_FRAME, STEPS_PER_FRAME, m)


def check_scene(scene: Scenario, s_max, height, width, mel_bins) -> None:
    """The scene contract: 1 <= S <= s_max speakers, T >= 1 frames,
    height x width crops, mel_bins audio bins, finite visual and audio
    values, and flags of 0 or 1.  The array shapes agree with each other by
    construction (``read_corpus``, ``generate_scene``).  Raises
    DimensionError or ContractError naming the scene."""
    s, t, h, w, _ = scene.visual.shape
    has = (s, h, w, scene.audio.shape[1])
    fits = (s_max, height, width, mel_bins)
    if s < 1 or t < 1:
        raise DimensionError(
            f"scene {scene.scene_id}: {s} speakers x {t} frames; a scene "
            f"needs at least one of each")
    if has[0] > fits[0] or has[1:] != fits[1:]:
        raise DimensionError(
            "scene {}: {} speakers, {}x{} crops, {} mel bins; the configured "
            "model takes at most {} speakers, {}x{} crops, {} mel bins"
            .format(scene.scene_id, *has, *fits))
    for name in ("visual", "audio"):
        if not np.isfinite(getattr(scene, name)).all():
            raise ContractError(
                f"scene {scene.scene_id}: non-finite {name} values")
    for name in FLAGS:
        cells = getattr(scene, name)
        bad = cells[(cells != 0) & (cells != 1)]
        if bad.size:
            raise ContractError(
                f"scene {scene.scene_id}: {name} must be 0 or 1, got {bad[0]}")


def slot_signature(slot: int, mel_bins: int) -> np.ndarray:
    """Voice signature of one speaker slot: a shared low band plus a
    slot-specific band.  The slot -> band mapping is a fixed constant of
    the generator, so it is the one association a model can learn and
    carry across corpora; faces are randomized per scene and carry no
    identity."""
    sig = np.zeros(mel_bins)
    base = max(1, mel_bins // 4)
    sig[:base] = _BASE_BAND_AMP
    width = 3
    start = base + (slot * width) % max(1, mel_bins - base)
    for k in range(width):
        sig[base + (start - base + k) % (mel_bins - base)] += _SLOT_BAND_AMP
    return sig


def _lip_mask(height: int, width: int) -> np.ndarray:
    m = np.zeros((height, width))
    m[2 * height // 3:, width // 4: width - width // 4] = 1.0
    return m


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


def generate_scene(cfg: GenConfig, index: int) -> Scenario:
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


def generate(cfg: GenConfig, n_scenes: int) -> list[Scenario]:
    """Generate ``n_scenes`` scenarios; scene i depends only on (seed, i),
    so parallel and serial generation agree bit for bit."""
    if n_scenes < 1:
        raise ConfigError(f"n_scenes must be >= 1, got {n_scenes}")
    return [generate_scene(cfg, i) for i in range(n_scenes)]


# ---------------------------------------------------------------------------
# corpus container


class ByteReader:
    """Little-endian byte cursor; truncation errors name the artifact
    (corpus, checkpoint) and the offset."""

    def __init__(self, blob, what):
        self.blob = blob
        self.what = what
        self.offset = 0

    def take(self, n):
        if self.offset + n > len(self.blob):
            raise FormatError(
                f"{self.what} truncated at offset {self.offset}: "
                f"needed {n} bytes, had {len(self.blob) - self.offset}")
        out = self.blob[self.offset: self.offset + n]
        self.offset += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def text(self, what):
        """A u32 length, then that many bytes of UTF-8 text."""
        start = self.offset
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{self.what} {what} at offset {start} is not UTF-8: "
                f"{exc.reason}") from None

    def f64s(self, count):
        return np.frombuffer(self.take(8 * count), dtype="<f8").copy()

    def bytes_array(self, count):
        return np.frombuffer(self.take(count), dtype=np.uint8).copy()


def write_corpus(scenes: list[Scenario], path) -> None:
    if not scenes:
        raise ContractError("refusing to write an empty corpus")
    chunks = [MAGIC, struct.pack("<I", len(scenes))]
    for sc in scenes:
        sid = sc.scene_id.encode("utf-8")
        s, t = sc.labels.shape
        h, w = sc.visual.shape[2], sc.visual.shape[3]
        m = sc.audio.shape[1]
        chunks.append(struct.pack("<I", len(sid)))
        chunks.append(sid)
        chunks.append(struct.pack("<5I", s, t, h, w, m))
        chunks.append(np.ascontiguousarray(sc.visual, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(sc.audio, dtype="<f8").tobytes())
        for tensor in (sc.labels, sc.mask, sc.distractor):
            chunks.append(np.ascontiguousarray(tensor, dtype=np.uint8).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def read_corpus(path) -> list[Scenario]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0:
        raise FormatError(f"empty corpus file: {path}")
    r = ByteReader(blob, "corpus")
    magic = bytes(r.take(len(MAGIC)))
    if magic != MAGIC:
        raise FormatError(
            f"bad corpus magic: expected {MAGIC!r}, got {magic!r}")
    count = r.u32()
    if count == 0:
        raise FormatError(f"corpus contains zero scenes: {path}")
    scenes = []
    first = {}  # scene id -> index of the scene that has it
    for index in range(count):
        sid = r.text(f"scene {index}: id")
        if first.setdefault(sid, index) != index:
            raise FormatError(f"corpus scene {index}: duplicate id {sid} "
                              f"(first at scene {first[sid]})")
        s, t, h, w, m = struct.unpack("<5I", r.take(20))
        visual = r.f64s(s * t * h * w).reshape(s, t, h, w, 1)
        steps = STEPS_PER_FRAME * t
        audio = r.f64s(steps * m).reshape(steps, m)
        flags = [r.bytes_array(s * t).reshape(s, t) for _ in FLAGS]
        scenes.append(Scenario(sid, visual, audio, *flags))
    if r.offset != len(blob):
        raise FormatError(
            f"trailing data after last scene at offset {r.offset}")
    return scenes
