"""Synthetic scenario generator and the binary corpus container."""

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from dualstream.cli import TINY
from dualstream.config import RunConfig
from dualstream.data import (FLAGS, STEPS_PER_FRAME, GenConfig, check_scene,
                             frame_steps, generate, generate_scene, read_corpus,
                             slot_signature, write_corpus)
from dualstream.errors import ConfigError, ContractError, DimensionError, FormatError


def frame_energy(audio, t):
    return float((audio[4 * t: 4 * t + 4] ** 2).sum(axis=1).mean())


class TestGenerate:
    def test_deterministic_replay(self):
        cfg = GenConfig(seed=11)
        first = generate(cfg, 5)
        second = generate(cfg, 5)
        for a, b in zip(first, second):
            assert a.scene_id == b.scene_id
            assert (a.visual == b.visual).all()
            assert (a.audio == b.audio).all()
            assert (a.labels == b.labels).all()
            assert (a.mask == b.mask).all()
            assert (a.distractor == b.distractor).all()

    def test_scene_depends_only_on_seed_and_index(self):
        cfg = GenConfig(seed=11)
        direct = generate_scene(cfg, 3)
        from_batch = generate(cfg, 5)[3]
        assert (direct.visual == from_batch.visual).all()
        assert (direct.audio == from_batch.audio).all()

    def test_distractor_rate_zero_disables(self):
        scenes = generate(GenConfig(seed=1, distractor_rate=0.0), 10)
        assert all((sc.distractor == 0).all() for sc in scenes)

    def test_noiseless_single_speaker_audio_is_tiled_signature(self):
        cfg = GenConfig(seed=2, speakers=1, frames=6, noise_std=0.0,
                        p_on_on=1.0, p_off_on=1.0, distractor_rate=0.0)
        scene = generate_scene(cfg, 0)
        assert (scene.labels == 1).all()
        sig = slot_signature(0, cfg.mel_bins)
        npt.assert_array_equal(scene.audio, np.tile(sig, (24, 1)))

    def test_invariants(self):
        scenes = generate(GenConfig(seed=3, frames=20), 20)
        for sc in scenes:
            assert set(np.unique(sc.labels)) <= {0, 1}
            # labels only where the slot is valid
            assert (sc.labels <= sc.mask).all()
            # distractor never on a speaking cell
            assert (sc.distractor * sc.labels == 0).all()
            # hard concurrency cap
            assert (sc.labels.sum(axis=0) <= 2).all()

    def test_mask_rows_are_full_slots(self):
        scenes = generate(GenConfig(seed=4), 40)
        saw_padded = False
        for sc in scenes:
            per_slot = sc.mask.sum(axis=1)
            assert ((per_slot == 0) | (per_slot == sc.mask.shape[1])).all()
            saw_padded = saw_padded or (per_slot == 0).any()
        assert saw_padded  # some scenes exercise padded slots

    def test_label_rate_converges_to_chain_stationary(self):
        # cap disabled (max_concurrent = S, overlap always kept) so the raw
        # chain statistics survive trimming
        cfg = GenConfig(seed=5, speakers=2, frames=100, max_concurrent=2,
                        overlap_rate=1.0, p_on_on=0.9, p_off_on=0.08)
        scenes = generate(cfg, 100)
        labels = np.concatenate([sc.labels for sc in scenes], axis=1)
        mask = np.concatenate([sc.mask for sc in scenes], axis=1)
        stationary = 0.08 / (0.08 + 0.1)
        rate = labels.sum() / mask.sum()
        assert abs(rate - stationary) <= 0.05

    def test_speech_frames_carry_more_audio_energy(self):
        # the stationary noise floor only; burst events are a separate knob
        cfg = GenConfig(seed=6, frames=30, noise_std=0.2, burst_rate=0.0)
        scenes = generate(cfg, 20)
        speech, silence = [], []
        for sc in scenes:
            active = sc.labels.sum(axis=0) > 0
            for t in range(cfg.frames):
                (speech if active[t] else silence).append(
                    frame_energy(sc.audio, t))
        assert np.quantile(speech, 0.05) > np.quantile(silence, 0.95)

    def test_distractor_motion_speechlike_but_silent(self):
        cfg = GenConfig(seed=7, frames=40, noise_std=0.05,
                        distractor_rate=0.3, burst_rate=0.0)
        scenes = generate(cfg, 15)
        lip = slice(5, 8)

        def motion(sc, s, t):
            a = sc.visual[s, t, lip, :, 0]
            b = sc.visual[s, t - 1, lip, :, 0]
            return float(((a - b) ** 2).mean())

        speak_motion, distract_motion = [], []
        distract_silent_energy, silence_energy = [], []
        for sc in scenes:
            active_any = sc.labels.sum(axis=0) > 0
            distract_any = sc.distractor.sum(axis=0) > 0
            for s in range(cfg.speakers):
                for t in range(1, cfg.frames):
                    if sc.labels[s, t] and sc.labels[s, t - 1]:
                        speak_motion.append(motion(sc, s, t))
                    if sc.distractor[s, t] and sc.distractor[s, t - 1]:
                        distract_motion.append(motion(sc, s, t))
            for t in range(cfg.frames):
                if not active_any[t]:
                    e = frame_energy(sc.audio, t)
                    if distract_any[t]:
                        distract_silent_energy.append(e)
                    else:
                        silence_energy.append(e)

        m_speak = np.median(speak_motion)
        m_dis = np.median(distract_motion)
        assert m_dis <= 2.0 * m_speak and m_speak <= 2.0 * m_dis
        # audio on distractor-only frames looks like silence
        assert abs(np.median(distract_silent_energy) - np.median(silence_energy)) \
            <= 0.5 * np.median(silence_energy) + 0.05

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigError):
            GenConfig(p_on_on=1.5)
        with pytest.raises(ConfigError):
            GenConfig(noise_std=-1.0)

    def test_zero_scenes_rejected(self):
        with pytest.raises(ConfigError):
            generate(GenConfig(), 0)


# regimes in which the generator must give the loop form's bytes: the
# defaults, the benchmark's shapes, and each branch the defaults rarely or
# never reach (overlaps kept up to the cap, silent or always-on chains,
# padded-slot-free and single-frame scenes, the smallest crops and bins)
ORACLE_REGIMES = {
    "defaults": GenConfig(),
    "4x48": GenConfig(speakers=4, frames=48),
    "cli-tiny": RunConfig(TINY).gen_config(),
    "overlap-cap2": GenConfig(overlap_rate=1.0),
    "overlap-cap3-s4": GenConfig(speakers=4, overlap_rate=1.0,
                                 max_concurrent=3),
    "cap1": GenConfig(max_concurrent=1),
    "noiseless": GenConfig(noise_std=0.0),
    "bursts-always": GenConfig(burst_rate=1.0),
    "no-distractors": GenConfig(distractor_rate=0.0),
    "distractors-always": GenConfig(distractor_rate=1.0),
    "chains-off": GenConfig(p_on_on=0.0, p_off_on=0.0),
    "chains-on": GenConfig(p_on_on=1.0, p_off_on=1.0),
    "mel2": GenConfig(mel_bins=2),
    "mel3": GenConfig(mel_bins=3),
    "1x1-crops": GenConfig(height=1, width=1),
    "s1-t1": GenConfig(speakers=1, frames=1),
    "s4-t1": GenConfig(speakers=4, frames=1),
}


class TestLoopFormOracle:
    @pytest.mark.parametrize("regime", ORACLE_REGIMES)
    def test_same_bytes_as_loop_form(self, regime):
        cfg = ORACLE_REGIMES[regime]
        for index in range(50):
            new = generate_scene(cfg, index)
            old = oracles.generate_scene(cfg, index)
            assert new.scene_id == old.scene_id
            for name in ("visual", "audio", *FLAGS):
                a, b = getattr(new, name), getattr(old, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), (index, name)

    @pytest.mark.parametrize("regime,cap", [("overlap-cap2", 2),
                                            ("overlap-cap3-s4", 3),
                                            ("cap1", 1)])
    def test_overlap_regimes_reach_their_cap(self, regime, cap):
        scenes = generate(ORACLE_REGIMES[regime], 50)
        assert max(int(sc.labels.sum(axis=0).max()) for sc in scenes) == cap


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        scenes = generate(GenConfig(seed=8), 4)
        path = tmp_path / "corpus.bin"
        write_corpus(scenes, path)
        loaded = read_corpus(path)
        assert len(loaded) == 4
        for a, b in zip(scenes, loaded):
            assert a.scene_id == b.scene_id
            assert (a.visual == b.visual).all()
            assert (a.audio == b.audio).all()
            assert (a.labels == b.labels).all()
            assert (a.mask == b.mask).all()
            assert (a.distractor == b.distractor).all()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="empty corpus"):
            read_corpus(path)

    def test_empty_scene_list_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="empty corpus"):
            write_corpus([], tmp_path / "x.bin")

    def test_corrupted_magic_names_expected_and_actual(self, tmp_path):
        scenes = generate(GenConfig(seed=9), 2)
        path = tmp_path / "corpus.bin"
        write_corpus(scenes, path)
        blob = bytearray(path.read_bytes())
        blob[:6] = b"BOGUS!"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"D2SYN1.*BOGUS!"):
            read_corpus(path)

    def test_truncation_reports_offset(self, tmp_path):
        scenes = generate(GenConfig(seed=10), 2)
        path = tmp_path / "corpus.bin"
        write_corpus(scenes, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="offset"):
            read_corpus(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        scenes = generate(GenConfig(seed=10), 1)
        path = tmp_path / "corpus.bin"
        write_corpus(scenes, path)
        path.write_bytes(path.read_bytes() + b"JUNK")
        with pytest.raises(FormatError, match="trailing"):
            read_corpus(path)

    def test_zero_scene_count_rejected(self, tmp_path):
        path = tmp_path / "zero.bin"
        path.write_bytes(b"D2SYN1" + b"\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="zero scenes"):
            read_corpus(path)


# a one-scene corpus small enough to corrupt at every byte
TINY = GenConfig(seed=4, speakers=1, frames=1, height=2, width=2, mel_bins=2)


def test_frame_steps_is_a_view_of_consecutive_steps():
    audio = np.arange(24.0).reshape(12, 2)
    grouped = frame_steps(audio)
    assert grouped.shape == (3, STEPS_PER_FRAME, 2)
    npt.assert_array_equal(grouped[1], audio[4:8])
    assert np.shares_memory(grouped, audio)


class TestCorruptCorpus:
    """Every damaged corpus fails with a documented error, never another
    exception: cut at every offset, and 0xff written at every offset."""

    def blob(self, tmp_path):
        path = tmp_path / "one.bin"
        write_corpus(generate(TINY, 1), path)
        return path.read_bytes()

    def test_truncation_at_every_offset(self, tmp_path):
        blob = self.blob(tmp_path)
        path = tmp_path / "cut.bin"
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(FormatError):
                read_corpus(path)

    def test_0xff_at_every_offset(self, tmp_path):
        blob = self.blob(tmp_path)
        path = tmp_path / "hit.bin"
        seen = set()
        for offset in range(len(blob)):
            hit = bytearray(blob)
            hit[offset] = 0xFF
            path.write_bytes(bytes(hit))
            try:
                for scene in read_corpus(path):
                    check_scene(scene, s_max=1, height=2, width=2, mel_bins=2)
                seen.add("valid")
            except (FormatError, DimensionError, ContractError) as exc:
                seen.add(type(exc).__name__)
        # bytes of the id, the floats and the flags all get hit
        assert seen == {"FormatError", "ContractError", "valid"}

    def test_non_utf8_id_names_the_scene(self, tmp_path):
        blob = bytearray(self.blob(tmp_path))
        blob[blob.index(b"scene00000")] = 0xFF
        path = tmp_path / "id.bin"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="corpus scene 0: id at offset 10 "
                                              "is not UTF-8"):
            read_corpus(path)
