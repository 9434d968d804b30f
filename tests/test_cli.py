"""Command pipeline: determinism, exit codes, checkpoint fidelity."""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from dualstream.cli import _build_gate_net, gradcheck_inputs, main
from dualstream.config import RunConfig, load_config
from dualstream.data import GenConfig, generate, generate_scene, read_corpus, write_corpus
from dualstream.errors import ContractError, DimensionError, FormatError
from dualstream.evaluation import read_predictions
from dualstream.gate import ConfidenceNet
from dualstream.model import ActiveSpeakerModel, ModelConfig
from dualstream.tensor import Parameter
from dualstream.train import (CKPT_MAGIC, apply_checkpoint, load_checkpoint,
                              save_checkpoint)

# small-but-real sizes so the whole pipeline runs in well under a minute
TINY = [
    "--set", "data.speakers=2", "--set", "data.frames=6",
    "--set", "data.height=4", "--set", "data.width=4",
    "--set", "data.mel_bins=8", "--set", "model.channels=8",
    "--set", "model.heads=2", "--set", "model.rounds=1",
    "--set", "model.s_max=2", "--set", "model.vis_hidden=8",
    "--set", "model.audio_hidden=8", "--set", "gate.conv_hidden=4",
    "--set", "gate.rnn_hidden=4", "--set", "gate.epochs=2",
    "--set", "train.epochs=3",
]


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One trained tiny pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "train.bin"
    held = root / "held.bin"
    ckpt = root / "model.ckpt"
    assert run(*TINY, "gen-data", "--seed", "7", "--scenes", "12",
               "--out", str(corpus)) == 0
    assert run(*TINY, "gen-data", "--seed", "1000", "--scenes", "6",
               "--out", str(held)) == 0
    assert run(*TINY, "train", "--corpus", str(corpus),
               "--out", str(ckpt)) == 0
    return root, corpus, held, ckpt


class TestGenData:
    def test_same_seed_same_checksum(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert run(*TINY, "gen-data", "--seed", "7", "--scenes", "5",
                   "--out", str(a)) == 0
        assert run(*TINY, "gen-data", "--seed", "7", "--scenes", "5",
                   "--out", str(b)) == 0
        assert sha(a) == sha(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        run(*TINY, "gen-data", "--seed", "7", "--scenes", "5", "--out", str(a))
        run(*TINY, "gen-data", "--seed", "8", "--scenes", "5", "--out", str(b))
        assert sha(a) != sha(b)

    def test_zero_scenes_refused(self, tmp_path):
        assert run(*TINY, "gen-data", "--scenes", "0",
                   "--out", str(tmp_path / "x.bin")) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        assert run("--set", "bogus.key=1", "gen-data", "--scenes", "2",
                   "--out", str(tmp_path / "x.bin")) == 1


class TestTrain:
    def test_log_and_checkpoint_written(self, pipeline):
        root, corpus, held, ckpt = pipeline
        log = (ckpt.parent / (ckpt.name + ".log")).read_text().splitlines()
        assert log[0] == "epoch,total,l_av,l_v,l_a,l_con"
        assert len(log) == 4  # header + 3 epochs
        first = float(log[1].split(",")[1])
        last = float(log[-1].split(",")[1])
        assert last < first  # fixed-step descent makes progress

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert run(*TINY, "train", "--corpus", str(tmp_path / "nope.bin"),
                   "--out", str(tmp_path / "m.ckpt")) == 2

    def test_all_loss_weights_zero_is_usage_error_before_any_work(self, tmp_path):
        zeros = [a for k in ("w_av", "w_v", "w_a", "w_con")
                 for a in ("--set", f"loss.{k}=0")]
        # the corpus does not exist: reading it would be a data error (2)
        assert run(*TINY, *zeros, "train", "--corpus", str(tmp_path / "nope.bin"),
                   "--out", str(tmp_path / "m.ckpt")) == 1
        assert not (tmp_path / "m.ckpt.log").exists()

    def test_fixed_seed_reproduces_loss_curve(self, pipeline, tmp_path):
        root, corpus, held, ckpt = pipeline
        out = tmp_path / "again.ckpt"
        assert run(*TINY, "train", "--corpus", str(corpus),
                   "--out", str(out)) == 0
        assert (out.parent / (out.name + ".log")).read_bytes() == \
               (ckpt.parent / (ckpt.name + ".log")).read_bytes()
        assert sha(out) == sha(ckpt)

    def test_checkpoint_reproduces_forward_scores(self, pipeline):
        root, corpus, held, ckpt = pipeline
        cfg = RunConfig({"data.speakers": 2, "data.frames": 6,
                         "data.height": 4, "data.width": 4,
                         "data.mel_bins": 8, "model.channels": 8,
                         "model.heads": 2, "model.rounds": 1,
                         "model.s_max": 2, "model.vis_hidden": 8,
                         "model.audio_hidden": 8})
        scenes = read_corpus(corpus)
        tensors = load_checkpoint(ckpt)
        model = ActiveSpeakerModel(cfg.model_config())
        model_tensors = {k: v for k, v in tensors.items()
                         if not k.startswith("gate.")}
        apply_checkpoint(model.parameters(), model_tensors)
        out1 = model.forward(scenes[0].visual, scenes[0].audio).scores.data
        model2 = ActiveSpeakerModel(cfg.model_config())
        apply_checkpoint(model2.parameters(), model_tensors)
        out2 = model2.forward(scenes[0].visual, scenes[0].audio).scores.data
        assert (out1 == out2).all()


class TestEval:
    def test_deterministic_outputs(self, pipeline, tmp_path):
        root, corpus, held, ckpt = pipeline
        for tag in ("a", "b"):
            assert run(*TINY, "eval", "--corpus", str(held),
                       "--model", str(ckpt),
                       "--predictions", str(tmp_path / f"{tag}.csv"),
                       "--metrics", str(tmp_path / f"{tag}.txt"),
                       "--gate", "off") == 0
        assert sha(tmp_path / "a.csv") == sha(tmp_path / "b.csv")
        assert sha(tmp_path / "a.txt") == sha(tmp_path / "b.txt")

    def test_gamma_zero_gate_equals_gate_off(self, pipeline, tmp_path):
        root, corpus, held, ckpt = pipeline
        assert run(*TINY, "--set", "gate.gamma=0.0", "eval",
                   "--corpus", str(held), "--model", str(ckpt),
                   "--predictions", str(tmp_path / "on.csv"),
                   "--metrics", str(tmp_path / "on.txt"),
                   "--gate", "on") == 0
        assert run(*TINY, "eval", "--corpus", str(held),
                   "--model", str(ckpt),
                   "--predictions", str(tmp_path / "off.csv"),
                   "--metrics", str(tmp_path / "off.txt"),
                   "--gate", "off") == 0
        assert sha(tmp_path / "on.csv") == sha(tmp_path / "off.csv")

    def test_predictions_cover_masked_cells_once(self, pipeline, tmp_path):
        root, corpus, held, ckpt = pipeline
        assert run(*TINY, "eval", "--corpus", str(held), "--model", str(ckpt),
                   "--predictions", str(tmp_path / "p.csv"),
                   "--metrics", str(tmp_path / "m.txt")) == 0
        records = read_predictions(tmp_path / "p.csv")
        keys = [(r.scene_id, r.speaker_idx, r.frame_idx) for r in records]
        assert len(keys) == len(set(keys))
        scenes = read_corpus(held)
        assert len(records) == int(sum(sc.mask.sum() for sc in scenes))

    def test_corrupt_corpus_is_data_error(self, pipeline, tmp_path):
        root, corpus, held, ckpt = pipeline
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 50)
        assert run(*TINY, "eval", "--corpus", str(bad), "--model", str(ckpt),
                   "--predictions", str(tmp_path / "p.csv"),
                   "--metrics", str(tmp_path / "m.txt")) == 2

    def test_non_utf8_checkpoint_name_is_data_error(self, pipeline, tmp_path,
                                                    capsys):
        root, corpus, held, ckpt = pipeline
        blob = bytearray(ckpt.read_bytes())
        blob[len(CKPT_MAGIC) + 8] = 0xFF  # first byte of the first name
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        assert run(*TINY, "eval", "--corpus", str(held), "--model", str(bad),
                   "--predictions", str(tmp_path / "p.csv"),
                   "--metrics", str(tmp_path / "m.txt")) == 2
        assert "checkpoint tensor 0: name" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("fault", ["nan", "inf", "duplicate"])
    def test_bad_checkpoint_tensor_is_data_error(self, pipeline, tmp_path,
                                                 capsys, fault):
        """A non-finite value or a repeated name is refused, naming the
        tensor, before any output is written."""
        root, corpus, held, ckpt = pipeline
        bad = tmp_path / "bad.ckpt"
        if fault == "duplicate":
            # the checkpoint's tensors, then dual.head_b once more
            save_checkpoint({"dual.head_b": np.zeros(1)}, bad)
            blob = ckpt.read_bytes()
            count = struct.unpack_from("<I", blob, len(CKPT_MAGIC))[0]
            bad.write_bytes(CKPT_MAGIC + struct.pack("<I", count + 1)
                            + blob[len(CKPT_MAGIC) + 4:]
                            + bad.read_bytes()[len(CKPT_MAGIC) + 4:])
            message = "checkpoint tensor dual.head_b appears twice"
        else:
            tensors = load_checkpoint(ckpt)
            tensors["dual.head_b"][0] = np.nan if fault == "nan" else -np.inf
            save_checkpoint(tensors, bad)
            message = "checkpoint tensor dual.head_b has non-finite values"
        assert run(*TINY, "eval", "--corpus", str(held), "--model", str(bad),
                   "--predictions", str(tmp_path / "p.csv"),
                   "--metrics", str(tmp_path / "m.txt")) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()
        assert not (tmp_path / "m.txt").exists()

    def test_checkpoint_model_mismatch_is_data_error(self, pipeline, tmp_path):
        root, corpus, held, ckpt = pipeline
        # a checkpoint holding the wrong tensor set
        save_checkpoint({"wrong.tensor": np.zeros((2, 2))},
                        tmp_path / "bad.ckpt")
        assert run(*TINY, "eval", "--corpus", str(held),
                   "--model", str(tmp_path / "bad.ckpt"),
                   "--predictions", str(tmp_path / "p.csv"),
                   "--metrics", str(tmp_path / "m.txt")) == 2


class TestGradcheckCommand:
    def test_passes_and_deterministic(self, capsys):
        assert run("gradcheck") == 0
        first = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("overall")]
        assert run("gradcheck") == 0
        second = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("overall")]
        assert first == second


class TestCorpusShapes:
    """train and eval hold every scene to data.check_scene (data.height,
    data.width, data.mel_bins, model.s_max, S and T >= 1, finite values,
    0/1 flags) and read ids as unique UTF-8, before any work, and exit 2."""

    # each malformed scene and the start of the error that names it
    NAMED = {
        "mel_bins": "scene odd-mel_bins: 2 speakers, 4x4 crops, 13 mel bins",
        "crop": "scene odd-crop: 2 speakers, 5x4 crops, 8 mel bins",
        "speakers": "scene odd-speakers: 3 speakers, 4x4 crops, 8 mel bins",
        "no_speakers": "scene odd-no_speakers: 0 speakers x 6 frames",
        "no_frames": "scene odd-no_frames: 2 speakers x 0 frames",
        "visual_nan": "scene odd-visual_nan: non-finite visual values",
        "visual_inf": "scene odd-visual_inf: non-finite visual values",
        "audio_nan": "scene odd-audio_nan: non-finite audio values",
        "audio_inf": "scene odd-audio_inf: non-finite audio values",
        "labels": "scene odd-labels: labels must be 0 or 1, got 2",
        "mask": "scene odd-mask: mask must be 0 or 1, got 7",
        "distractor": "scene odd-distractor: distractor must be 0 or 1, got 5",
        "utf8_id": "corpus scene 3: id at offset",
        "duplicate_id": "corpus scene 4: duplicate id odd-duplicate_id "
                        "(first at scene 3)",
    }

    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpora")
        tiny = GenConfig(seed=3, speakers=2, frames=6, height=4, width=4,
                         mel_bins=8)
        good = generate(tiny, 3)
        base = generate_scene(tiny, 0)

        def poked(name, value):
            arr = getattr(base, name).copy()
            arr.reshape(-1)[7] = value
            return replace(base, **{name: arr})

        odd = {"mel_bins": generate_scene(replace(tiny, mel_bins=13), 0),
               "crop": generate_scene(replace(tiny, height=5), 0),
               "speakers": generate_scene(replace(tiny, speakers=3), 0),
               "no_speakers": replace(base, visual=base.visual[:0],
                                      labels=base.labels[:0], mask=base.mask[:0],
                                      distractor=base.distractor[:0]),
               "no_frames": replace(base, visual=base.visual[:, :0],
                                    audio=base.audio[:0], labels=base.labels[:, :0],
                                    mask=base.mask[:, :0],
                                    distractor=base.distractor[:, :0]),
               "visual_nan": poked("visual", np.nan),
               "visual_inf": poked("visual", np.inf),
               "audio_nan": poked("audio", np.nan),
               "audio_inf": poked("audio", -np.inf),
               "labels": poked("labels", 2),
               "mask": poked("mask", 7),
               "distractor": poked("distractor", 5),
               "utf8_id": base,
               "duplicate_id": base}
        paths = {}
        for tag, scene in odd.items():
            # a bad scene after good ones, so checking the first is not enough
            scene = replace(scene, scene_id=f"odd-{tag}")
            paths[tag] = root / f"mixed-{tag}.bin"
            twice = 2 if tag == "duplicate_id" else 1
            write_corpus(good + [scene] * twice, paths[tag])
        blob = bytearray(paths["utf8_id"].read_bytes())
        blob[blob.index(b"odd-utf8_id")] = 0xFF
        paths["utf8_id"].write_bytes(bytes(blob))
        return paths

    @pytest.mark.parametrize("tag", NAMED)
    def test_mixed_corpus_train(self, corpora, tag, tmp_path, capsys):
        assert run(*TINY, "train", "--corpus", str(corpora[tag]),
                   "--out", str(tmp_path / "m.ckpt")) == 2
        assert f"error: {self.NAMED[tag]}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt.log").exists()
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("tag", NAMED)
    def test_mixed_corpus_eval(self, pipeline, corpora, tag, tmp_path, capsys):
        ckpt = pipeline[3]
        assert run(*TINY, "eval", "--corpus", str(corpora[tag]),
                   "--model", str(ckpt),
                   "--predictions", str(tmp_path / "p.csv"),
                   "--metrics", str(tmp_path / "m.txt")) == 2
        assert f"error: {self.NAMED[tag]}" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mel_bins_corpus_against_default_mel_bins(self, pipeline, command,
                                                      tmp_path, capsys):
        """A data.mel_bins=8 corpus under the default data.mel_bins (13);
        eval gets a checkpoint that fits the configured model."""
        root, corpus, held, ckpt = pipeline
        wrong = [*TINY, "--set", "data.mel_bins=13"]
        if command == "train":
            argv = ["train", "--corpus", str(corpus),
                    "--out", str(tmp_path / "m.ckpt")]
        else:
            cfg = load_config(None, dict(kv.split("=") for kv in wrong[1::2]))
            params = (ActiveSpeakerModel(cfg.model_config()).parameters()
                      + _build_gate_net(cfg).parameters())
            fits = tmp_path / "fits.ckpt"
            save_checkpoint({p.name: p.data for p in params}, fits)
            argv = ["eval", "--corpus", str(held), "--model", str(fits),
                    "--predictions", str(tmp_path / "p.csv"),
                    "--metrics", str(tmp_path / "m.txt")]
        assert run(*wrong, *argv) == 2
        assert "scene scene00000: 2 speakers, 4x4 crops, 8 mel bins" in \
            capsys.readouterr().err


class TestGradcheckModel:
    """The model, gate and scene `gradcheck` audits, pinned."""

    def test_parameters_pinned(self):
        scene, model, gate_net = gradcheck_inputs(0)
        params = model.parameters() + gate_net.parameters()
        assert len(params) == 187
        assert sum(p.data.size for p in params) == 28732
        shapes = {p.name: p.data.shape for p in params}
        assert len(shapes) == 187
        for block, d in (("fusion.cal_av", 8), ("fusion.cal_va", 8),
                         *((f"dual.r{r}.{tag}", 16) for r in range(2)
                           for tag in ("sal_time", "sal_speaker",
                                       "cal_time", "cal_speaker"))):
            for tag in "qkvo":
                assert shapes.pop(f"{block}.{tag}_w") == (d, d)
                assert shapes.pop(f"{block}.{tag}_b") == (d,)
            assert shapes.pop(f"{block}.mlp1_w") == (d, 4 * d)
            assert shapes.pop(f"{block}.mlp1_b") == (4 * d,)
            assert shapes.pop(f"{block}.mlp2_w") == (4 * d, d)
            assert shapes.pop(f"{block}.mlp2_b") == (d,)
            for tag in ("ln1_g", "ln1_b", "ln2_g", "ln2_b"):
                assert shapes.pop(f"{block}.{tag}") == (d,)
        assert shapes == {
            "visual_enc.w1": (16, 8), "visual_enc.b1": (8,),
            "visual_enc.w2": (8, 8), "visual_enc.b2": (8,),
            "audio_enc.w1": (8, 8), "audio_enc.b1": (8,),
            "audio_enc.w2": (8, 8), "audio_enc.b2": (8,),
            "dual.speaker_emb.table": (2, 16),
            "dual.head_w": (16, 1), "dual.head_b": (1,),
            "heads.visual_w": (8, 1), "heads.visual_b": (1,),
            "heads.audio_w": (8, 1), "heads.audio_b": (1,),
            "gate.conv1_w": (3, 16, 4), "gate.conv1_b": (4,),
            "gate.conv2_w": (3, 4, 4), "gate.conv2_b": (4,),
            "gate.rnn_fwd_wx": (4, 4), "gate.rnn_fwd_wh": (4, 4),
            "gate.rnn_fwd_b": (4,), "gate.rnn_bwd_wx": (4, 4),
            "gate.rnn_bwd_wh": (4, 4), "gate.rnn_bwd_b": (4,),
            "gate.out_w": (8, 1), "gate.out_b": (1,),
        }

    def test_scene_pinned(self):
        scene, _model, _gate = gradcheck_inputs(0)
        assert scene.scene_id == "scene00000"
        assert scene.visual.shape == (2, 3, 4, 4, 1)
        assert scene.audio.shape == (12, 8)
        assert scene.labels.shape == scene.mask.shape == (2, 3)

    @pytest.mark.parametrize("init_seed", [0, 3])
    def test_same_as_model_built_from_dataclasses(self, init_seed):
        """Built directly from GenConfig / ModelConfig values, the audited
        scene and parameters come out bit for bit the same."""
        scene, model, gate_net = gradcheck_inputs(init_seed)
        gen = GenConfig(seed=5, speakers=2, frames=3, height=4, width=4,
                        mel_bins=8, noise_std=0.2)
        ref_scene = generate_scene(gen, 0)
        for name in ("visual", "audio", "labels", "mask", "distractor"):
            np.testing.assert_array_equal(getattr(scene, name),
                                          getattr(ref_scene, name))
        ref = ActiveSpeakerModel(ModelConfig(
            channels=8, heads=2, rounds=2, s_max=2, vis_hidden=8,
            audio_hidden=8, height=4, width=4, mel_bins=8,
            init_seed=init_seed))
        ref_gate = ConfidenceNet(8, 4, 4, np.random.default_rng(
            [init_seed, 0xA0D10]), "gate")
        got = model.parameters() + gate_net.parameters()
        want = ref.parameters() + ref_gate.parameters()
        assert [p.name for p in got] == [p.name for p in want]
        for p, q in zip(got, want):
            np.testing.assert_array_equal(p.data, q.data)


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {"a.w": rng.normal(size=(3, 4)), "b.v": rng.normal(size=7)}
        path = tmp_path / "t.ckpt"
        save_checkpoint(tensors, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.w", "b.v"}
        assert (loaded["a.w"] == tensors["a.w"]).all()
        assert (loaded["b.v"] == tensors["b.v"]).all()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 10)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def tiny_checkpoint(self, tmp_path):
        params = [Parameter(np.arange(4.0).reshape(2, 2), "enc.w"),
                  Parameter(np.ones(1), "b")]
        path = tmp_path / "tiny.ckpt"
        save_checkpoint({p.name: p.data for p in params}, path)
        return params, path.read_bytes()

    def test_truncation_at_every_offset(self, tmp_path):
        _, blob = self.tiny_checkpoint(tmp_path)
        path = tmp_path / "cut.ckpt"
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    def test_0xff_at_every_offset(self, tmp_path):
        """A documented error, or tensors that load into the parameters."""
        params, blob = self.tiny_checkpoint(tmp_path)
        path = tmp_path / "hit.ckpt"
        seen = set()
        for offset in range(len(blob)):
            hit = bytearray(blob)
            hit[offset] = 0xFF
            path.write_bytes(bytes(hit))
            try:
                apply_checkpoint(params, load_checkpoint(path))
                seen.add("valid")
            except (FormatError, DimensionError, ContractError) as exc:
                seen.add(type(exc).__name__)
        assert seen == {"FormatError", "valid"}

    def test_dims_past_int64_are_truncation(self, tmp_path):
        # 4294967295 x 2147483649 elements wrap negative in int64
        path = tmp_path / "huge.ckpt"
        path.write_bytes(CKPT_MAGIC + struct.pack("<II", 1, 1) + b"a"
                         + struct.pack("<3I", 2, 2**32 - 1, 2**31 + 1) + bytes(64))
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint({"a": np.ones(10)}, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)
