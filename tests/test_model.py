"""Dual-stream interaction: locality, equivariance, composition oracle."""

import numpy as np
import numpy.testing as npt

from dualstream.attention import AttentionBlock, cal_forward, sal_forward
from dualstream.data import GenConfig, generate_scene
from dualstream.gradcheck import check_parameter_gradients
from dualstream.model import (ActiveSpeakerModel, DualStreamStack, ModelConfig,
                              cross_interact, dual_forward, speaker_stream)
from dualstream.tensor import Parameter, Tensor, init_uniform, tsum

from test_attention import block_oracle

DIM = 16
LN_EPS = 1e-5


def make_stack(rounds=2, s_max=4, rng=None, **kwargs):
    """A stack of width DIM = 2C, with an MLP of 2 * DIM."""
    cfg = ModelConfig(channels=DIM // 2, heads=2, mlp_ratio=2, rounds=rounds,
                      s_max=s_max, ln_eps=LN_EPS, **kwargs)
    return DualStreamStack(cfg, rng or np.random.default_rng(0))


def make_sal(rng):
    return AttentionBlock(DIM, 2, 2 * DIM, rng, "sal", LN_EPS)


def make_table(s_max, rng):
    """A speaker-slot embedding table of ``s_max`` rows."""
    return Parameter(init_uniform(rng, DIM, (s_max, DIM)), "speaker_emb.table")


class TestSpeakerStream:
    def test_single_speaker_reduces_to_pointwise_path(self):
        rng = np.random.default_rng(1)
        sal = make_sal(rng)
        emb = make_table(2, rng)
        x = rng.normal(size=(1, 5, DIM))
        out = speaker_stream(Tensor(x), emb, sal).data
        # over a single speaker, attention is identity weighting; the block
        # acts frame-by-frame on x + first embedding row
        shifted = (x + emb.data[0]).transpose(1, 0, 2)  # [T, 1, D]
        expected = block_oracle(shifted, shifted, sal).transpose(1, 0, 2)
        npt.assert_allclose(out, expected, atol=1e-10)

    def test_per_frame_locality(self):
        rng = np.random.default_rng(2)
        sal = make_sal(rng)
        emb = make_table(4, rng)
        x = rng.normal(size=(3, 6, DIM))
        base = speaker_stream(Tensor(x), emb, sal).data
        x2 = x.copy()
        x2[:, 4, :] += rng.normal(size=(3, DIM))
        out = speaker_stream(Tensor(x2), emb, sal).data
        keep = [t for t in range(6) if t != 4]
        npt.assert_allclose(out[:, keep], base[:, keep], atol=1e-12, rtol=0)

    def test_zeroed_embedding_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        sal = make_sal(rng)
        emb = make_table(4, rng)
        emb.data[...] = 0.0
        x = rng.normal(size=(4, 5, DIM))
        base = speaker_stream(Tensor(x), emb, sal).data
        perm = rng.permutation(4)
        out = speaker_stream(Tensor(x[perm]), emb, sal).data
        npt.assert_allclose(out, base[perm], atol=1e-10, rtol=0)


class TestTemporalStream:
    """The temporal stream: ``sal_forward`` over T with S in the batch."""

    def test_single_frame_reduces_to_pointwise_path(self):
        rng = np.random.default_rng(5)
        sal = make_sal(rng)
        x = rng.normal(size=(3, 1, DIM))
        out = sal_forward(Tensor(x), sal).data
        npt.assert_allclose(out, block_oracle(x, x, sal), atol=1e-10)

    def test_per_speaker_locality(self):
        rng = np.random.default_rng(6)
        sal = make_sal(rng)
        x = rng.normal(size=(3, 6, DIM))
        base = sal_forward(Tensor(x), sal).data
        x2 = x.copy()
        x2[2] += rng.normal(size=(6, DIM))
        out = sal_forward(Tensor(x2), sal).data
        npt.assert_allclose(out[:2], base[:2], atol=1e-12, rtol=0)

    def test_speaker_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        sal = make_sal(rng)
        x = rng.normal(size=(4, 5, DIM))
        base = sal_forward(Tensor(x), sal).data
        perm = rng.permutation(4)
        out = sal_forward(Tensor(x[perm]), sal).data
        npt.assert_allclose(out, base[perm], atol=1e-12, rtol=0)


class TestCrossInteract:
    def test_identical_inputs_degenerate_to_self_attention(self):
        rng = np.random.default_rng(8)
        stack = make_stack(rounds=1, rng=rng)
        rnd = stack.rounds[0]
        f = rng.normal(size=(2, 4, DIM))
        out_t, out_s = cross_interact(Tensor(f), Tensor(f),
                                      rnd.cal_time, rnd.cal_speaker)
        npt.assert_allclose(out_t.data, block_oracle(f, f, rnd.cal_time),
                            atol=1e-10)
        npt.assert_allclose(out_s.data, block_oracle(f, f, rnd.cal_speaker),
                            atol=1e-10)

    def test_shapes(self):
        rng = np.random.default_rng(9)
        stack = make_stack(rounds=1, rng=rng)
        rnd = stack.rounds[0]
        a = Tensor(rng.normal(size=(3, 5, DIM)))
        b = Tensor(rng.normal(size=(3, 5, DIM)))
        out_t, out_s = cross_interact(a, b, rnd.cal_time, rnd.cal_speaker)
        assert out_t.shape == (3, 5, DIM) and out_s.shape == (3, 5, DIM)

    def test_per_speaker_locality(self):
        rng = np.random.default_rng(10)
        stack = make_stack(rounds=1, rng=rng)
        rnd = stack.rounds[0]
        a = rng.normal(size=(3, 5, DIM))
        b = rng.normal(size=(3, 5, DIM))
        base_t, base_s = cross_interact(Tensor(a), Tensor(b),
                                        rnd.cal_time, rnd.cal_speaker)
        a2, b2 = a.copy(), b.copy()
        a2[1:] = 0.0
        b2[1:] = 0.0
        out_t, out_s = cross_interact(Tensor(a2), Tensor(b2),
                                      rnd.cal_time, rnd.cal_speaker)
        npt.assert_allclose(out_t.data[0], base_t.data[0], atol=1e-12, rtol=0)
        npt.assert_allclose(out_s.data[0], base_s.data[0], atol=1e-12, rtol=0)


class TestDualForward:
    def test_scores_shape(self):
        rng = np.random.default_rng(11)
        stack = make_stack(rng=rng)
        out = dual_forward(Tensor(rng.normal(size=(2, 4, DIM))), stack)
        assert out.shape == (2, 4)

    def test_matches_composition_of_oracled_sub_ops(self):
        rng = np.random.default_rng(12)
        stack = make_stack(rng=rng)
        f_av = rng.normal(size=(3, 4, DIM))
        x_t = x_s = Tensor(f_av)
        for rnd in stack.rounds:
            f_time = sal_forward(x_t, rnd.sal_time)
            f_sub = speaker_stream(x_s, stack.speaker_emb, rnd.sal_speaker)
            x_t = cal_forward(f_time, f_sub, rnd.cal_time)
            x_s = cal_forward(f_sub, f_time, rnd.cal_speaker)
        f_dual = x_t.data + x_s.data
        expected = (f_dual @ stack.head_w.data + stack.head_b.data).squeeze(-1)
        npt.assert_allclose(dual_forward(Tensor(f_av), stack).data, expected,
                            atol=1e-9, rtol=0)

    def test_zeroed_embedding_full_equivariance(self):
        rng = np.random.default_rng(13)
        stack = make_stack(rng=rng)
        stack.speaker_emb.data[...] = 0.0
        for trial in range(10):
            trng = np.random.default_rng([14, trial])
            f_av = trng.normal(size=(3, 4, DIM))
            perm = trng.permutation(3)
            base = dual_forward(Tensor(f_av), stack).data
            out = dual_forward(Tensor(f_av[perm]), stack).data
            npt.assert_allclose(out, base[perm], atol=1e-9, rtol=0)

    def test_scores_finite(self):
        rng = np.random.default_rng(15)
        stack = make_stack(rng=rng)
        out = dual_forward(Tensor(rng.normal(size=(4, 6, DIM)) * 10.0), stack)
        assert np.isfinite(out.data).all()

    def test_ablation_flags_are_identity(self):
        rng = np.random.default_rng(16)
        stack = make_stack(rng=rng, ablate_speaker=True, ablate_temporal=True)
        f_av = rng.normal(size=(2, 3, DIM))
        x_t = x_s = Tensor(f_av)
        for rnd in stack.rounds:
            nt, ns = cross_interact(x_t, x_s, rnd.cal_time, rnd.cal_speaker)
            x_t, x_s = nt, ns
        expected = ((x_t.data + x_s.data) @ stack.head_w.data
                    + stack.head_b.data).squeeze(-1)
        npt.assert_allclose(dual_forward(Tensor(f_av), stack).data, expected,
                            atol=1e-12)


def test_full_model_gradients_match_finite_differences():
    gen = GenConfig(seed=3, speakers=2, frames=3, height=4, width=4,
                    mel_bins=8, noise_std=0.2)
    scene = generate_scene(gen, 0)
    cfg = ModelConfig(channels=8, heads=2, rounds=1, s_max=2, vis_hidden=8,
                      audio_hidden=8, height=4, width=4, mel_bins=8)
    model = ActiveSpeakerModel(cfg)
    rng = np.random.default_rng(17)
    proj = Tensor(rng.normal(size=(2, 3)))

    def build():
        out = model.forward(scene.visual, scene.audio)
        return tsum(out.scores * proj)

    worst = check_parameter_gradients(build, model.parameters(), step=1e-4,
                                      max_coords=3, seed=2)
    assert max(worst.values()) <= 1e-4, max(worst.items(), key=lambda kv: kv[1])
