"""Frame-level encoders and cross-modal fusion."""

import numpy as np
import numpy.testing as npt

from dualstream.encoders import AudioEncoder, VisualEncoder, fuse
from dualstream.tensor import Tensor

from test_attention import gelu_np, make_cal


class TestVisualEncoder:
    def test_shape_contract(self):
        rng = np.random.default_rng(0)
        enc = VisualEncoder(4, 4, 6, 8, rng)
        out = enc.forward(rng.normal(size=(2, 3, 4, 4, 1)))
        assert out.shape == (2, 3, 6)

    def test_frame_local(self):
        rng = np.random.default_rng(1)
        enc = VisualEncoder(4, 4, 6, 8, rng)
        crop = rng.normal(size=(4, 4, 1))
        clip = np.zeros((2, 3, 4, 4, 1))
        clip[0, 1] = crop
        clip[1, 2] = crop
        out = enc.forward(clip).data
        npt.assert_array_equal(out[0, 1], out[1, 2])

    def test_zero_crop_is_bias_path(self):
        rng = np.random.default_rng(2)
        enc = VisualEncoder(4, 4, 6, 8, rng)
        enc.b1.data[...] = rng.normal(size=8)
        enc.b2.data[...] = rng.normal(size=6)
        out = enc.forward(np.zeros((1, 1, 4, 4, 1))).data
        expected = gelu_np(enc.b1.data) @ enc.w2.data + enc.b2.data
        npt.assert_allclose(out[0, 0], expected, atol=1e-12)


class TestAudioEncoder:
    def test_constant_pooling_oracle(self):
        rng = np.random.default_rng(5)
        enc = AudioEncoder(5, 6, 8, rng)
        row = rng.normal(size=5)
        many = enc.frame_embedding(np.tile(row, (8, 1))).data
        one = enc.frame_embedding(np.tile(row, (4, 1))).data
        npt.assert_allclose(many[0], one[0], atol=1e-14)
        npt.assert_allclose(many[1], one[0], atol=1e-14)


class TestFuse:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.cal_av = make_cal(16, 4, rng)
        self.cal_va = make_cal(16, 4, rng)
        self.rng = rng

    def test_concat_width(self):
        f_v = Tensor(self.rng.normal(size=(3, 8, 16)))
        f_a = Tensor(self.rng.normal(size=(3, 8, 16)))
        assert fuse(f_v, f_a, self.cal_av, self.cal_va).shape == (3, 8, 32)

    def test_audio_half_survives_zero_visual(self):
        f_a = Tensor(self.rng.normal(size=(2, 5, 16)))
        zero_v = Tensor(np.zeros((2, 5, 16)))
        other_v = Tensor(self.rng.normal(size=(2, 5, 16)))
        with_zero = fuse(zero_v, f_a, self.cal_av, self.cal_va).data
        with_other = fuse(other_v, f_a, self.cal_av, self.cal_va).data
        audio_half = with_zero[:, :, :16]
        assert np.abs(audio_half).max() > 0  # residual path survives
        assert np.abs(with_zero - with_other)[:, :, :16].max() > 0

    def test_speaker_permutation_equivariance(self):
        f_v = self.rng.normal(size=(4, 6, 16))
        f_a = self.rng.normal(size=(4, 6, 16))
        base = fuse(Tensor(f_v), Tensor(f_a), self.cal_av, self.cal_va).data
        perm = self.rng.permutation(4)
        out = fuse(Tensor(f_v[perm]), Tensor(f_a[perm]),
                   self.cal_av, self.cal_va).data
        npt.assert_allclose(out, base[perm], atol=1e-10, rtol=0)

    def test_speaker_locality(self):
        f_v = self.rng.normal(size=(3, 6, 16))
        f_a = self.rng.normal(size=(3, 6, 16))
        base = fuse(Tensor(f_v), Tensor(f_a), self.cal_av, self.cal_va).data
        f_v2, f_a2 = f_v.copy(), f_a.copy()
        f_v2[1:] = 0.0
        f_a2[1:] = 0.0
        out = fuse(Tensor(f_v2), Tensor(f_a2), self.cal_av, self.cal_va).data
        npt.assert_allclose(out[0], base[0], atol=1e-12, rtol=0)

