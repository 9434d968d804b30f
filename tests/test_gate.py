"""Voice gate: exact hand evaluations, bounds, and the confidence branch."""

from dataclasses import replace

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from dualstream import cli
from dualstream.config import RunConfig
from dualstream.data import GenConfig, generate
from dualstream.errors import ContractError, DimensionError
from dualstream.gate import (ConfidenceNet, GateParams, gate_audio_features,
                             gate_batch, voice_confidence)
from dualstream.losses import masked_bce
from dualstream.tensor import (Tensor, add, backward, concat, gelu, getitem,
                               linear, op, reshape, zero_grads)
from dualstream.train import train_gate

from common import tape
from oracles import matmul, tanh

# distinct nodes on one gate loss's tape, at any T: 12 Parameters and 8
# ops (two conv1d_same, two gelu, one tanh_birnn for both recurrence
# directions, linear, reshape, masked_bce); the per-frame tape the fused
# conv and recurrence replaced had 198 at T=12 and 630 at T=48
MAX_GATE_NODES = 20

GP = GateParams(t_main=0.0, t_veto=0.06, gamma=0.8, eps=1e-6)


def gate_rule(s, p_hat, gp):
    """The score-correction rule for one cell, written out scalar by scalar:
    the oracle ``gate_batch`` must match."""
    if s <= gp.t_main:
        return s
    alpha = min(p_hat / (gp.t_veto + gp.eps), 1.0) if p_hat < gp.t_veto else 1.0
    return s * ((1.0 - gp.gamma) + gp.gamma * alpha)


def gate_one(s, p_hat, gp=GP):
    """``gate_batch`` on a single [1, 1] cell."""
    return gate_batch(np.array([[s]]), np.array([p_hat]), gp)[0, 0]


def gate_scale(p_hat):
    """The scaling factor alpha: with gamma = 1 a unit score becomes alpha."""
    return gate_one(1.0, p_hat, replace(GP, gamma=1.0))


class TestGateScale:
    def test_boundary_equality_passes_open(self):
        assert gate_scale(0.06) == 1.0

    def test_zero_confidence(self):
        assert gate_scale(0.0) == 0.0

    def test_hand_value(self):
        alpha = gate_scale(0.03)
        assert alpha == 0.03 / (0.06 + 1e-6)
        assert round(alpha, 7) == 0.4999917

    def test_above_threshold_open(self):
        for p in (0.06, 0.2, 0.5, 1.0):
            assert gate_scale(p) == 1.0


class TestGateApply:
    def test_below_main_threshold_unchanged(self):
        for s in (-3.0, -0.5, 0.0):
            assert gate_one(s, 0.0, GP) == s

    def test_open_gate_identity(self):
        s = 1.7
        assert gate_one(s, 0.9, GP) == s * ((1.0 - GP.gamma) + GP.gamma * 1.0)
        npt.assert_allclose(gate_one(s, 0.9, GP), s, rtol=1e-15)

    def test_hand_value_full_precision(self):
        got = gate_one(2.0, 0.03, GP)
        mpmath.mp.dps = 40
        alpha = mpmath.mpf("0.03") / (mpmath.mpf("0.06") + mpmath.mpf("1e-6"))
        expected = mpmath.mpf(2) * ((1 - mpmath.mpf("0.8"))
                                    + mpmath.mpf("0.8") * alpha)
        assert abs(got - float(expected)) < 1e-12
        assert round(got, 7) == 1.1999867

    def test_multiplier_bounds(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0.0001, 10.0, size=100_000)
        p = rng.uniform(0.0, 1.0, size=100_000)
        batch = gate_batch(s.reshape(1, -1), p, GP)[0]
        assert (batch <= s + 1e-15).all()
        assert (batch >= (1.0 - GP.gamma) * s - 1e-15).all()

    def test_monotone_in_confidence(self):
        s = 2.5
        grid = np.linspace(0.0, 1.0, 2001)
        vals = [gate_one(s, p, GP) for p in grid]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_order_preserved_at_equal_confidence(self):
        rng = np.random.default_rng(1)
        scores = np.sort(rng.uniform(0.01, 5.0, size=50))
        for p in (0.0, 0.03, 0.06, 0.8):
            gated = [gate_one(s, p, GP) for s in scores]
            assert all(b >= a for a, b in zip(gated, gated[1:]))

    def test_gamma_zero_is_identity(self):
        gp = GateParams(t_main=0.0, t_veto=0.06, gamma=0.0, eps=1e-6)
        rng = np.random.default_rng(2)
        for s, p in zip(rng.normal(size=200) * 3, rng.uniform(0, 1, 200)):
            assert gate_one(s, p, gp) == s

    def test_continuity_jump_bounded(self):
        # multiplier is continuous except the eps-sized step at p = t_veto
        def multiplier(p):
            return gate_one(1.0, p, GP)

        below = multiplier(GP.t_veto - 1e-12)
        at = multiplier(GP.t_veto)
        assert abs(at - below) <= GP.gamma * GP.eps / GP.t_veto + 1e-12
        grid = np.linspace(0.0, GP.t_veto - 1e-9, 1000)
        vals = np.array([multiplier(p) for p in grid])
        steps = np.abs(np.diff(vals))
        slope = GP.gamma / (GP.t_veto + GP.eps)  # Lipschitz constant of the ramp
        assert steps.max() <= slope * (grid[1] - grid[0]) * (1 + 1e-9)


class TestGateBatch:
    def test_open_gate_bitwise_identity(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(3, 12))
        out = gate_batch(scores, np.ones(12), GP)
        assert (out == scores).all()

    def test_all_negative_identity(self):
        rng = np.random.default_rng(4)
        scores = -np.abs(rng.normal(size=(2, 8)))
        out = gate_batch(scores, np.zeros(8), GP)
        assert (out == scores).all()

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(4, 9)) * 2
        p = rng.uniform(0, 1, size=9)
        out = gate_batch(scores, p, GP)
        for s in range(4):
            for t in range(9):
                assert out[s, t] == gate_rule(scores[s, t], p[t], GP)

    def test_time_mismatch(self):
        with pytest.raises(DimensionError):
            gate_batch(np.zeros((2, 5)), np.zeros(4), GP)


class TestGateParams:
    def test_validation(self):
        with pytest.raises(ContractError):
            GateParams(t_veto=0.0)
        with pytest.raises(ContractError):
            GateParams(t_veto=1.0)
        with pytest.raises(ContractError):
            GateParams(gamma=1.5)
        with pytest.raises(ContractError):
            GateParams(eps=0.0)


class TestConfidenceNet:
    def make_net(self, mel_bins=13, seed=0):
        return ConfidenceNet(mel_bins, 8, 8, np.random.default_rng(seed))

    def test_single_frame_in_open_interval(self):
        net = self.make_net()
        out = voice_confidence(np.random.default_rng(6).normal(size=(4, 13)), net)
        assert out.shape == (1,)
        assert 0.0 < out[0] < 1.0

    def test_range_strictly_inside_unit_interval(self):
        net = self.make_net()
        rng = np.random.default_rng(7)
        for _ in range(1000):
            audio = rng.normal(size=(4 * rng.integers(1, 9), 13)) * 10
            p = voice_confidence(audio, net)
            assert (p > 0.0).all() and (p < 1.0).all()

    def test_depends_on_whole_sequence(self):
        net = self.make_net()
        rng = np.random.default_rng(8)
        audio = rng.normal(size=(24, 13))
        base = voice_confidence(audio, net)
        audio2 = audio.copy()
        audio2[20:] += 1.0  # last frame perturbs the first output (bidirectional)
        out = voice_confidence(audio2, net)
        assert abs(out[0] - base[0]) > 0

    def held_out_accuracy(self, init):
        """Frame accuracy on 12 held-out scenes of a net from init ``init``
        trained on 30 scenes at lr 0.1, momentum 0.9, for 8 epochs."""
        cfg = GenConfig(seed=21, speakers=2, frames=10, noise_std=0.3,
                        p_off_on=0.06)
        train_scenes = generate(cfg, 30)
        held_out = generate(GenConfig(seed=99, speakers=2, frames=10,
                                      noise_std=0.3, p_off_on=0.06), 12)
        net = self.make_net(seed=init)
        train_gate(net, train_scenes, epochs=8, lr=0.1, momentum=0.9, seed=0)
        hits = total = 0
        for scene in held_out:
            p = voice_confidence(scene.audio, net)
            truth = scene.labels.sum(axis=0) > 0
            hits += ((p >= 0.5) == truth).sum()
            total += truth.size
        return hits / total

    def test_learns_speech_detection(self):
        accuracy = self.held_out_accuracy(1)
        assert accuracy >= 0.9, f"held-out accuracy {accuracy:.3f}"

    @pytest.mark.xfail(strict=True, reason="train_gate is unstable on a small "
                       "corpus: inits 4-7 end at held-out accuracy 0.525-0.750")
    def test_learns_speech_detection_from_every_init(self):
        accuracies = [self.held_out_accuracy(init) for init in range(8)]
        assert min(accuracies) >= 0.9, f"held-out accuracies {accuracies}"


# ---------------------------------------------------------------------------
# the per-op tape the fused conv1d_same and tanh_birnn replace, kept as the
# oracle their values and gradients must match bit for bit


@op
def pad_axis(a, axis, before, after):
    """Zero-pad one axis."""
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)

    def vjp(g, need):
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(before, before + a.shape[axis])
        return (g[tuple(sl)],)

    return np.pad(a.data, widths), (a,), vjp


def conv_composed(x, w, b):
    # same-padded 1-d convolution as a sum of shifted matmuls
    k = w.shape[0]
    t = x.shape[0]
    xp = pad_axis(x, 0, k // 2, k - 1 - k // 2)
    out = None
    for j in range(k):
        term = matmul(getitem(xp, (slice(j, j + t),)), getitem(w, (j,)))
        out = term if out is None else add(out, term)
    return add(out, b)


def recur_composed(x, weights, reverse):
    wx, wh, b = weights
    t = x.shape[0]
    h = Tensor(np.zeros((1, wh.shape[0])))
    states = [None] * t
    order = range(t - 1, -1, -1) if reverse else range(t)
    for i in order:
        step = add(add(matmul(getitem(x, (slice(i, i + 1),)), wx),
                       matmul(h, wh)), b)
        h = tanh(step)
        states[i] = h
    return concat(states, axis=0)


def logits_composed(net, audio):
    x = Tensor(gate_audio_features(audio))
    x = gelu(conv_composed(x, net.c1_w, net.c1_b))
    x = gelu(conv_composed(x, net.c2_w, net.c2_b))
    both = concat([recur_composed(x, net.fwd, reverse=False),
                   recur_composed(x, net.bwd, reverse=True)], axis=1)
    return reshape(linear(both, net.out_w, net.out_b), (x.shape[0],))


def gate_loss(logits, frames, seed):
    target = (np.random.default_rng(seed).uniform(size=frames) > 0.5).astype(float)
    return masked_bce(logits, target, np.ones(frames))


def gate_sizes(cfg):
    """(mel bins, conv width, recurrence width) of a config's gate."""
    return cfg["data.mel_bins"], cfg["gate.conv_hidden"], cfg["gate.rnn_hidden"]


# the 8-wide gate under the cases' bare frame ids, then the gates the CLI
# builds by default and for ``gradcheck``
GATE_CASES = [pytest.param(frames, sizes, id=f"{prefix}{frames}")
              for prefix, sizes in (("", (13, 8, 8)),
                                    ("defaults-", gate_sizes(RunConfig({}))),
                                    ("tiny-", gate_sizes(RunConfig(cli.TINY))))
              for frames in (1, 3, 12, 48)]


@pytest.mark.parametrize("frames,sizes", GATE_CASES)
def test_fused_gate_matches_per_op_tape_bit_for_bit(frames, sizes):
    # non-zero biases, so every term of every accumulation is exercised
    mel_bins = sizes[0]
    net = ConfidenceNet(*sizes, np.random.default_rng(frames))
    rng = np.random.default_rng([frames, 1])
    for p in net.parameters():
        p.data[...] = p.data + rng.normal(scale=0.3, size=p.shape)
    params = net.parameters()
    for trial in range(3):
        audio = np.random.default_rng([frames, 2, trial]).normal(
            size=(4 * frames, mel_bins)) * 2.0
        grads = []
        for logits_fn in (net.logits, lambda a: logits_composed(net, a)):
            zero_grads(params)
            logits = logits_fn(audio)
            backward(gate_loss(logits, frames, trial))
            grads.append((logits.data, [p.grad.copy() for p in params]))
        (fused, fused_grads), (ref, ref_grads) = grads
        npt.assert_array_equal(fused, ref)
        for p, got, want in zip(params, fused_grads, ref_grads):
            npt.assert_array_equal(got, want, err_msg=p.name)


def test_gate_tape_size_guard():
    net = ConfidenceNet(13, 8, 8, np.random.default_rng(0))
    counts = {frames: len(tape(gate_loss(net.logits(np.ones((4 * frames, 13))),
                                         frames, 0)))
              for frames in (3, 12, 48)}
    assert len(set(counts.values())) == 1, counts
    assert counts[12] <= MAX_GATE_NODES, counts
