"""Masked cross-entropy and the frame-aligned contrastive objective."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from dualstream.errors import ContractError, DimensionError
from dualstream.gradcheck import check_parameter_gradients
from dualstream.losses import (LossWeights, contrastive_av, masked_bce,
                               total_loss)
from dualstream.model import ModelOutput
from dualstream.tensor import (Parameter, Tensor, add, backward, mul, tmean,
                               transpose, tsum, zero_grads)

from oracles import matmul, power, softplus, sub, take_rows, texp, tlog
from test_tensor import check_every_parent


class TestMaskedBce:
    def test_confident_correct_is_near_zero(self):
        logits = Tensor(np.full((2, 3), 30.0))
        loss = masked_bce(logits, np.ones((2, 3)), np.ones((2, 3)))
        assert 0.0 <= loss.item() <= 1e-6

    def test_zero_logit_contributes_ln2(self):
        loss = masked_bce(Tensor(np.zeros((2, 2))), np.ones((2, 2)),
                          np.ones((2, 2)))
        npt.assert_allclose(loss.item(), np.log(2.0), rtol=1e-15)

    def test_subset_recompute_oracle(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 6)) * 3
        labels = (rng.random((4, 6)) < 0.5).astype(float)
        mask = (rng.random((4, 6)) < 0.5).astype(float)
        masked = masked_bce(Tensor(logits), labels, mask).item()
        keep = mask.astype(bool)
        subset = masked_bce(Tensor(logits[keep]), labels[keep],
                            np.ones(keep.sum())).item()
        npt.assert_allclose(masked, subset, rtol=1e-12)

    def test_invariant_to_masked_out_logits(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5))
        labels = (rng.random((3, 5)) < 0.4).astype(float)
        mask = (rng.random((3, 5)) < 0.6).astype(float)
        base = masked_bce(Tensor(logits), labels, mask).item()
        poked = logits.copy()
        poked[mask == 0] = 1e6
        assert masked_bce(Tensor(poked), labels, mask).item() == base

    def test_empty_mask_is_zero(self):
        loss = masked_bce(Tensor(np.ones((2, 2))), np.ones((2, 2)),
                          np.zeros((2, 2)))
        assert loss.item() == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            logits = rng.normal(size=(3, 4)) * 5
            labels = (rng.random((3, 4)) < 0.5).astype(float)
            assert masked_bce(Tensor(logits), labels,
                              np.ones((3, 4))).item() >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            masked_bce(Tensor(np.zeros((2, 2))), np.zeros((2, 3)),
                       np.zeros((2, 2)))


def nce_oracle(a, v, temperature):
    """Explicit softmax-over-pairs computation, loops only."""
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    n = a.shape[0]
    sim = np.array([[a[i] @ v[j] / temperature for j in range(n)]
                    for i in range(n)])
    av = va = 0.0
    for i in range(n):
        av += np.log(np.exp(sim[i]).sum()) - sim[i, i]
        va += np.log(np.exp(sim[:, i]).sum()) - sim[i, i]
    return 0.5 * (av + va) / n


class TestContrastive:
    def test_three_frame_hand_case(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))
        got = contrastive_av(Tensor(a), Tensor(v), np.ones(3), 0.5).item()
        npt.assert_allclose(got, nce_oracle(a, v, 0.5), atol=1e-10, rtol=0)

    def test_respects_active_mask(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 4))
        v = rng.normal(size=(5, 4))
        active = np.array([1, 0, 1, 1, 0])
        got = contrastive_av(Tensor(a), Tensor(v), active, 0.3).item()
        keep = active.astype(bool)
        npt.assert_allclose(got, nce_oracle(a[keep], v[keep], 0.3), atol=1e-10)

    def test_aligned_identical_embeddings_beat_uniform_baseline(self):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(6, 8))
        loss = contrastive_av(Tensor(e), Tensor(e), np.ones(6), 0.07).item()
        assert loss < np.log(6.0)

    def test_all_inactive_returns_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = contrastive_av(Tensor(np.ones((4, 3))),
                                  Tensor(np.ones((4, 3))), np.zeros(4), 0.1)
        assert loss.item() == 0.0

    def test_single_active_frame_degenerate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = contrastive_av(Tensor(np.ones((4, 3))),
                                  Tensor(np.ones((4, 3))),
                                  np.array([0, 1, 0, 0]), 0.1)
        assert loss.item() == 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 6))
        v = rng.normal(size=(5, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        base = contrastive_av(Tensor(a), Tensor(v), np.ones(5), 0.2).item()
        rotated = contrastive_av(Tensor(a @ q), Tensor(v @ q),
                                 np.ones(5), 0.2).item()
        npt.assert_allclose(rotated, base, atol=1e-9, rtol=0)

    def test_bad_temperature(self):
        with pytest.raises(ContractError):
            contrastive_av(Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))),
                           np.ones(3), 0.0)


def make_output(rng, s=3, t=5, c=4):
    """A forward's outputs, with the labels and mask they are scored on."""
    labels = (rng.random((s, t)) < 0.4).astype(float)
    labels[:, 0] = 1.0  # guarantee >= 2 active frames
    labels[0, 1] = 1.0
    mask = np.ones((s, t))
    out = ModelOutput(
        scores=Tensor(rng.normal(size=(s, t))),
        visual_logits=Tensor(rng.normal(size=(s, t))),
        audio_logits=Tensor(rng.normal(size=t)),
        audio_frames=Tensor(rng.normal(size=(t, c))),
        visual_frames=Tensor(rng.normal(size=(s, t, c))),
    )
    return out, labels, mask


class TestTotalLoss:
    def test_weight_isolation(self):
        rng = np.random.default_rng(7)
        out, labels, mask = make_output(rng)
        w = LossWeights(w_av=1.0, w_v=0.0, w_a=0.0, w_con=0.0)
        total, parts = total_loss(out, labels, mask, w)
        expected = masked_bce(out.scores, labels, mask)
        npt.assert_allclose(total.item(), expected.item(), rtol=1e-15)
        assert parts["l_av"] == expected.item()

    def test_doubling_weights_doubles_loss(self):
        rng = np.random.default_rng(8)
        out, labels, mask = make_output(rng)
        w1 = LossWeights(w_av=1.0, w_v=0.5, w_a=0.5, w_con=0.3)
        w2 = LossWeights(w_av=2.0, w_v=1.0, w_a=1.0, w_con=0.6)
        t1, _ = total_loss(out, labels, mask, w1)
        t2, _ = total_loss(out, labels, mask, w2)
        assert t2.item() == 2.0 * t1.item()

    def test_weights_validated(self):
        with pytest.raises(ContractError):
            LossWeights(w_av=-0.1)
        with pytest.raises(ContractError):
            LossWeights(w_av=0.0, w_v=0.0, w_a=0.0, w_con=0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        s, t, c = 2, 4, 3
        labels = np.array([[1, 0, 1, 0], [0, 1, 0, 0]], dtype=float)
        mask = np.ones((s, t))
        fused = Parameter(rng.normal(size=(s, t)), "fused")
        visual = Parameter(rng.normal(size=(s, t)), "visual")
        audio = Parameter(rng.normal(size=t), "audio")
        fa = Parameter(rng.normal(size=(t, c)), "fa")
        fv = Parameter(rng.normal(size=(s, t, c)), "fv")

        def build():
            out = ModelOutput(scores=fused, visual_logits=visual,
                              audio_logits=audio, audio_frames=fa,
                              visual_frames=fv)
            total, _ = total_loss(out, labels, mask, LossWeights())
            return total

        worst = check_parameter_gradients(
            build, [fused, visual, audio, fa, fv], max_coords=8, seed=3)
        assert max(worst.values()) <= 1e-4, worst

    def test_audit_of_a_degenerate_contrastive_term_warns_nothing(self):
        # one active frame: contrastive_av returns 0 without a warning, in
        # the analytic pass and in the audit's replays
        rng = np.random.default_rng(11)
        s, t, c = 2, 4, 3
        labels = np.zeros((s, t))
        labels[0, 1] = 1.0
        params = [Parameter(rng.normal(size=shape), name) for name, shape in
                  [("scores", (s, t)), ("visual", (s, t)), ("audio", (t,)),
                   ("fa", (t, c)), ("fv", (s, t, c))]]

        def build():
            return total_loss(ModelOutput(*params), labels, np.ones((s, t)),
                              LossWeights())[0]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            worst = check_parameter_gradients(build, params, max_coords=2)
        assert max(worst.values()) <= 1e-4, worst


# ---------------------------------------------------------------------------
# the op chains the one-node losses replace, kept as the oracles their values
# must match bit for bit


def masked_bce_composed(logits, labels, mask):
    elem = sub(softplus(logits), mul(logits, labels))
    return mul(tsum(mul(elem, mask)), 1.0 / float(mask.sum()))


def log_sum_exp_rows_composed(sim):
    shift = sim.data.max(axis=1, keepdims=True)
    return add(tlog(tsum(texp(sub(sim, shift)), axis=1)), shift.reshape(-1))


def contrastive_composed(f_a, f_v, active_mask, temperature):
    active = np.flatnonzero(np.asarray(active_mask) != 0)

    def normalize(rows):
        sq = tsum(mul(rows, rows), axis=1, keepdims=True)
        return mul(rows, power(add(sq, 1e-12), -0.5))

    a = normalize(take_rows(f_a, active))
    v = normalize(take_rows(f_v, active))
    sim = mul(matmul(a, transpose(v, (1, 0))), 1.0 / float(temperature))
    diag = tsum(mul(sim, np.eye(active.size)), axis=1)
    loss_av = tmean(sub(log_sum_exp_rows_composed(sim), diag))
    loss_va = tmean(sub(log_sum_exp_rows_composed(transpose(sim, (1, 0))), diag))
    return mul(add(loss_av, loss_va), 0.5)


def values_and_grads(loss_fn, inputs, weight):
    """The loss value and each input's gradient of ``weight * loss``."""
    zero_grads(inputs)
    loss = loss_fn()
    backward(mul(loss, weight))
    return loss, [p.grad.copy() for p in inputs]


def test_masked_bce_is_one_node_bit_identical_to_composed_tape():
    # the gradient too: the gate trainer's outcome moves with its last bit
    for trial in range(20):
        rng = np.random.default_rng([19, trial])
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 13)))
        logits = Parameter(rng.normal(size=shape) * 4.0, "logits")
        labels = (rng.random(shape) < 0.5).astype(float)
        mask = (rng.random(shape) < 0.7).astype(float)
        mask.flat[0] = 1.0
        weight = rng.uniform(0.1, 2.0)
        fused, fused_grad = values_and_grads(
            lambda: masked_bce(logits, labels, mask), [logits], weight)
        composed, composed_grad = values_and_grads(
            lambda: masked_bce_composed(logits, labels, mask), [logits], weight)
        assert fused.parents == (logits,)
        npt.assert_array_equal(fused.data, composed.data)
        npt.assert_array_equal(fused_grad[0], composed_grad[0])


def test_contrastive_is_one_node_matching_composed_tape():
    for trial in range(20):
        rng = np.random.default_rng([20, trial])
        t, c = int(rng.integers(2, 16)), int(rng.integers(2, 9))
        f_a = Parameter(rng.normal(size=(t, c)), "f_a")
        f_v = Parameter(rng.normal(size=(t, c)), "f_v")
        active = (rng.random(t) < 0.6).astype(float)
        active[:2] = 1.0
        weight = rng.uniform(0.1, 2.0)
        fused, fused_grads = values_and_grads(
            lambda: contrastive_av(f_a, f_v, active, 0.07), [f_a, f_v], weight)
        composed, composed_grads = values_and_grads(
            lambda: contrastive_composed(f_a, f_v, active, 0.07), [f_a, f_v],
            weight)
        assert fused.parents == (f_a, f_v)
        npt.assert_array_equal(fused.data, composed.data)
        for got, want in zip(fused_grads, composed_grads):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_masked_bce_gradients_every_parent():
    labels = np.array([[1.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0, 1.0]])
    mask = np.array([[1.0, 1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0, 1.0]])
    check_every_parent(lambda x: masked_bce(x, labels, mask), [(2, 5)])


def test_contrastive_gradients_every_parent():
    active = np.array([1, 0, 1, 1, 1])
    check_every_parent(lambda a, v: contrastive_av(a, v, active, 0.5),
                       [(5, 3), (5, 3)])


def test_degenerate_terms_are_gradient_free_nodes_over_their_inputs():
    # an empty mask and fewer than two active frames score 0 without putting
    # a constant on the tape, and send their inputs no gradient
    logits = Parameter(np.ones((2, 3)), "logits")
    f_a = Parameter(np.ones((3, 2)), "f_a")
    f_v = Parameter(np.ones((3, 2)), "f_v")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        l_con = contrastive_av(f_a, f_v, np.array([0, 1, 0]), 0.1)
    for loss, parents in ((masked_bce(logits, np.ones((2, 3)), np.zeros((2, 3))),
                           (logits,)), (l_con, (f_a, f_v))):
        assert loss.item() == 0.0 and loss.parents == parents
        zero_grads(parents)
        backward(mul(loss, 2.0))
        for p in parents:
            npt.assert_array_equal(p.grad, 0.0)
