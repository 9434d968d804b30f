"""Tensor engine: forward oracles, gradient rules, backward semantics."""

import operator
from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest

from dualstream.errors import ContractError, DimensionError
from dualstream.gradcheck import check_parameter_gradients
from dualstream.tensor import (Module, Parameter, Tensor, add, backward,
                               broadcast_to, concat, conv1d_same, gelu,
                               getitem, linear, mul, no_grad, reshape,
                               tanh_birnn, tmean, transpose, tsum, zero_grads)
from oracles import (attention_core, layer_norm, matmul, power, softmax,
                     softplus, sub, take_rows, tanh, texp, tlog)


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        npt.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        npt.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        npt.assert_allclose(matmul(Tensor(a), Tensor(b)).data, expected,
                            atol=1e-12, rtol=0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_batch_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 5, 1, 3, 4), rand(rng, 1, 2, 4, 2)
        npt.assert_allclose(matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_incompatible_batch_dims(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros((3, 2, 2))), Tensor(np.zeros((4, 2, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        npt.assert_allclose(out.data, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)

    def test_large_values_stay_finite(self):
        out = softmax(Tensor([1000.0, 0.0]), axis=0).data
        assert np.isfinite(out).all()
        npt.assert_allclose(out, [1.0, 0.0], atol=1e-300)

    def test_matches_extended_precision_oracle(self):
        import mpmath
        mpmath.mp.dps = 50
        xs = [1.0, 2.0, 3.0]
        es = [mpmath.exp(x) for x in xs]
        total = sum(es)
        expected = np.array([float(e / total) for e in es])
        npt.assert_allclose(softmax(Tensor(xs), axis=0).data, expected,
                            atol=1e-12, rtol=0)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(-60.0, 60.0, size=(4, 7))
            out = softmax(Tensor(x), axis=1).data
            npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9, rtol=0)
            assert (out > 0).all()

    def test_bad_axis(self):
        with pytest.raises(DimensionError):
            softmax(Tensor(np.zeros((2, 2))), axis=5)


class TestLayerNorm:
    def test_constant_vector_collapses_to_beta(self):
        out = layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]),
                         Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        npt.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_already_normalized(self):
        out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)),
                         Tensor(np.zeros(2)), eps=1e-12)
        npt.assert_allclose(out.data, [1.0, -1.0], atol=1e-6)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        x = rand(rng, 8)
        gamma, beta = rand(rng, 8), rand(rng, 8)
        eps = 1e-5
        mean = sum(x) / 8
        var = sum((v - mean) ** 2 for v in x) / 8
        expected = gamma * (x - mean) / np.sqrt(var + eps) + beta
        out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=eps)
        npt.assert_allclose(out.data, expected, atol=1e-10, rtol=0)

    def test_unit_statistics(self):
        # variance >> eps so the eps bias stays below the 1e-6 budget
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 10.0, size=(5, 16))
        out = layer_norm(Tensor(x), Tensor(np.ones(16)),
                         Tensor(np.zeros(16)), eps=1e-5).data
        npt.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        npt.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    def test_matches_primitive_composition_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for shape in [(7,), (3, 8), (2, 5, 16)]:
            c = shape[-1]
            x = Parameter(rng.normal(0.0, 3.0, size=shape), "x")
            gamma, beta = Parameter(rand(rng, c), "g"), Parameter(rand(rng, c), "b")
            fused = layer_norm(x, gamma, beta, 1e-5)
            composed = layer_norm_composed(x, gamma, beta, 1e-5)
            npt.assert_array_equal(fused.data, composed.data)
            # the closed-form backward agrees with the composition's to rounding
            proj = rand(rng, *shape)
            grads = []
            for out in (fused, composed):
                zero_grads([x, gamma, beta])
                backward(tsum(mul(out, proj)))
                grads.append([p.grad.copy() for p in (x, gamma, beta)])
            for g_fused, g_composed in zip(*grads):
                npt.assert_allclose(g_fused, g_composed, rtol=1e-12, atol=1e-12)

    def test_one_tape_node(self):
        x = Parameter(np.arange(4.0), "x")
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
        assert out.parents[0] is x and len(out.parents) == 3


def layer_norm_composed(x, gamma, beta, eps):
    """The primitive composition the fused layer_norm replays."""
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, eps), -0.5)
    return add(mul(mul(centered, inv), gamma), beta)


class TestLinear:
    def test_identity(self):
        out = linear(Tensor([1.0, 0.0]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        npt.assert_array_equal(out.data, [1.0, 0.0])

    def test_hand_case(self):
        out = linear(Tensor([1.0, 1.0]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
        npt.assert_array_equal(out.data, [6.0])

    def test_matches_matmul_add_composition(self):
        # the fused node must give the composition's bits, at every input rank
        rng = np.random.default_rng(5)
        w, b = rand(rng, 3, 5), rand(rng, 5)
        for shape in [(3,), (6, 3), (4, 6, 3)]:
            x = rand(rng, *shape)
            if len(shape) == 1:
                expected = reshape(add(matmul(reshape(Tensor(x), (1, 3)),
                                              Tensor(w)), Tensor(b)), (5,))
            else:
                expected = add(matmul(Tensor(x), Tensor(w)), Tensor(b))
            npt.assert_array_equal(
                linear(Tensor(x), Tensor(w), Tensor(b)).data, expected.data)

    def test_constant_input_is_not_a_parent(self):
        w, b = Parameter(np.ones((3, 2)), "w"), Parameter(np.zeros(2), "b")
        out = linear(np.ones((4, 3)), w, b)
        assert out.parents == (w, b)
        backward(tsum(out))
        npt.assert_array_equal(w.grad, np.full((3, 2), 4.0))
        npt.assert_array_equal(b.grad, np.full(2, 4.0))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros(3)), Tensor(np.zeros((4, 2))),
                   Tensor(np.zeros(2)))


class TestConv1dSame:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(15)
        x, w, b = rand(rng, 5, 3), rand(rng, 3, 3, 2), rand(rng, 2)
        xp = np.concatenate([np.zeros((1, 3)), x, np.zeros((1, 3))])
        expected = [sum(xp[i + j] @ w[j] for j in range(3)) + b for i in range(5)]
        npt.assert_allclose(conv1d_same(x, w, b).data, expected, atol=1e-12, rtol=0)

    def test_constant_input_is_not_a_parent(self):
        w, b = Parameter(np.ones((3, 2, 4)), "w"), Parameter(np.zeros(4), "b")
        assert conv1d_same(np.ones((5, 2)), w, b).parents == (w, b)

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((5, 3), (3, 4, 2), (2,)),   # channel mismatch
        ((5, 3), (3, 3, 2), (3,)),   # bias width
        ((5,), (3, 3, 2), (2,)),     # input rank
        ((5, 3), (3, 2), (2,)),      # weight rank
        ((5, 3), (0, 3, 2), (2,)),   # empty kernel
    ])
    def test_bad_shapes_rejected(self, x_shape, w_shape, b_shape):
        with pytest.raises(DimensionError):
            conv1d_same(np.zeros(x_shape), np.zeros(w_shape), np.zeros(b_shape))


class TestTanhRnn:
    """``tanh_birnn``, the bidirectional tanh recurrence."""

    def test_matches_numpy_oracle_both_directions(self):
        rng = np.random.default_rng(16)
        x = rand(rng, 5, 3)
        fwd = rand(rng, 3, 4), rand(rng, 4, 4), rand(rng, 4)
        bwd = rand(rng, 3, 4), rand(rng, 4, 4), rand(rng, 4)
        expected = np.zeros((5, 8))
        for (wx, wh, b), order, cols in ((fwd, range(5), slice(0, 4)),
                                         (bwd, range(4, -1, -1), slice(4, 8))):
            h = np.zeros(4)
            for i in order:
                h = expected[i, cols] = np.tanh(x[i] @ wx + h @ wh + b)
        npt.assert_allclose(tanh_birnn(x, fwd, bwd).data, expected,
                            atol=1e-12, rtol=0)

    @pytest.mark.parametrize("x_shape,wx_shape,wh_shape,b_shape", [
        ((5, 3), (2, 4), (4, 4), (4,)),   # input width vs wx
        ((5, 3), (3, 4), (4, 3), (4,)),   # wh not square
        ((5, 3), (3, 4), (3, 3), (3,)),   # wx vs wh
        ((5, 3), (3, 4), (4, 4), (3,)),   # bias width
        ((5,), (3, 4), (4, 4), (4,)),     # input rank
    ])
    def test_bad_shapes_rejected(self, x_shape, wx_shape, wh_shape, b_shape):
        weights = [np.zeros(wx_shape), np.zeros(wh_shape), np.zeros(b_shape)]
        with pytest.raises(DimensionError):
            tanh_birnn(np.zeros(x_shape), weights, weights)

    @pytest.mark.parametrize("which", [0, 1, 2, None])
    def test_directions_must_agree(self, which):
        # the backward direction takes one weight (None: all three) of a
        # 5-wide recurrence; either direction alone would fit x
        fwd = [np.zeros((3, 4)), np.zeros((4, 4)), np.zeros(4)]
        wide = [np.zeros((3, 5)), np.zeros((5, 5)), np.zeros(5)]
        bwd = wide if which is None else \
            fwd[:which] + [wide[which]] + fwd[which + 1:]
        with pytest.raises(DimensionError, match="tanh_birnn"):
            tanh_birnn(np.zeros((2, 3)), fwd, bwd)


class TestAttentionCore:
    def test_single_head_matches_numpy_oracle(self):
        rng = np.random.default_rng(10)
        q, k, v = rand(rng, 2, 3, 4), rand(rng, 2, 5, 4), rand(rng, 2, 5, 4)
        logits = q @ k.transpose(0, 2, 1) / 2.0
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w /= w.sum(axis=-1, keepdims=True)
        out = attention_core(Tensor(q), Tensor(k), Tensor(v), 1)
        npt.assert_allclose(out.data, w @ v, atol=1e-12, rtol=0)

    def test_heads_attend_over_their_own_channels(self):
        rng = np.random.default_rng(11)
        q, k, v = rand(rng, 1, 3, 6), rand(rng, 1, 4, 6), rand(rng, 1, 4, 6)
        both = attention_core(Tensor(q), Tensor(k), Tensor(v), 2).data
        for h in range(2):
            sl = slice(3 * h, 3 * h + 3)
            one = attention_core(Tensor(q[..., sl]), Tensor(k[..., sl]),
                                 Tensor(v[..., sl]), 1).data
            npt.assert_allclose(both[..., sl], one, atol=1e-12, rtol=0)


class TestBackward:
    def test_linear_gradient_is_input(self):
        x = np.array([1.5, -2.0, 0.5])
        w = Parameter(np.array([0.3, 0.7, -1.1]), "w")
        loss = tsum(mul(w, Tensor(x)))
        backward(loss)
        npt.assert_array_equal(w.grad, x)

    def test_unused_parameter_keeps_zero_grad(self):
        used = Parameter(np.ones(3), "used")
        unused = Parameter(np.ones(3), "unused")
        backward(tsum(used))
        npt.assert_array_equal(unused.grad, np.zeros(3))
        npt.assert_array_equal(used.grad, np.ones(3))

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(np.zeros(3)))

    def test_loss_without_tape_rejected(self):
        w = Parameter(np.ones(2), "w")
        with no_grad():
            untaped = tsum(mul(w, 2.0))
        for loss in (untaped, Tensor(1.5)):
            with pytest.raises(ContractError, match="no tape"):
                backward(loss)
        npt.assert_array_equal(w.grad, np.zeros(2))

    def test_parameter_loss_accepted(self):
        w = Parameter(np.array(3.0), "w")
        backward(w)
        npt.assert_array_equal(w.grad, 1.0)

    def test_accumulation_is_additive(self):
        w = Parameter(np.ones(2), "w")
        backward(tsum(w))
        backward(tsum(mul(w, 2.0)))
        npt.assert_array_equal(w.grad, np.full(2, 3.0))
        zero_grads([w])
        npt.assert_array_equal(w.grad, np.zeros(2))

    def test_shared_subexpression_accumulates(self):
        w = Parameter(np.array([2.0]), "w")
        loss = tsum(mul(w, w))  # d/dw w^2 = 2w
        backward(loss)
        npt.assert_allclose(w.grad, [4.0])

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(6)
        w = Parameter(rand(rng, 4, 4), "w")
        x = Tensor(rand(rng, 3, 4))

        def run():
            zero_grads([w])
            y = softmax(matmul(x, w), axis=1)
            backward(tsum(mul(y, y)))
            return w.grad.copy()

        first, second = run(), run()
        assert (first == second).all()


# one finite-difference case per primitive, 20 random shapes each
PRIMITIVES = {
    "add": lambda p, c: add(p, Tensor(c)),
    "add_broadcast": lambda p, c: add(reshape(p, (1,) + p.shape), Tensor(c[:2, None])),
    "sub": lambda p, c: sub(Tensor(c), p),
    "mul": lambda p, c: mul(p, Tensor(c)),
    "power": lambda p, c: power(add(mul(p, p), 0.5), 1.7),
    "exp": lambda p, c: texp(p),
    "log": lambda p, c: tlog(add(mul(p, p), 0.5)),
    "tanh": lambda p, c: tanh(p),
    "softplus": lambda p, c: softplus(p),
    "gelu": lambda p, c: gelu(p),
    "softmax": lambda p, c: softmax(p, axis=-1),
    "sum_axis": lambda p, c: tsum(p, axis=1, keepdims=True),
    "mean": lambda p, c: tmean(p, axis=0),
    "reshape": lambda p, c: reshape(p, (p.size,)),
    "transpose": lambda p, c: transpose(p, (2, 0, 1)),
    "concat": lambda p, c: concat([p, Tensor(c), p], axis=1),
    "getitem": lambda p, c: getitem(p, (slice(1, 3), slice(None), 1)),
    "broadcast": lambda p, c: broadcast_to(reshape(p, (1,) + p.shape),
                                           (4,) + p.shape),
    "take_rows": lambda p, c: take_rows(p, np.array([0, 2, 2, 1])),
    "matmul": lambda p, c: matmul(p, Tensor(np.swapaxes(c, -1, -2))),
    "layer_norm": lambda p, c: layer_norm(p, Tensor(np.ones(p.shape[-1])),
                                          Tensor(np.zeros(p.shape[-1])), 1e-5),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_match_finite_differences(name):
    op = PRIMITIVES[name]
    for trial in range(20):
        rng = np.random.default_rng([7, trial])
        p = Parameter(rand(rng, 3, 4, 5), name)
        c = rand(rng, 3, 4, 5)
        r = rand(rng, 1)  # projection weights fixed per trial
        proj = Tensor(rng.uniform(-1, 1, size=op(p, c).shape))

        def build():
            return tsum(mul(op(p, c), proj))

        worst = check_parameter_gradients(build, [p], max_coords=6,
                                          seed=trial, floor=1e-3)
        assert worst[name] <= 1e-5, f"{name} trial {trial}: {worst[name]}"


def check_every_parent(op, shapes, trials=5):
    """Finite-difference check of ``op`` with every input a Parameter."""
    for trial in range(trials):
        rng = np.random.default_rng([11, trial])
        params = [Parameter(rand(rng, *shape), f"in{i}")
                  for i, shape in enumerate(shapes)]
        proj = rng.uniform(-1, 1, size=op(*params).shape)

        def build():
            return tsum(mul(op(*params), proj))

        worst = check_parameter_gradients(build, params, max_coords=8,
                                          seed=trial, floor=1e-3)
        assert max(worst.values()) <= 1e-5, f"trial {trial}: {worst}"


@pytest.mark.parametrize("x_shape", [(3,), (4, 3), (2, 4, 3)])
def test_linear_gradients_every_parent(x_shape):
    check_every_parent(linear, [x_shape, (3, 5), (5,)])


@pytest.mark.parametrize("x_shape", [(6,), (4, 6), (2, 3, 6)])
def test_layer_norm_gradients_every_parent(x_shape):
    check_every_parent(lambda x, g, b: layer_norm(x, g, b, 1e-5),
                       [x_shape, (6,), (6,)])


@pytest.mark.parametrize("k", [3, 2])  # k=2 pads 1 row before, 0 after
@pytest.mark.parametrize("frames", [1, 5])
def test_conv1d_same_gradients_every_parent(k, frames):
    check_every_parent(conv1d_same, [(frames, 3), (k, 3, 4), (4,)])


@pytest.mark.parametrize("frames", [1, 5])
def test_tanh_birnn_gradients_every_parent(frames):
    # weights scaled down so the states stay off tanh's flat tails
    check_every_parent(
        lambda x, wxf, whf, bf, wxb, whb, bb: tanh_birnn(
            x, (mul(wxf, 0.5), mul(whf, 0.5), bf),
            (mul(wxb, 0.5), mul(whb, 0.5), bb)),
        [(frames, 3), (3, 4), (4, 4), (4,), (3, 4), (4, 4), (4,)])


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("frames", [1, 5])
def test_tanh_rnn_gradients_every_parent(reverse, frames):
    # one direction's weights are Parameters, the other's are constant
    # arrays, so each direction's gradient path is checked on its own
    rng = np.random.default_rng([12, frames])
    fixed = (0.5 * rand(rng, 3, 4), 0.5 * rand(rng, 4, 4), rand(rng, 4))

    def op(x, wx, wh, b):
        trained = (mul(wx, 0.5), mul(wh, 0.5), b)
        return (tanh_birnn(x, fixed, trained) if reverse
                else tanh_birnn(x, trained, fixed))

    check_every_parent(op, [(frames, 3), (3, 4), (4, 4), (4,)])


def test_attention_core_gradients_every_parent():
    # 2 heads, 3 queries against 5 keys
    check_every_parent(lambda q, k, v: attention_core(q, k, v, 2),
                       [(2, 3, 4), (2, 5, 4), (2, 5, 4)])


# constant operands are numpy arrays or Python scalars, never tape nodes
CONSTANT_PATHS = {
    "add_scalar": lambda p, c: add(p, 0.75),
    "add_array_broadcast": lambda p, c: add(c, getitem(p, 0)),
    "sub_scalar": lambda p, c: sub(p, 1.5),
    "sub_from_array": lambda p, c: sub(c, p),
    "sub_from_array_broadcast": lambda p, c: sub(c, getitem(p, 1)),
    "mul_scalar": lambda p, c: mul(p, -1.25),
    "mul_array_broadcast": lambda p, c: mul(c, getitem(p, 2)),
    "concat_with_array": lambda p, c: concat([p, c], axis=1),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_PATHS))
def test_constant_operand_paths(name):
    op = CONSTANT_PATHS[name]
    for trial in range(5):
        rng = np.random.default_rng([13, trial])
        p = Parameter(rand(rng, 3, 4, 5), name)
        c = rand(rng, 3, 4, 5)
        out = op(p, c)
        stack = [out]
        while stack:  # the only leaf on the tape is p
            node = stack.pop()
            assert node.parents or node is p, "a constant became a tape node"
            stack.extend(node.parents)
        proj = rng.uniform(-1, 1, size=out.shape)

        def build():
            return tsum(mul(op(p, c), proj))

        worst = check_parameter_gradients(build, [p], max_coords=8,
                                          seed=trial, floor=1e-3)
        assert worst[name] <= 1e-5, f"{name} trial {trial}: {worst[name]}"


def test_operators_on_tensors_are_refused():
    # ops are the module's functions only: an operator with a Tensor
    # operand, beside an ndarray too, raises rather than building a tape
    # node or an object array
    rng = np.random.default_rng(17)
    p = Parameter(rand(rng, 3, 4), "p")
    for other in (rand(rng, 3, 4), 0.5, Tensor(rand(rng, 3, 4))):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for a, b in ((other, p), (p, other)):
                with pytest.raises(TypeError):
                    op(a, b)
    for op in (operator.neg, lambda a: a[0]):
        with pytest.raises(TypeError):
            op(p)
    for name in ("reshape", "transpose", "sum", "mean"):
        assert not hasattr(p, name)


def test_ndarray_matmul_tensor_is_refused():
    with pytest.raises(TypeError):
        np.ones((2, 3)) @ Parameter(np.ones((3, 2)), "p")


def test_constant_paths_match_lifted_constants_bit_for_bit():
    rng = np.random.default_rng(14)
    x, c = Tensor(rand(rng, 3, 4)), rand(rng, 3, 4)
    for op in (add, sub, mul):
        npt.assert_array_equal(op(x, c).data, op(x, Tensor(c)).data)
        npt.assert_array_equal(op(c, x).data, op(Tensor(c), x).data)
        npt.assert_array_equal(op(x, 0.3).data, op(x, Tensor(0.3)).data)


def test_ops_on_constants_alone_are_constants():
    c = np.arange(6.0).reshape(2, 3)
    for out in (add(c, 1.0), mul(2.0, c), tsum(c, axis=0),
                concat([c, c], axis=0), linear(c, np.ones((3, 2)), np.ones(2))):
        assert out.parents == () and out.vjp is None


def test_values_finite_after_forward_chain():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(4, 6)))
    y = softmax(linear(x, Tensor(rand(rng, 6, 6)), Tensor(rand(rng, 6))), axis=1)
    z = layer_norm(y, Tensor(np.ones(6)), Tensor(np.zeros(6)), 1e-5)
    assert np.isfinite(z.data).all()


@dataclass(frozen=True)
class _Sizes:
    width: int = 3


class _Leaf(Module):
    def __init__(self, tag):
        self.b = Parameter(np.zeros(1), f"{tag}.b")
        self.a = Parameter(np.zeros(1), f"{tag}.a")


class _Tree(Module):
    def __init__(self):
        self.sizes = _Sizes()
        self.count = 4
        self.z = Parameter(np.zeros(1), "z")
        self.leaf = _Leaf("leaf")
        self.rounds = [_Leaf("r0"), [_Leaf("r1")]]
        self.pair = (Parameter(np.zeros(1), "p"), Tensor(np.ones(2)))
        self.tag = "tree"
        self.last = Parameter(np.zeros(1), "last")


def test_module_parameters_are_held_tensors_in_assignment_order():
    tree = _Tree()
    plain = tree.pair[1]
    # a reassigned attribute keeps the place of its first assignment
    tree.z = Parameter(np.zeros(1), "z2")
    assert [getattr(t, "name", t is plain) for t in tree.parameters()] == [
        "z2", "leaf.b", "leaf.a", "r0.b", "r0.a", "r1.b", "r1.a", "p", True,
        "last"]
    assert Module().parameters() == []
