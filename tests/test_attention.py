"""Attention blocks against straight-line per-position oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import erf

from dualstream.attention import (LN_EPS, AttentionBlock, attention_backward,
                                  attention_forward, cal_forward,
                                  layer_norm_backward, layer_norm_forward,
                                  sal_forward)
from dualstream.errors import DimensionError
from dualstream.gradcheck import check_parameter_gradients
from dualstream.tensor import (Parameter, Tensor, add, backward, gelu,
                               gelu_backward, gelu_forward, linear,
                               linear_backward, linear_forward, mul, reshape,
                               transpose, tsum, zero_grads)

from oracles import attention_core, layer_norm, matmul, softmax
from test_tensor import check_every_parent


def make_sal(dim, heads, rng, hidden=None):
    return AttentionBlock(dim, heads, hidden or 4 * dim, rng, "sal")


def make_cal(dim, heads, rng, hidden=None):
    return AttentionBlock(dim, heads, hidden or 4 * dim, rng, "cal")


def head_dim(layer):
    return layer.wq.shape[0] // layer.heads


def gelu_np(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def ln_np(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def attention_oracle(q_in, kv_in, layer):
    """Loop over heads and query positions, softmax weights made explicit."""
    hd = head_dim(layer)
    q = q_in @ layer.wq.data + layer.bq.data
    k = kv_in @ layer.wk.data + layer.bk.data
    v = kv_in @ layer.wv.data + layer.bv.data
    b, lq, _ = q.shape
    lk = k.shape[1]
    merged = np.zeros((b, lq, layer.wq.shape[0]))
    for head in range(layer.heads):
        sl = slice(head * hd, (head + 1) * hd)
        for bi in range(b):
            for i in range(lq):
                logits = np.array([q[bi, i, sl] @ k[bi, j, sl] for j in range(lk)])
                logits /= np.sqrt(hd)
                w = np.exp(logits - logits.max())
                w /= w.sum()
                merged[bi, i, sl] = sum(w[j] * v[bi, j, sl] for j in range(lk))
    return merged @ layer.wo.data + layer.bo.data


def attend_composed(q_in, kv_in, layer):
    """The primitive composition the fused attention core replays: project,
    split heads, scaled QK^T, softmax, weight V, merge heads, project."""

    def proj(t, w, b):
        return add(matmul(t, w), b)

    def heads(t):
        b, length, _ = t.shape
        return transpose(reshape(t, (b, length, layer.heads, head_dim(layer))),
                         (0, 2, 1, 3))

    def merge(t):
        b, nh, length, hd = t.shape
        return reshape(transpose(t, (0, 2, 1, 3)), (b, length, nh * hd))

    qh = heads(proj(q_in, layer.wq, layer.bq))
    kh = heads(proj(kv_in, layer.wk, layer.bk))
    vh = heads(proj(kv_in, layer.wv, layer.bv))
    logits = mul(matmul(qh, transpose(kh, (0, 1, 3, 2))),
                 1.0 / np.sqrt(head_dim(layer)))
    weights = softmax(logits, axis=-1)
    return proj(merge(matmul(weights, vh)), layer.wo, layer.bo), weights


def mhca(x, y, layer):
    """The block's attention sub-layer as the tape it was before the block
    became one node: projections and attention core, one node each."""
    core = attention_core(linear(x, layer.wq, layer.bq),
                          linear(y, layer.wk, layer.bk),
                          linear(y, layer.wv, layer.bv), layer.heads)
    return linear(core, layer.wo, layer.bo)


def block_composed(x, y, layer):
    """The op chain the one-node block replays: residual add, layer norm,
    MLP, residual add, layer norm around ``mhca``."""
    z = layer_norm(add(x, mhca(x, y, layer)), layer.ln1_g, layer.ln1_b, LN_EPS)
    mlp = linear(gelu(linear(z, layer.w1, layer.b1)), layer.w2, layer.b2)
    return layer_norm(add(z, mlp), layer.ln2_g, layer.ln2_b, LN_EPS)


def block_oracle(q_in, kv_in, layer):
    """Straight-line transcription of the residual block equations."""
    attn = attention_oracle(q_in, kv_in, layer)
    z = ln_np(q_in + attn, layer.ln1_g.data, layer.ln1_b.data, LN_EPS)
    mlp = gelu_np(z @ layer.w1.data + layer.b1.data) @ layer.w2.data + layer.b2.data
    return ln_np(z + mlp, layer.ln2_g.data, layer.ln2_b.data, LN_EPS)


class TestMhsa:
    """Self-attention: ``mhca`` of a sequence with itself."""

    def test_single_token_is_value_path(self):
        rng = np.random.default_rng(0)
        layer = make_sal(8, 2, rng)
        x = rng.normal(size=(3, 1, 8))
        expected = (x @ layer.wv.data + layer.bv.data) @ layer.wo.data + layer.bo.data
        npt.assert_allclose(mhca(Tensor(x), Tensor(x), layer).data, expected, atol=1e-14)

    def test_shape_preserved(self):
        rng = np.random.default_rng(1)
        layer = make_sal(8, 4, rng)
        x = Tensor(rng.normal(size=(2, 4, 8)))
        out = mhca(x, x, layer)
        assert out.shape == (2, 4, 8)

    def test_matches_per_position_oracle_single_head(self):
        rng = np.random.default_rng(2)
        layer = make_sal(4, 1, rng)
        x = rng.normal(size=(1, 3, 4))
        npt.assert_allclose(mhca(Tensor(x), Tensor(x), layer).data,
                            attention_oracle(x, x, layer), atol=1e-10, rtol=0)

    def test_weights_row_stochastic(self):
        rng = np.random.default_rng(3)
        layer = make_sal(8, 2, rng)
        x = Tensor(rng.normal(size=(2, 5, 8)))
        _, w = attend_composed(x, x, layer)
        npt.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-9, rtol=0)

    def test_dim_mismatch(self):
        layer = make_sal(8, 2, np.random.default_rng(4))
        with pytest.raises(DimensionError):
            sal_forward(Tensor(np.zeros((1, 3, 6))), layer)

    def test_heads_must_divide_width(self):
        # ModelConfig refuses such a model; the block refuses it when built
        with pytest.raises(DimensionError, match="do not split into 4 heads"):
            make_sal(10, 4, np.random.default_rng(18))

    def test_heads_must_be_positive(self):
        with pytest.raises(DimensionError, match="do not split into 0 heads"):
            make_sal(8, 0, np.random.default_rng(18))

    def test_bad_tokens_rejected(self):
        # the block's kernels check nothing: _block refuses these per call
        layer = make_sal(8, 2, np.random.default_rng(20))
        tokens = Tensor(np.zeros((2, 3, 8)))
        with pytest.raises(DimensionError, match="query: expected"):
            sal_forward(Tensor(np.zeros((3, 8))), layer)
        with pytest.raises(DimensionError, match="key/value: expected"):
            cal_forward(tokens, Tensor(np.zeros((3, 8))), layer)
        with pytest.raises(DimensionError, match="key/value: channel dim 6"):
            cal_forward(tokens, Tensor(np.zeros((2, 5, 6))), layer)

    def test_matches_primitive_composition_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for heads in (1, 2, 4):
            layer = make_sal(8, heads, rng)
            x = Tensor(rng.normal(size=(3, 5, 8)))
            expected, _ = attend_composed(x, x, layer)
            npt.assert_array_equal(mhca(x, x, layer).data, expected.data)


class TestSalForward:
    def test_shape(self):
        rng = np.random.default_rng(5)
        layer = make_sal(8, 2, rng)
        assert sal_forward(Tensor(rng.normal(size=(1, 5, 8))), layer).shape == (1, 5, 8)

    @pytest.mark.parametrize("b,l,d", [(1, 4, 8), (4, 16, 8), (2, 9, 16), (3, 2, 16)])
    def test_shape_property(self, b, l, d):
        rng = np.random.default_rng([6, b, l, d])
        layer = make_sal(d, 2, rng)
        assert sal_forward(Tensor(rng.normal(size=(b, l, d))), layer).shape == (b, l, d)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        layer = make_sal(8, 2, rng)
        x = rng.normal(size=(2, 6, 8))
        perm = rng.permutation(6)
        out = sal_forward(Tensor(x), layer).data
        out_perm = sal_forward(Tensor(x[:, perm]), layer).data
        npt.assert_allclose(out_perm, out[:, perm], atol=1e-10)

    def test_matches_equation_transcription(self):
        rng = np.random.default_rng(8)
        layer = make_sal(8, 2, rng)
        x = rng.normal(size=(2, 5, 8))
        npt.assert_allclose(sal_forward(Tensor(x), layer).data,
                            block_oracle(x, x, layer), atol=1e-10, rtol=0)


class TestCalForward:
    def test_single_key_uniform_attention(self):
        rng = np.random.default_rng(9)
        layer = make_cal(8, 2, rng)
        x = rng.normal(size=(2, 4, 8))
        y = rng.normal(size=(2, 1, 8))
        attended = mhca(Tensor(x), Tensor(y), layer).data
        # with one key every query position receives the same value vector
        expected = (y @ layer.wv.data + layer.bv.data) @ layer.wo.data + layer.bo.data
        npt.assert_allclose(attended, np.broadcast_to(expected, attended.shape),
                            atol=1e-12)

    def test_output_follows_query_length(self):
        rng = np.random.default_rng(10)
        layer = make_cal(8, 2, rng)
        out = cal_forward(Tensor(rng.normal(size=(2, 4, 8))),
                          Tensor(rng.normal(size=(2, 7, 8))), layer)
        assert out.shape == (2, 4, 8)

    def test_key_permutation_invariance(self):
        rng = np.random.default_rng(11)
        layer = make_cal(8, 4, rng)
        x = rng.normal(size=(2, 4, 8))
        y = rng.normal(size=(2, 7, 8))
        base = cal_forward(Tensor(x), Tensor(y), layer).data
        for trial in range(5):
            perm = np.random.default_rng(trial).permutation(7)
            out = cal_forward(Tensor(x), Tensor(y[:, perm]), layer).data
            npt.assert_allclose(out, base, atol=1e-9, rtol=0)

    def test_matches_equation_transcription(self):
        rng = np.random.default_rng(12)
        layer = make_cal(8, 2, rng)
        x = rng.normal(size=(2, 4, 8))
        y = rng.normal(size=(2, 6, 8))
        npt.assert_allclose(cal_forward(Tensor(x), Tensor(y), layer).data,
                            block_oracle(x, y, layer), atol=1e-10, rtol=0)

    def test_matches_primitive_composition_bit_for_bit(self):
        rng = np.random.default_rng(16)
        for heads in (1, 2, 4):
            layer = make_cal(8, heads, rng)
            x = Tensor(rng.normal(size=(2, 4, 8)))
            y = Tensor(rng.normal(size=(2, 7, 8)))
            expected, _ = attend_composed(x, y, layer)
            npt.assert_array_equal(mhca(x, y, layer).data, expected.data)

    def test_batch_mismatch(self):
        rng = np.random.default_rng(13)
        layer = make_cal(8, 2, rng)
        with pytest.raises(DimensionError):
            cal_forward(Tensor(np.zeros((2, 4, 8))), Tensor(np.zeros((3, 4, 8))),
                        layer)


def test_block_gradients_match_finite_differences():
    rng = np.random.default_rng(14)
    sal = make_sal(4, 2, rng, hidden=8)
    cal = make_cal(4, 2, rng, hidden=8)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    y = Tensor(rng.normal(size=(2, 2, 4)))
    proj = Tensor(rng.normal(size=(2, 3, 4)))

    def build():
        a = sal_forward(x, sal)
        b = cal_forward(a, y, cal)
        return tsum(mul(b, proj))

    params = sal.parameters() + cal.parameters()
    worst = check_parameter_gradients(build, params, max_coords=4, seed=1)
    assert max(worst.values()) <= 1e-4, worst


BLOCK_PARAMS = ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "w1", "b1",
                "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b"]


def block_of(params):
    """A width-4, 2-head block with an MLP of 8 that uses ``params``."""
    layer = make_sal(4, 2, np.random.default_rng(0), hidden=8)
    for name, p in zip(BLOCK_PARAMS, params):
        setattr(layer, name, p)
    return layer


BLOCK_SHAPES = [p.shape for p in block_of([]).parameters()]


# (query tokens, key/value tokens, heads, MLP width, axes): width 8 at every
# head count, then the benchmark's [4, 48] scenes at width 32, in the
# time-stream layout (48 x 48 logits) and in the speaker-stream one, [48, 4]
# tokens held in time-stream memory order as the model's transpose leaves
# them.  Tokens and the loss weights are drawn in the shapes given, then
# transposed by ``axes``
BLOCK_CASES = [((3, 5, 8), (3, 4, 8), heads, 16, (0, 1, 2))
               for heads in (1, 2, 4)] + [
    ((4, 48, 32), (4, 48, 32), 4, 128, (0, 1, 2)),
    ((4, 48, 32), (4, 48, 32), 4, 128, (1, 0, 2))]


@pytest.mark.parametrize("self_attention", [True, False], ids=["sal", "cal"])
def test_one_node_block_matches_composed_tape_bit_for_bit(self_attention):
    rng = np.random.default_rng(17)
    for x_shape, y_shape, heads, hidden, axes in BLOCK_CASES:
        layer = make_sal(x_shape[-1], heads, rng, hidden=hidden)
        # non-zero biases and norm shifts, so every gradient term counts
        for p in layer.parameters():
            p.data[...] = p.data + rng.normal(scale=0.3, size=p.shape)
        x = Parameter(rng.normal(size=x_shape).transpose(axes), "x")
        y = x if self_attention else Parameter(
            rng.normal(size=y_shape).transpose(axes), "y")
        inputs = [x] if self_attention else [x, y]
        proj = rng.normal(size=x_shape).transpose(axes)
        params = inputs + layer.parameters()

        def fused():
            return sal_forward(x, layer) if self_attention else \
                cal_forward(x, y, layer)

        results = []
        for build in (fused, lambda: block_composed(x, y, layer)):
            zero_grads(params)
            out = build()
            backward(tsum(mul(out, proj)))
            results.append((out, [p.grad.copy() for p in params]))
        (fused, fused_grads), (composed, composed_grads) = results
        assert fused.parents == tuple(params)
        npt.assert_array_equal(fused.data, composed.data)
        for p, got, want in zip(params, fused_grads, composed_grads):
            npt.assert_array_equal(got, want, err_msg=p.name)


def read_only(a):
    """``a``, made read-only, so that a write into it raises."""
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("self_attention", [True, False], ids=["sal", "cal"])
def test_the_block_writes_into_nothing_it_was_given(self_attention):
    # the block's VJP may not write into its incoming g either: ``add``'s VJP
    # hands one g to both parents.  A second VJP call giving the same bits
    # shows it wrote into none of the forward arrays it saved
    rng = np.random.default_rng(23)
    layer = make_sal(8, 2, rng, hidden=16)
    x = Parameter(rng.normal(size=(3, 5, 8)), "x")
    y = x if self_attention else Parameter(rng.normal(size=(3, 4, 8)), "y")
    for p in [x, y] + layer.parameters():
        read_only(p.data)
    out = sal_forward(x, layer) if self_attention else cal_forward(x, y, layer)
    g = read_only(rng.normal(size=out.shape))
    first, second = out.vjp(g), out.vjp(g)
    assert len(first) == len(out.parents)
    for p, got, want in zip(out.parents, second, first):
        npt.assert_array_equal(got, want, err_msg=p.name)


def test_no_kernel_writes_into_what_it_was_given():
    rng = np.random.default_rng(29)

    def given(*shape):
        return read_only(rng.normal(size=shape))

    def frozen(saved):
        return tuple(read_only(a) for a in saved)

    x, g = given(3, 5, 8), given(3, 5, 8)
    gamma, beta = given(8), given(8)
    _, saved = layer_norm_forward(x, gamma, beta)
    layer_norm_backward(g, gamma, frozen(saved))
    _, phi = gelu_forward(x)
    gelu_backward(g, x, read_only(phi))
    _, saved = attention_forward(x, given(3, 4, 8), given(3, 4, 8), 2)
    attention_backward(g, frozen(saved))
    w, b = given(8, 8), given(8)
    linear_forward(x, w, b)
    linear_backward(g, x, w)


def scaled_block(params):
    # weights scaled down, as for tanh_birnn: at full U(-2, 2) weights the
    # central differences' step-squared truncation error alone reaches
    # 2.6e-5 (2.6e-7 at step 1e-5), above the 1e-5 bound
    return block_of([mul(p, 0.5) for p in params])


def test_one_node_self_attention_gradients_every_parent():
    check_every_parent(lambda x, *params: sal_forward(x, scaled_block(params)),
                       [(2, 3, 4)] + BLOCK_SHAPES)


def test_one_node_cross_attention_gradients_every_parent():
    check_every_parent(
        lambda x, y, *params: cal_forward(x, y, scaled_block(params)),
        [(2, 3, 4), (2, 5, 4)] + BLOCK_SHAPES)
