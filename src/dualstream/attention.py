"""The residual attention block behind every interaction layer.

Self-attention (SAL) and cross-attention (CAL) are one block type:
multi-head attention, a residual add, layer normalization, a two-layer
MLP, another residual add and a second layer normalization; self-attention
is cross-attention of a sequence with itself.  Normalization is applied
*after* each residual add (post-norm), and attention logits are scaled by
1/sqrt(head_dim), and every layer normalization adds ``LN_EPS`` to its
variance.  The block's numpy kernels below check nothing:
``AttentionBlock`` checks its heads once, ``_block`` its tokens.  Each
kernel computes into arrays it allocated itself and writes into nothing it
was given (an argument, a saved forward array, an incoming gradient), with
the same operations in the same order as their allocating forms, so the
in-place forms round the same.

No dropout and no positional encoding anywhere: determinism matters more
than regularization at this scale.  The learnable speaker embedding gives
each slot an identity, but nothing gives frame order: permuting a scene's
frames permutes the model's scores the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import (Module, Parameter, Tensor, aligned, gelu_backward,
                     gelu_forward, init_uniform, linear_backward, linear_forward,
                     op)

LN_EPS = 1e-5


class AttentionBlock(Module):
    """Projection, MLP and norm parameters of one block of width ``dim`` in
    ``heads`` heads: a SAL or a CAL, depending only on its key/value input."""

    def __init__(self, dim, heads, mlp_hidden, rng, name):
        if heads < 1 or dim % heads != 0:
            raise DimensionError(
                f"attention: {dim} channels do not split into {heads} heads")
        d, h = dim, mlp_hidden
        self.heads = heads

        def lin(tag, din, dout):
            w = Parameter(init_uniform(rng, din, (din, dout)), f"{name}.{tag}_w")
            b = Parameter(np.zeros(dout), f"{name}.{tag}_b")
            return w, b

        self.wq, self.bq = lin("q", d, d)
        self.wk, self.bk = lin("k", d, d)
        self.wv, self.bv = lin("v", d, d)
        self.wo, self.bo = lin("o", d, d)
        self.w1, self.b1 = lin("mlp1", d, h)
        self.w2, self.b2 = lin("mlp2", h, d)
        self.ln1_g = Parameter(np.ones(d), f"{name}.ln1_g")
        self.ln1_b = Parameter(np.zeros(d), f"{name}.ln1_b")
        self.ln2_g = Parameter(np.ones(d), f"{name}.ln2_g")
        self.ln2_b = Parameter(np.zeros(d), f"{name}.ln2_b")


def _check_tokens(x, model_dim, who):
    if x.ndim != 3:
        raise DimensionError(f"{who}: expected [batch, length, dim], got {x.shape}")
    if x.shape[-1] != model_dim:
        raise DimensionError(
            f"{who}: channel dim {x.shape[-1]} != model_dim {model_dim}")


def layer_norm_forward(x, gamma, beta, eps=LN_EPS):
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    Returns the output and the (xhat, 1 / sqrt(var + eps)) its backward
    reuses.
    """
    inv_c = 1.0 / float(x.shape[-1])
    xhat = x - x.sum(axis=-1, keepdims=True) * inv_c  # centered, for now
    inv = ((xhat * xhat).sum(axis=-1, keepdims=True) * inv_c + eps) ** -0.5
    xhat *= inv
    out = xhat * gamma
    if beta.ndim == 1:  # a batch rule's [P, 1, ..., D] shift can be wider
        out += beta
        return out, (xhat, inv)
    return out + beta, (xhat, inv)


def layer_norm_backward(g, gamma, saved):
    """Gradients for (x, gamma, beta), with the standard closed form (Ba et
    al., 2016): with gx_hat = g * gamma,
    dx = (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat)) / sqrt(var + eps).
    """
    xhat, inv = saved
    c = gamma.shape[0]
    gx = g * gamma  # gx_hat, for now
    t = gx * xhat
    # sum / c is what ndarray.mean computes, without its Python wrapper
    mean_gx_xhat = t.sum(axis=-1, keepdims=True) / c
    gx -= gx.sum(axis=-1, keepdims=True) / c
    np.multiply(xhat, mean_gx_xhat, out=t)
    gx -= t
    gx *= inv
    np.multiply(g, xhat, out=t)
    return gx, t.reshape(-1, c).sum(axis=0), g.reshape(-1, c).sum(axis=0)


def _split_heads(t, num_heads):  # [..., L, D] -> [..., heads, L, D / heads]
    *lead, length, d = t.shape
    return t.reshape(*lead, length, num_heads, d // num_heads).swapaxes(-3, -2)


def _merge_heads(t):  # [..., heads, L, hd] -> [..., L, heads * hd]
    *lead, num_heads, length, hd = t.shape
    return t.swapaxes(-3, -2).reshape(*lead, length, num_heads * hd)


def attention_forward(q, k, v, num_heads):
    """Multi-head scaled dot-product attention core.

    q [..., B, Lq, D] and k, v [..., B, Lk, D], whose leading dims
    broadcast, are split into ``num_heads`` heads of D / num_heads channels;
    each head computes softmax(q k^T / sqrt(hd)) v over the keys, and the
    heads are merged back to [..., B, Lq, D].  Returns the output and the
    split q/k/v and softmax weights the backward recomputes from (as in Dao
    et al., 2022).

    The softmax shifts each row by its ``np.fmax.reduce``, which numpy
    computes faster than ``max`` (ROADMAP item 9 has the timings) and which
    keeps the weights' bits: on a row without a NaN the two give the same
    value (a tie of 0.0 and -0.0 may differ in sign, which exp(0) = exp(-0)
    = 1 erases), and a row holding a NaN gives all-NaN weights either way.
    """
    qh, kh, vh = (_split_heads(t, num_heads) for t in (q, k, v))
    w = qh @ kh.swapaxes(-1, -2)  # the logits, then the softmax weights
    w *= 1.0 / np.sqrt(float(qh.shape[-1]))
    w -= np.fmax.reduce(w, axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return _merge_heads(w @ vh), (qh, kh, vh, w)


def attention_backward(g, saved):
    """Gradients for (q, k, v)."""
    qh, kh, vh, weights = saved
    scale = 1.0 / np.sqrt(float(qh.shape[-1]))
    gh = _split_heads(g, qh.shape[-3])
    gl = gh @ vh.swapaxes(-1, -2)  # the weights' gradient, then the logits'
    gv = weights.swapaxes(-1, -2) @ gh
    gl -= (gl * weights).sum(axis=-1, keepdims=True)
    gl *= weights
    gl *= scale
    return (_merge_heads(gl @ kh), _merge_heads(gl.swapaxes(-1, -2) @ qh),
            _merge_heads(gv))


def block_forward(xd, yd, weights, heads):
    """The block's forward on arrays: query tokens ``xd`` [..., B, Lq, D]
    attend to ``yd`` [..., B, Lk, D] with the 16 ``weights``, in
    ``AttentionBlock.parameters`` order, each [..., *shape]; the leading
    dims broadcast.  It replays, in the same order, the op chain q/k/v
    projections, attention core, output projection, x + attention, layer
    norm, MLP, z + MLP(z), layer norm; so its output is bit-identical to
    that chain's.  Returns the output and what the backward reads."""
    wq, bq, wk, bk, wv, bv, wo, bo, w1, b1, w2, b2, g1, be1, g2, be2 = weights
    core, att = attention_forward(linear_forward(xd, wq, bq),
                                  linear_forward(yd, wk, bk),
                                  linear_forward(yd, wv, bv), heads)
    # the residual adds write into the sublayer's output, which the probe
    # axis of a batch rule reaches whenever it reaches xd or z
    s1 = linear_forward(core, wo, bo)
    s1 += xd
    z, ln1 = layer_norm_forward(s1, g1, be1)
    h = linear_forward(z, w1, b1)
    u, phi = gelu_forward(h)
    s2 = linear_forward(u, w2, b2)
    s2 += z
    out, ln2 = layer_norm_forward(s2, g2, be2)
    return out, (core, att, z, ln1, h, u, phi, ln2)


def _block_probes(fn, moved, x, y, params, heads):
    """``_block``'s batch rule: one ``block_forward`` for all probes, moved
    tokens [P, B, L, D] as they are and a moved weight aligned to [P, 1,
    ..., *shape] against them."""
    return block_forward(x.data, y.data, [aligned(p, moved, 3) for p in params],
                         heads)[0]


@op(batch=_block_probes)
def _block(x: Tensor, y: Tensor, params, heads):
    """The post-norm residual block (``block_forward``) as one tape node.

    The parents are x, y (once when ``x is y``) and the 16 block parameters
    ``params``, in ``AttentionBlock.parameters`` order.
    """
    d = params[0].shape[0]
    _check_tokens(x, d, "attention query")
    _check_tokens(y, d, "attention key/value")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(
            f"attention batch dims disagree: {x.shape} vs {y.shape}")
    xd, yd = x.data, y.data
    weights = [p.data for p in params]
    out, (core, att, z, ln1, h, u, phi, ln2) = block_forward(xd, yd, weights,
                                                             heads)
    # the weight matrices and layer-norm gains, the arrays the backward reads
    wq, wk, wv, wo, w1, w2, g1, g2 = weights[0::2]
    self_attention = x is y

    def vjp(g, need):
        gs2, gg2, gbe2 = layer_norm_backward(g, g2, ln2)
        gu, gw2, gb2 = linear_backward(gs2, u, w2)
        gz, gw1, gb1 = linear_backward(gelu_backward(gu, h, phi), z, w1)
        gz += gs2
        gs1, gg1, gbe1 = layer_norm_backward(gz, g1, ln1)
        gcore, gwo, gbo = linear_backward(gs1, core, wo)
        gq, gk, gv = attention_backward(gcore, att)
        gyv, gwv, gbv = linear_backward(gv, yd, wv)
        gyk, gwk, gbk = linear_backward(gk, yd, wk)
        gxq, gwq, gbq = linear_backward(gq, xd, wq)
        # x's and y's terms summed in the order the op chain's tape added
        # them: the residual, then v, k and q
        if self_attention:
            gs1 += gyv
            gs1 += gyk
            gs1 += gxq
            inputs = [gs1]
        else:
            gs1 += gxq
            gyv += gyk
            inputs = [gs1, gyv]
        return inputs + [gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo, gw1, gb1,
                         gw2, gb2, gg1, gbe1, gg2, gbe2]

    return out, ((x,) if self_attention else (x, y)) + tuple(params), vjp


def sal_forward(x, layer: AttentionBlock):
    """Post-norm residual self-attention block:
    z = LN(x + MHSA(x)); out = LN(z + MLP(z))."""
    return _block(x, x, layer.parameters(), layer.heads)


def cal_forward(x, y, layer: AttentionBlock):
    """Post-norm residual cross-attention block:
    z = LN(x + MHCA(x, y, y)); out = LN(z + MLP(z))."""
    return _block(x, y, layer.parameters(), layer.heads)
