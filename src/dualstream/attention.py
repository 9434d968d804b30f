"""The residual attention block behind every interaction layer.

Self-attention (SAL) and cross-attention (CAL) are one block type:
multi-head attention, a residual add, layer normalization, a two-layer
MLP, another residual add and a second layer normalization; self-attention
is cross-attention of a sequence with itself.  Normalization is applied
*after* each residual add (post-norm), and attention logits are scaled by
1/sqrt(head_dim).

No dropout and no positional encoding anywhere: determinism matters more
than regularization at this scale, and order information enters the model
only through the learnable speaker embedding.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import (Parameter, Tensor, attention_backward, attention_forward,
                     gelu_backward, gelu_forward, init_uniform,
                     layer_norm_backward, layer_norm_forward, linear_backward,
                     linear_forward, record)


class AttentionBlock:
    """Projection, MLP and norm parameters of one block of width ``dim``
    (``ModelConfig`` checks that ``heads`` divides it); it serves as SAL or
    as CAL, depending only on its key/value input."""

    def __init__(self, dim, heads, mlp_hidden, rng, name, ln_eps):
        d, h = dim, mlp_hidden
        self.heads = heads
        self.ln_eps = float(ln_eps)

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

    def parameters(self):
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv,
                self.wo, self.bo, self.w1, self.b1, self.w2, self.b2,
                self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b]


def _check_tokens(x, model_dim, who):
    if x.ndim != 3:
        raise DimensionError(f"{who}: expected [batch, length, dim], got {x.shape}")
    if x.shape[-1] != model_dim:
        raise DimensionError(
            f"{who}: channel dim {x.shape[-1]} != model_dim {model_dim}")


def _block(x: Tensor, y: Tensor, layer):
    """The post-norm residual block as one tape node.

    The forward replays, on arrays and in the same order, the op chain
    q/k/v projections, attention core, output projection, x + attention,
    layer norm, MLP, z + MLP(z), layer norm; so its output is bit-identical
    to that chain's.  The parents are x, y (once when ``x is y``) and the 16
    block parameters.
    """
    d = layer.wq.shape[0]
    _check_tokens(x, d, "attention query")
    _check_tokens(y, d, "attention key/value")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(
            f"attention batch dims disagree: {x.shape} vs {y.shape}")
    params = layer.parameters()
    wq, bq, wk, bk, wv, bv, wo, bo, w1, b1, w2, b2, g1, be1, g2, be2 = (
        p.data for p in params)
    xd, yd, eps = x.data, y.data, layer.ln_eps
    core, att = attention_forward(linear_forward(xd, wq, bq),
                                  linear_forward(yd, wk, bk),
                                  linear_forward(yd, wv, bv), layer.heads)
    z, ln1 = layer_norm_forward(xd + linear_forward(core, wo, bo), g1, be1, eps)
    h = linear_forward(z, w1, b1)
    u, phi = gelu_forward(h)
    out, ln2 = layer_norm_forward(z + linear_forward(u, w2, b2), g2, be2, eps)
    self_attention = x is y

    def vjp(g, need):
        gs2, gg2, gbe2 = layer_norm_backward(g, g2, ln2)
        gu, gw2, gb2 = linear_backward(gs2, u, w2)
        gz, gw1, gb1 = linear_backward(gelu_backward(gu, h, phi), z, w1)
        gs1, gg1, gbe1 = layer_norm_backward(gs2 + gz, g1, ln1)
        gcore, gwo, gbo = linear_backward(gs1, core, wo)
        gq, gk, gv = attention_backward(gcore, att)
        gyv, gwv, gbv = linear_backward(gv, yd, wv)
        gyk, gwk, gbk = linear_backward(gk, yd, wk)
        gxq, gwq, gbq = linear_backward(gq, xd, wq)
        # x's and y's terms summed in the order the op chain's tape added
        # them: the residual, then v, k and q
        if self_attention:
            inputs = [gs1 + gyv + gyk + gxq]
        else:
            inputs = [gs1 + gxq, gyv + gyk]
        return inputs + [gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo, gw1, gb1,
                         gw2, gb2, gg1, gbe1, gg2, gbe2]

    return record(out, ((x,) if self_attention else (x, y)) + tuple(params), vjp)


def sal_forward(x, layer: AttentionBlock):
    """Post-norm residual self-attention block:
    z = LN(x + MHSA(x)); out = LN(z + MLP(z))."""
    return _block(x, x, layer)


def cal_forward(x, y, layer: AttentionBlock):
    """Post-norm residual cross-attention block:
    z = LN(x + MHCA(x, y, y)); out = LN(z + MLP(z))."""
    return _block(x, y, layer)
