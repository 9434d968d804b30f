"""Residual attention blocks: the self- and cross-attention interaction layers.

Both layers share the same skeleton: multi-head attention, a residual add,
layer normalization, a two-layer MLP, another residual add and a second
layer normalization.  Normalization is applied *after* each residual add
(post-norm), and attention logits are scaled by 1/sqrt(head_dim).

No dropout and no positional encoding anywhere: determinism matters more
than regularization at this scale, and order information enters the model
only through the learnable speaker embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import (Parameter, add, attention_core, gelu, init_uniform,
                     layer_norm, linear)

DEFAULT_LN_EPS = 1e-5


@dataclass(frozen=True)
class AttentionConfig:
    """Width settings for one attention block."""

    model_dim: int
    num_heads: int
    mlp_hidden: int

    def __post_init__(self):
        if self.model_dim < 1 or self.num_heads < 1 or self.mlp_hidden < 1:
            raise ContractError(f"attention dims must be >= 1: {self}")
        if self.model_dim % self.num_heads != 0:
            raise ContractError(
                f"model_dim {self.model_dim} not divisible by "
                f"num_heads {self.num_heads}")

    @property
    def head_dim(self):
        return self.model_dim // self.num_heads


class _AttentionBlock:
    """Projection + MLP + norm parameters shared by SAL and CAL."""

    def __init__(self, cfg: AttentionConfig, rng, name, ln_eps=DEFAULT_LN_EPS):
        d, h = cfg.model_dim, cfg.mlp_hidden
        self.cfg = cfg
        self.name = name
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

    def mlp(self, x):
        return linear(gelu(linear(x, self.w1, self.b1)), self.w2, self.b2)


class SALayer(_AttentionBlock):
    """Self-attention interaction layer (square projections model_dim->model_dim)."""


class CALayer(_AttentionBlock):
    """Cross-attention interaction layer: queries from one modality,
    keys/values from the other; both must carry model_dim channels."""


def _check_tokens(x, model_dim, who):
    if x.ndim != 3:
        raise DimensionError(f"{who}: expected [batch, length, dim], got {x.shape}")
    if x.shape[-1] != model_dim:
        raise DimensionError(
            f"{who}: channel dim {x.shape[-1]} != model_dim {model_dim}")


def _attend(q, k, v, layer, return_weights):
    core = attention_core(q, k, v, layer.cfg.num_heads, return_weights)
    if return_weights:
        core, weights = core
        return linear(core, layer.wo, layer.bo), weights
    return linear(core, layer.wo, layer.bo)


def mhsa(x, layer: SALayer, return_weights=False):
    """Scaled dot-product multi-head self-attention over [B, L, D] tokens."""
    _check_tokens(x, layer.cfg.model_dim, "mhsa")
    q = linear(x, layer.wq, layer.bq)
    k = linear(x, layer.wk, layer.bk)
    v = linear(x, layer.wv, layer.bv)
    return _attend(q, k, v, layer, return_weights)


def mhca(x, y, layer: CALayer, return_weights=False):
    """Multi-head cross-attention: queries from x [B, Lx, D], keys/values
    from y [B, Ly, D]; output follows the query length."""
    _check_tokens(x, layer.cfg.model_dim, "mhca query")
    _check_tokens(y, layer.cfg.model_dim, "mhca key/value")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(
            f"mhca batch dims disagree: {x.shape} vs {y.shape}")
    q = linear(x, layer.wq, layer.bq)
    k = linear(y, layer.wk, layer.bk)
    v = linear(y, layer.wv, layer.bv)
    return _attend(q, k, v, layer, return_weights)


def sal_forward(x, layer: SALayer):
    """Post-norm residual self-attention block:
    z = LN(x + MHSA(x)); out = LN(z + MLP(z))."""
    z = layer_norm(add(x, mhsa(x, layer)), layer.ln1_g, layer.ln1_b, layer.ln_eps)
    return layer_norm(add(z, layer.mlp(z)), layer.ln2_g, layer.ln2_b, layer.ln_eps)


def cal_forward(x, y, layer: CALayer):
    """Post-norm residual cross-attention block:
    z = LN(x + MHCA(x, y, y)); out = LN(z + MLP(z))."""
    z = layer_norm(add(x, mhca(x, y, layer)), layer.ln1_g, layer.ln1_b, layer.ln_eps)
    return layer_norm(add(z, layer.mlp(z)), layer.ln2_g, layer.ln2_b, layer.ln_eps)
