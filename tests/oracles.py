"""Tape ops the package no longer calls, kept as the oracles its fused nodes
must match.

``attention._block``, ``losses.masked_bce`` and ``losses.contrastive_av``
each replace a chain of these primitive ops with one tape node; the tests
rebuild those chains from the ops here and require the fused nodes to give
the chains' values bit for bit and their gradients bit for bit or to
rounding.  Their arithmetic is the package's former ops', unchanged; they
record their tape nodes through ``tensor.record``, so they honour
``no_grad``.  ``layer_norm`` and ``attention_core`` wrap the package's numpy
kernels as stand-alone tape nodes, so that each kernel is checked on its
own, as the fused block's former ops were.
"""

import numpy as np
from scipy.special import expit

from dualstream.errors import DimensionError
from dualstream.tensor import (Tensor, _data, _unbroadcast,
                               attention_backward, attention_forward,
                               layer_norm_backward, layer_norm_forward, record)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def sub(a, b):
    ad, bd = _data(a), _data(b)

    def vjp(g, need):
        return (_unbroadcast(g, ad.shape) if need[0] else None,
                _unbroadcast(-g, bd.shape) if need[1] else None)

    return record(ad - bd, (a, b), vjp)


def power(a, p):
    """Raise to a constant real exponent."""
    a, p = _lift(a), float(p)
    return record(a.data ** p, (a,),
                  lambda g, need: (g * p * a.data ** (p - 1.0),))


def texp(a):
    a = _lift(a)
    out = np.exp(a.data)
    return record(out, (a,), lambda g, need: (g * out,))


def tlog(a):
    a = _lift(a)
    return record(np.log(a.data), (a,), lambda g, need: (g / a.data,))


def tanh(a):
    a = _lift(a)
    out = np.tanh(a.data)
    return record(out, (a,), lambda g, need: (g * (1.0 - out * out),))


def softplus(a):
    """log(1 + exp(x)) in the overflow-safe split form."""
    a = _lift(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return record(out, (a,), lambda g, need: (g * expit(x),))


def matmul(a, b):
    """Batched matrix product over the last two axes.

    Leading axes broadcast numpy-style; gradients are summed back down to
    each operand's shape.
    """
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    for da, db in zip(a.shape[-3::-1], b.shape[-3::-1]):
        if da != db and da != 1 and db != 1:
            raise DimensionError(
                f"matmul batch dimensions incompatible: {a.shape} @ {b.shape}")

    def vjp(g, need):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return record(a.data @ b.data, (a, b), vjp)


def softmax(a, axis):
    """Max-shifted exp-normalize along ``axis``; rows sum to one."""
    a = _lift(a)
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g, need):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return record(out, (a,), vjp)


def take_rows(a, idx):
    """Gather rows along axis 0 by an integer index array."""
    a = _lift(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g, need):
        z = np.zeros(a.shape)
        np.add.at(z, idx, g)
        return (z,)

    return record(a.data[idx], (a,), vjp)


def layer_norm(x, gamma, beta, eps=1e-5):
    """``tensor.layer_norm_forward`` / ``_backward`` as one tape node."""
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    out, saved = layer_norm_forward(x.data, gamma.data, beta.data, eps)
    return record(out, (x, gamma, beta),
                  lambda g, need: layer_norm_backward(g, gamma.data, saved))


def attention_core(q, k, v, num_heads):
    """``tensor.attention_forward`` / ``_backward`` as one tape node."""
    q, k, v = _lift(q), _lift(k), _lift(v)
    out, saved = attention_forward(q.data, k.data, v.data, num_heads)
    return record(out, (q, k, v),
                  lambda g, need: attention_backward(g, saved))
