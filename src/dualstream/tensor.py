"""Reverse-mode differentiable tensors on a numpy float64 substrate.

Every value in the package is a ``Tensor``: a dense float64 array plus the
bookkeeping needed to replay the forward computation backwards.  Operations
build a define-by-run graph; ``backward`` walks it once in reverse
topological order and accumulates gradients into every reachable
``Parameter``.  Accumulation is additive, so callers zero gradients
explicitly between steps (see ``zero_grads``).

Design points:
  * float64 everywhere; desk-scale sizes make this affordable and it keeps
    finite-difference oracles tight.
  * graphs live only as long as the output tensors that reference them;
    nothing is retained across steps.
  * the backward walk is deterministic: parents are visited in recording
    order, so two backward passes over an identical graph produce
    bit-identical gradients.
  * the tape stays small, because its cost is Python dispatch per node, not
    arithmetic.  Hot composites (``linear``, ``layer_norm``,
    ``attention_core``, ``conv1d_same``, ``tanh_rnn``) are single nodes with
    closed-form VJPs; each one's forward replays the arithmetic of the
    composed primitives in the same order, so its outputs are bit-identical
    to the composition's.  The backwards of ``conv1d_same`` and ``tanh_rnn``
    also replay the order in which the composed tape accumulated its
    gradient terms, so their gradients are bit-identical too.  Constants
    (Python scalars, numpy arrays) never become tape nodes: ``add``,
    ``sub``, ``mul``, ``linear``, ``conv1d_same`` and ``tanh_rnn`` record
    only their Tensor operands as parents, and the last three compute no
    gradient for a constant input ``x``.
  * forward-only work records no tape.  Inside ``with no_grad():`` every op
    runs the same forward code and then returns a parentless Tensor before
    it builds a VJP closure or calls ``_record``, so outputs are
    bit-identical to the taped ones and each op's inputs are freed as soon
    as nothing else holds them.  ``eval``'s scoring and ``gradcheck``'s
    perturbed passes run this way; ``backward`` refuses a loss with no tape.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf as _erf, expit as _expit

from .errors import ContractError, DimensionError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# False inside ``no_grad``: ops then record no parents and build no VJP.
# Process-wide, like the rest of the package's single-threaded state.
_taping = True


@contextlib.contextmanager
def no_grad():
    """Run the enclosed ops without a tape, as ``torch.no_grad`` does.

    Outputs equal the taped ones bit for bit but have no parents, so
    nothing can be back-propagated through them.  Contexts nest; leaving
    one, by exception too, restores the mode it entered from.
    """
    global _taping
    entered_from = _taping
    _taping = False
    try:
        yield
    finally:
        _taping = entered_from


class Tensor:
    """Dense float64 array plus a grad tape.

    ``parents`` and ``vjp`` describe how this tensor was produced: ``vjp``
    maps the incoming gradient to one contribution per parent.  Leaf
    tensors (constants, parameters) and the outputs of ops run under
    ``no_grad`` have neither.
    """

    __slots__ = ("data", "parents", "vjp")
    # numpy defers every operator with a Tensor operand to the Tensor's
    # reflected method, so ``c - t`` records a tape node instead of building
    # an object array elementwise
    __array_ufunc__ = None

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents)
        self.vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    # operator sugar; all arithmetic lives in the module-level functions
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("tensor/tensor division is not supported; "
                                "multiply by power(x, -1.0) instead")
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


class Parameter(Tensor):
    """Learnable leaf tensor: a value plus an additively-updated grad slot."""

    __slots__ = ("grad", "name")

    def __init__(self, data, name):
        super().__init__(data)
        self.grad = np.zeros_like(self.data)
        self.name = str(name)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


# the ``need`` flags of a fused op whose operands are all Tensors
_ALL = (True,) * 4


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _data(x):
    """An operand's array: a Tensor's data, or a constant as float64."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _record(out, operands, vjp):
    """Tensor for ``out`` whose parents are the Tensor members of ``operands``.

    ``vjp(g, need=_ALL)`` returns one gradient per operand; those whose
    ``need`` flag is unset are dropped, may be None and need not be
    computed, so a constant operand costs no tape node and, where the op
    skips it, no gradient.
    """
    for o in operands:
        if not isinstance(o, Tensor):
            break
    else:
        return Tensor(out, operands, vjp)
    need = [isinstance(o, Tensor) for o in operands]
    parents = [o for o, n in zip(operands, need) if n]
    return Tensor(out, parents,
                  lambda g: [c for c, n in zip(vjp(g, need), need) if n])


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` following numpy broadcasting rules."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _operands(a, b):
    """Split a binary op's operands into (tensor, constant) roles.

    Returns ``(a, b, a_is_tensor, b_is_tensor)`` with Tensor operands kept
    and constants as float64 arrays; if neither is a Tensor, ``a`` is lifted
    so the op still yields a Tensor.
    """
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    if not (ta or tb):
        return Tensor(a), np.asarray(b, dtype=np.float64), True, False
    if not ta:
        a = np.asarray(a, dtype=np.float64)
    if not tb:
        b = np.asarray(b, dtype=np.float64)
    return a, b, ta, tb


def add(a, b):
    a, b, ta, tb = _operands(a, b)
    out = (a.data if ta else a) + (b.data if tb else b)
    if not _taping:
        return Tensor(out)
    if ta and tb:
        def vjp(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        return Tensor(out, (a, b), vjp)
    t = a if ta else b
    return Tensor(out, (t,), lambda g: (_unbroadcast(g, t.shape),))


def sub(a, b):
    a, b, ta, tb = _operands(a, b)
    out = (a.data if ta else a) - (b.data if tb else b)
    if not _taping:
        return Tensor(out)
    if ta and tb:
        def vjp(g):
            return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

        return Tensor(out, (a, b), vjp)
    if ta:
        return Tensor(out, (a,), lambda g: (_unbroadcast(g, a.shape),))
    return Tensor(out, (b,), lambda g: (_unbroadcast(-g, b.shape),))


def mul(a, b):
    a, b, ta, tb = _operands(a, b)
    out = (a.data if ta else a) * (b.data if tb else b)
    if not _taping:
        return Tensor(out)
    if ta and tb:
        def vjp(g):
            return (_unbroadcast(g * b.data, a.shape),
                    _unbroadcast(g * a.data, b.shape))

        return Tensor(out, (a, b), vjp)
    t, c = (a, b) if ta else (b, a)
    return Tensor(out, (t,), lambda g: (_unbroadcast(g * c, t.shape),))


def neg(a):
    a = _lift(a)
    out = -a.data
    if not _taping:
        return Tensor(out)
    return Tensor(out, (a,), lambda g: (-g,))


def power(a, p):
    """Raise to a constant real exponent."""
    a = _lift(a)
    p = float(p)
    out = a.data ** p
    if not _taping:
        return Tensor(out)

    def vjp(g):
        return (g * p * a.data ** (p - 1.0),)

    return Tensor(out, (a,), vjp)


def texp(a):
    a = _lift(a)
    out = np.exp(a.data)
    if not _taping:
        return Tensor(out)
    return Tensor(out, (a,), lambda g: (g * out,))


def tlog(a):
    a = _lift(a)
    out = np.log(a.data)
    if not _taping:
        return Tensor(out)
    return Tensor(out, (a,), lambda g: (g / a.data,))


def tanh(a):
    a = _lift(a)
    out = np.tanh(a.data)
    if not _taping:
        return Tensor(out)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a):
    a = _lift(a)
    out = _expit(a.data)
    if not _taping:
        return Tensor(out)
    return Tensor(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a):
    """log(1 + exp(x)) in the overflow-safe split form."""
    a = _lift(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if not _taping:
        return Tensor(out)

    def vjp(g):
        return (g * _expit(x),)

    return Tensor(out, (a,), vjp)


def gelu(a):
    """Gaussian-error-linear activation, exact erf form (smooth everywhere)."""
    a = _lift(a)
    x = a.data
    phi = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    out = x * phi
    if not _taping:
        return Tensor(out)

    def vjp(g):
        d = phi + x * np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * d,)

    return Tensor(out, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra


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
    out = a.data @ b.data
    if not _taping:
        return Tensor(out)

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor(out, (a, b), vjp)


def linear(x, w, b):
    """Affine map over the last axis: x @ w + b, one tape node.

    The forward is matmul-then-add exactly as the composition computes it;
    the weight gradient is one GEMM over the flattened leading axes.
    """
    xd, wd, bd = _data(x), _data(w), _data(b)
    if wd.ndim != 2 or xd.shape[-1:] != wd.shape[:1]:
        raise DimensionError(
            f"linear: input {xd.shape} incompatible with weight {wd.shape}")
    if bd.shape != (wd.shape[1],):
        raise DimensionError(
            f"linear: bias {bd.shape} incompatible with weight {wd.shape}")
    n, m = wd.shape
    if xd.ndim == 1:
        out = (xd.reshape(1, n) @ wd + bd).reshape(m)
    else:
        out = xd @ wd + bd
    if not _taping:
        return Tensor(out)

    def vjp(g, need=_ALL):
        g2 = g.reshape(-1, m)
        return ((g2 @ wd.T).reshape(xd.shape) if need[0] else None,
                xd.reshape(-1, n).T @ g2 if need[1] else None,
                g2.sum(axis=0) if need[2] else None)

    return _record(out, (x, w, b), vjp)


def conv1d_same(x, w, b):
    """Same-padded 1-d convolution over the first axis, one tape node.

    x [T, Cin], w [k, Cin, Cout], b [Cout]: with x zero-padded by k // 2
    rows before and k - 1 - k // 2 after, out[i] = sum_j xpad[i + j] @ w[j]
    + b.  The forward adds the shifted products in shift order, then b; the
    input gradient adds the shifted terms last shift first.  Both are the
    order of the pad / slice / matmul / add tape this op replaces, so values
    and gradients are bit-identical to it.
    """
    xd, wd, bd = _data(x), _data(w), _data(b)
    if xd.ndim != 2 or wd.ndim != 3 or wd.shape[0] < 1 \
            or wd.shape[1] != xd.shape[1]:
        raise DimensionError(
            f"conv1d_same: input {xd.shape} incompatible with weight {wd.shape}")
    if bd.shape != (wd.shape[2],):
        raise DimensionError(
            f"conv1d_same: bias {bd.shape} incompatible with weight {wd.shape}")
    k, t = wd.shape[0], xd.shape[0]
    lo = k // 2
    xp = np.pad(xd, ((lo, k - 1 - lo), (0, 0)))
    out = xp[0:t] @ wd[0]
    for j in range(1, k):
        out = out + xp[j:j + t] @ wd[j]
    out = out + bd
    if not _taping:
        return Tensor(out)

    def vjp(g, need=_ALL):
        gx = gw = None
        if need[0]:
            gxp = np.zeros(xp.shape)
            for j in range(k - 1, -1, -1):
                gxp[j:j + t] += g @ wd[j].T
            gx = gxp[lo:lo + t]
        if need[1]:
            gw = np.stack([xp[j:j + t].T @ g for j in range(k)])
        return gx, gw, g.sum(axis=0) if need[2] else None

    return _record(out, (x, w, b), vjp)


def tanh_rnn(x, wx, wh, b, reverse=False):
    """Tanh recurrence h_i = tanh((x_i @ wx + h @ wh) + b), one tape node.

    x [T, C], wx [C, H], wh [H, H], b [H]; the state starts at zero and the
    [T, H] states come back in frame order, computed last frame first when
    ``reverse``.  The forward takes one [1, C] @ [C, H] product per frame,
    as the per-frame tape this op replaces did, so the states are
    bit-identical to it.  The backward is BPTT and sums the per-frame weight
    terms in that tape's order: wh and b in backward-sweep order, wx latest
    frame first in either direction.
    """
    xd, wxd, whd, bd = _data(x), _data(wx), _data(wh), _data(b)
    if xd.ndim != 2 or whd.ndim != 2 or whd.shape[0] != whd.shape[1] \
            or wxd.shape != (xd.shape[1], whd.shape[0]):
        raise DimensionError(
            f"tanh_rnn: input {xd.shape}, wx {wxd.shape} and wh {whd.shape} "
            f"disagree")
    t, h_dim = xd.shape[0], whd.shape[0]
    if bd.shape != (h_dim,):
        raise DimensionError(
            f"tanh_rnn: bias {bd.shape} incompatible with wh {whd.shape}")
    order = range(t - 1, -1, -1) if reverse else range(t)
    states = np.empty((t, h_dim))
    h = np.zeros((1, h_dim))
    for i in order:
        h = np.tanh(xd[i:i + 1] @ wxd + h @ whd + bd)
        states[i] = h
    if not _taping:
        return Tensor(states)

    def vjp(g, need=_ALL):
        ds = np.empty((t, h_dim))  # gradient at each frame's pre-activation
        gx = np.empty(xd.shape) if need[0] else None
        gwh, gb = np.zeros((h_dim, h_dim)), np.zeros(h_dim)
        dh = None  # gradient reaching the state from the next step
        back = 1 if reverse else -1  # frame of the previous step's state
        for i in reversed(order):
            hi = states[i:i + 1]
            d = (g[i:i + 1] if dh is None else g[i:i + 1] + dh) * (1.0 - hi * hi)
            ds[i] = d
            gb += d[0]
            if need[0]:
                gx[i] = d @ wxd.T
            j = i + back
            if 0 <= j < t:  # the first step's previous state is the zero start
                gwh += states[j:j + 1].T @ d
                dh = d @ whd.T
        gwx = np.zeros(wxd.shape)
        for i in range(t - 1, -1, -1):
            gwx += xd[i:i + 1].T @ ds[i:i + 1]
        return gx, gwx, gwh, gb

    return _record(states, (x, wx, wh, b), vjp)


# ---------------------------------------------------------------------------
# reductions and normalization


def tsum(a, axis=None, keepdims=False):
    a = _lift(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    if not _taping:
        return Tensor(out)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor(out, (a,), vjp)


def tmean(a, axis=None, keepdims=False):
    a = _lift(a)
    if axis is None:
        n = a.size
    else:
        n = a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def softmax(a, axis):
    """Max-shifted exp-normalize along ``axis``; rows sum to one."""
    a = _lift(a)
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    if not _taping:
        return Tensor(out)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, (a,), vjp)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    One tape node with the standard closed-form backward (Ba et al., 2016):
    with xhat = (x - mean) / sqrt(var + eps) and gx_hat = g * gamma,
    dx = (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat)) / sqrt(var + eps).
    """
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    if eps <= 0:
        raise ContractError(f"layer_norm eps must be > 0, got {eps}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} "
            f"must match channel axis of {x.shape}")
    inv_c = 1.0 / float(c)
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_c
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * inv_c
           + eps) ** -0.5
    xhat = centered * inv
    out = xhat * gamma.data + beta.data
    if not _taping:
        return Tensor(out)

    def vjp(g):
        gxhat = g * gamma.data
        gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        g2 = g.reshape(-1, c)
        return gx, (g2 * xhat.reshape(-1, c)).sum(axis=0), g2.sum(axis=0)

    return Tensor(out, (x, gamma, beta), vjp)


def attention_core(q, k, v, num_heads, return_weights=False):
    """Multi-head scaled dot-product attention core as one tape node.

    q [B, Lq, D] and k, v [B, Lk, D] are split into ``num_heads`` heads of
    D / num_heads channels; each head computes softmax(q k^T / sqrt(hd)) v
    over the keys, and the heads are merged back to [B, Lq, D].  The
    backward recomputes from the saved q/k/v and softmax weights (as in
    Dao et al., 2022).  With ``return_weights`` the [B, heads, Lq, Lk]
    weights come back as well, as a constant Tensor.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape:
        raise DimensionError(
            f"attention_core expects q [B, Lq, D] and k, v [B, Lk, D], got "
            f"{q.shape}, {k.shape}, {v.shape}")
    b, lq, d = q.shape
    lk = k.shape[1]
    if k.shape[0] != b or k.shape[2] != d:
        raise DimensionError(
            f"attention_core: keys {k.shape} incompatible with queries {q.shape}")
    if num_heads < 1 or d % num_heads != 0:
        raise DimensionError(
            f"attention_core: {d} channels do not split into {num_heads} heads")
    hd = d // num_heads
    scale = 1.0 / np.sqrt(float(hd))

    def heads(t, length):  # [B, L, D] -> [B, heads, L, hd]
        return t.reshape(b, length, num_heads, hd).transpose(0, 2, 1, 3)

    def merge(t, length):  # [B, heads, L, hd] -> [B, L, D]
        return t.transpose(0, 2, 1, 3).reshape(b, length, d)

    qh, kh, vh = heads(q.data, lq), heads(k.data, lk), heads(v.data, lk)
    logits = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    out = merge(weights @ vh, lq)
    if not _taping:
        return (Tensor(out), Tensor(weights)) if return_weights else Tensor(out)

    def vjp(g):
        gh = heads(g, lq)
        gw = gh @ vh.transpose(0, 1, 3, 2)
        gv = weights.transpose(0, 1, 3, 2) @ gh
        gl = weights * (gw - (gw * weights).sum(axis=-1, keepdims=True)) * scale
        gq = gl @ kh
        gk = gl.transpose(0, 1, 3, 2) @ qh
        return merge(gq, lq), merge(gk, lk), merge(gv, lk)

    core = Tensor(out, (q, k, v), vjp)
    return (core, Tensor(weights)) if return_weights else core


# ---------------------------------------------------------------------------
# shape surgery


def reshape(a, shape):
    a = _lift(a)
    out = a.data.reshape(shape)
    if not _taping:
        return Tensor(out)
    return Tensor(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes):
    a = _lift(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    if not _taping:
        return Tensor(out)
    return Tensor(out, (a,), lambda g: (g.transpose(inv),))


def concat(parts, axis):
    parts = [_lift(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    if not _taping:
        return Tensor(out)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        sl = [slice(None)] * g.ndim
        grads = []
        for i in range(len(parts)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(sl)])
        return tuple(grads)

    return Tensor(out, tuple(parts), vjp)


def getitem(a, key):
    """Basic (int/slice) indexing; the gradient scatters into zeros."""
    a = _lift(a)
    out = a.data[key]
    out = np.array(out)  # detach from the parent's buffer
    if not _taping:
        return Tensor(out)

    def vjp(g):
        z = np.zeros(a.shape)
        z[key] = g
        return (z,)

    return Tensor(out, (a,), vjp)


def broadcast_to(a, shape):
    a = _lift(a)
    shape = tuple(shape)
    out = np.ascontiguousarray(np.broadcast_to(a.data, shape))
    if not _taping:
        return Tensor(out)
    return Tensor(out, (a,), lambda g: (_unbroadcast(g, a.shape),))


def take_rows(a, idx):
    """Gather rows along axis 0 by an integer index array."""
    a = _lift(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]
    if not _taping:
        return Tensor(out)

    def vjp(g):
        z = np.zeros(a.shape)
        np.add.at(z, idx, g)
        return (z,)

    return Tensor(out, (a,), vjp)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss):
    """Accumulate d(loss)/d(param) into every reachable Parameter's grad.

    ``loss`` must be a scalar produced by a recorded forward computation,
    or a Parameter.  Gradients add onto whatever is already in
    Parameter.grad.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.size != 1:
        raise ContractError(
            f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.parents and not isinstance(loss, Parameter):
        raise ContractError("backward: the loss has no tape (a constant, or "
                            "computed under no_grad)")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in reversed(node.parents):
            if id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Parameter):
            node.grad += g
            continue
        if node.vjp is None:
            continue
        contribs = node.vjp(g)
        for parent, c in zip(node.parents, contribs):
            if c is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = c if acc is None else acc + c


def zero_grads(params):
    for p in params:
        p.grad[...] = 0.0


def init_uniform(rng, fan_in, shape):
    """Symmetric uniform init scaled by fan-in: U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)
