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
    arithmetic.  The hot composites are single nodes with closed-form VJPs:
    the ops ``linear``, ``gelu``, ``conv1d_same`` and ``tanh_rnn`` here, and
    the whole attention block (``attention._block``), ``losses.masked_bce``
    and ``losses.contrastive_av``.  Their arithmetic lives in plain numpy
    forward / backward kernels (``linear_forward``, ``layer_norm_forward``,
    ``attention_forward``, ...) that the ops and the composites share.  Each
    composite's forward replays the arithmetic of the op chain it replaced
    in the same order, so its outputs are bit-identical to that chain's.
    The backwards of ``conv1d_same``, ``tanh_rnn``, the block and
    ``masked_bce`` also replay the order in which the chain's tape
    accumulated its gradient terms, so their gradients are bit-identical
    too; ``contrastive_av``'s agree to rounding.
  * one recording path: every op, glue and fused alike, builds its node
    through ``record``, which is also the only reader of the ``no_grad``
    switch.  Constants (Python scalars, numpy arrays) never become tape
    nodes: every op, ``concat`` included, takes only its Tensor operands as
    parents, and ``mul``, ``linear``, ``conv1d_same``, ``tanh_rnn`` and the
    broadcasting ops compute no gradient for a constant input.
  * forward-only work records no tape.  Inside ``with no_grad():`` every op
    runs the same forward code and returns a parentless Tensor with no VJP,
    so outputs are bit-identical to the taped ones and each op's inputs are
    freed as soon as nothing else holds them.  ``eval``'s scoring and
    ``gradcheck``'s perturbed passes run this way; ``backward`` refuses a
    loss with no tape.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf as _erf, expit as _expit

from .errors import ContractError, DimensionError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# False inside ``no_grad``: ``record`` then gives op outputs no parents or VJP.
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
    ``no_grad`` or on constants alone have neither.
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
                                "only division by a constant is")
        return mul(self, 1.0 / float(other))

    def __neg__(self):
        return neg(self)

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


def _data(x):
    """An operand's array: a Tensor's data, or a constant as float64."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def record(out, operands, vjp):
    """Tensor for ``out`` whose parents are the Tensor members of ``operands``.

    This is the only constructor of a tape node: every op computes its
    forward on plain arrays and hands the result here with its VJP.
    ``vjp(g, need)`` returns one gradient per operand; those whose ``need``
    flag is unset are dropped, may be None and need not be computed, so a
    constant operand costs no tape node and, where the op skips it, no
    gradient.  Under ``no_grad``, or when no operand is a Tensor, the
    Tensor has no parents.
    """
    if _taping:
        need = [isinstance(o, Tensor) for o in operands]
        if all(need):
            return Tensor(out, operands, lambda g: vjp(g, need))
        if any(need):
            parents = [o for o, n in zip(operands, need) if n]
            return Tensor(out, parents,
                          lambda g: [c for c, n in zip(vjp(g, need), need) if n])
    return Tensor(out)


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


def add(a, b):
    ad, bd = _data(a), _data(b)

    def vjp(g, need):
        return (_unbroadcast(g, ad.shape) if need[0] else None,
                _unbroadcast(g, bd.shape) if need[1] else None)

    return record(ad + bd, (a, b), vjp)


def sub(a, b):
    ad, bd = _data(a), _data(b)

    def vjp(g, need):
        return (_unbroadcast(g, ad.shape) if need[0] else None,
                _unbroadcast(-g, bd.shape) if need[1] else None)

    return record(ad - bd, (a, b), vjp)


def mul(a, b):
    ad, bd = _data(a), _data(b)

    def vjp(g, need):
        return (_unbroadcast(g * bd, ad.shape) if need[0] else None,
                _unbroadcast(g * ad, bd.shape) if need[1] else None)

    return record(ad * bd, (a, b), vjp)


def neg(a):
    return record(-_data(a), (a,), lambda g, need: (-g,))


def sigmoid(a):
    out = _expit(_data(a))
    return record(out, (a,), lambda g, need: (g * out * (1.0 - out),))


def gelu(a):
    """Gaussian-error-linear activation, exact erf form (smooth everywhere)."""
    ad = _data(a)
    out, phi = gelu_forward(ad)
    return record(out, (a,), lambda g, need: (gelu_backward(g, ad, phi),))


# ---------------------------------------------------------------------------
# linear algebra


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
    return record(linear_forward(xd, wd, bd), (x, w, b),
                  lambda g, need: linear_backward(g, xd, wd, need))


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

    def vjp(g, need):
        gx = gw = None
        if need[0]:
            gxp = np.zeros(xp.shape)
            for j in range(k - 1, -1, -1):
                gxp[j:j + t] += g @ wd[j].T
            gx = gxp[lo:lo + t]
        if need[1]:
            gw = np.stack([xp[j:j + t].T @ g for j in range(k)])
        return gx, gw, g.sum(axis=0) if need[2] else None

    return record(out, (x, w, b), vjp)


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

    def vjp(g, need):
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

    return record(states, (x, wx, wh, b), vjp)


# ---------------------------------------------------------------------------
# reductions


def tsum(a, axis=None, keepdims=False):
    ad = _data(a)

    def vjp(g, need):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, ad.shape).copy(),)

    return record(ad.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def tmean(a, axis=None, keepdims=False):
    ad = _data(a)
    n = ad.size if axis is None else ad.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


# ---------------------------------------------------------------------------
# shape surgery


def reshape(a, shape):
    ad = _data(a)
    return record(ad.reshape(shape), (a,), lambda g, need: (g.reshape(ad.shape),))


def transpose(a, axes):
    inv = tuple(np.argsort(axes))
    return record(_data(a).transpose(axes), (a,),
                  lambda g, need: (g.transpose(inv),))


def concat(parts, axis):
    """Join along ``axis``; each Tensor part gets its slice of the gradient."""
    datas = [_data(p) for p in parts]

    def vjp(g, need):
        cuts = np.cumsum([d.shape[axis] for d in datas[:-1]])
        return np.split(g, cuts, axis=axis)

    return record(np.concatenate(datas, axis=axis), parts, vjp)


def getitem(a, key):
    """Basic (int/slice) indexing; the gradient scatters into zeros."""
    ad = _data(a)

    def vjp(g, need):
        z = np.zeros(ad.shape)
        z[key] = g
        return (z,)

    # np.array detaches the result from the parent's buffer
    return record(np.array(ad[key]), (a,), vjp)


def broadcast_to(a, shape):
    ad = _data(a)
    out = np.ascontiguousarray(np.broadcast_to(ad, shape))
    return record(out, (a,), lambda g, need: (_unbroadcast(g, ad.shape),))


# ---------------------------------------------------------------------------
# fused kernels: plain numpy forward / backward pairs.  ``linear`` and
# ``gelu`` above and the one-node attention block (``attention._block``) call
# these, so each piece of arithmetic lives in one place.


def linear_forward(x, w, b):
    """x @ w + b over the last axis, as matmul-then-add computes it."""
    if x.ndim == 1:
        return (x.reshape(1, -1) @ w + b).reshape(-1)
    return x @ w + b


def linear_backward(g, x, w, need=(True, True, True)):
    """Gradients for (x, w, b); w's is one GEMM over the flattened leading
    axes.  An unset ``need`` flag skips that gradient (None)."""
    g2 = g.reshape(-1, w.shape[1])
    return ((g2 @ w.T).reshape(x.shape) if need[0] else None,
            x.reshape(-1, w.shape[0]).T @ g2 if need[1] else None,
            g2.sum(axis=0) if need[2] else None)


def gelu_forward(x):
    """x * Phi(x) and the Phi(x) its backward reuses."""
    phi = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    return x * phi, phi


def gelu_backward(g, x, phi):
    return g * (phi + x * np.exp(-0.5 * x * x) * _INV_SQRT2PI)


def layer_norm_forward(x, gamma, beta, eps):
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    Returns the output and the (xhat, 1 / sqrt(var + eps)) its backward
    reuses.
    """
    if eps <= 0:
        raise ContractError(f"layer_norm eps must be > 0, got {eps}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} "
            f"must match channel axis of {x.shape}")
    inv_c = 1.0 / float(c)
    centered = x - x.sum(axis=-1, keepdims=True) * inv_c
    inv = ((centered * centered).sum(axis=-1, keepdims=True) * inv_c
           + eps) ** -0.5
    xhat = centered * inv
    return xhat * gamma + beta, (xhat, inv)


def layer_norm_backward(g, gamma, saved):
    """Gradients for (x, gamma, beta), with the standard closed form (Ba et
    al., 2016): with gx_hat = g * gamma,
    dx = (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat)) / sqrt(var + eps).
    """
    xhat, inv = saved
    c = gamma.shape[0]
    gxhat = g * gamma
    # sum / c is what ndarray.mean computes, without its Python wrapper
    gx = inv * (gxhat - gxhat.sum(axis=-1, keepdims=True) / c
                - xhat * ((gxhat * xhat).sum(axis=-1, keepdims=True) / c))
    g2 = g.reshape(-1, c)
    return gx, (g2 * xhat.reshape(-1, c)).sum(axis=0), g2.sum(axis=0)


def _split_heads(t, num_heads):  # [B, L, D] -> [B, heads, L, D / heads]
    b, length, d = t.shape
    return t.reshape(b, length, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(t):  # [B, heads, L, hd] -> [B, L, heads * hd]
    b, num_heads, length, hd = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b, length, num_heads * hd)


def attention_forward(q, k, v, num_heads):
    """Multi-head scaled dot-product attention core.

    q [B, Lq, D] and k, v [B, Lk, D] are split into ``num_heads`` heads of
    D / num_heads channels; each head computes softmax(q k^T / sqrt(hd)) v
    over the keys, and the heads are merged back to [B, Lq, D].  Returns the
    output and the split q/k/v and softmax weights the backward recomputes
    from (as in Dao et al., 2022).
    """
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape:
        raise DimensionError(
            f"attention expects q [B, Lq, D] and k, v [B, Lk, D], got "
            f"{q.shape}, {k.shape}, {v.shape}")
    if k.shape[0] != q.shape[0] or k.shape[2] != q.shape[2]:
        raise DimensionError(
            f"attention: keys {k.shape} incompatible with queries {q.shape}")
    if num_heads < 1 or q.shape[2] % num_heads != 0:
        raise DimensionError(
            f"attention: {q.shape[2]} channels do not split into "
            f"{num_heads} heads")
    qh, kh, vh = (_split_heads(t, num_heads) for t in (q, k, v))
    logits = (qh @ kh.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(float(qh.shape[3])))
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return _merge_heads(weights @ vh), (qh, kh, vh, weights)


def attention_backward(g, saved):
    """Gradients for (q, k, v)."""
    qh, kh, vh, weights = saved
    scale = 1.0 / np.sqrt(float(qh.shape[3]))
    gh = _split_heads(g, qh.shape[1])
    gw = gh @ vh.transpose(0, 1, 3, 2)
    gv = weights.transpose(0, 1, 3, 2) @ gh
    gl = weights * (gw - (gw * weights).sum(axis=-1, keepdims=True)) * scale
    return (_merge_heads(gl @ kh), _merge_heads(gl.transpose(0, 1, 3, 2) @ qh),
            _merge_heads(gv))


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
