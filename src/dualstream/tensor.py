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
    the ops ``linear``, ``gelu``, ``conv1d_same`` and ``tanh_birnn`` (both
    directions of the gate's recurrence) here, and the whole attention
    block (``attention._block``), ``losses.masked_bce`` and
    ``losses.contrastive_av``.  Their arithmetic lives in plain numpy
    forward / backward kernels: ``linear_*`` and ``gelu_*`` here, which the
    ops and the block share, and the block's own in ``attention``.  Each
    composite's forward replays the arithmetic of the op chain it replaced
    in the same order, so its outputs are bit-identical to that chain's.
    The backwards of ``conv1d_same``, ``tanh_birnn``, the block and
    ``masked_bce`` also replay the order in which the chain's tape
    accumulated its gradient terms, so their gradients are bit-identical
    too; ``contrastive_av``'s agree to rounding.
  * a kernel writes only into arrays it allocated itself, never into what
    it was given: an argument, a saved forward array or the incoming
    gradient, which ``add``'s VJP hands to both parents as one array.
    Its elementwise steps run in place on its own temporaries, in the order
    of the allocating expression they replace, so the bits are the same.
    A batch rule's probe axis can make a bias or norm shift wider than the
    array it is added to; those adds run in place only when it is not.
  * one node maker: every op, glue and fused alike, is a function
    decorated with ``op`` whose body computes on arrays and returns
    ``(out, operands, vjp)``.  ``op`` alone makes the tape node, keeps the
    taped call on it as ``Tensor.call`` and, besides ``no_grad`` itself,
    reads the ``no_grad`` switch.  ``gradcheck`` re-runs the calls a
    perturbed Parameter reaches through their arguments, so an op reads a
    Parameter only as an argument, never through an object or ``.data``.
    It re-runs them for up to ``gradcheck.CHUNK`` probe rows at once,
    through the batch rule each op declares with ``op``: the broadcasting
    and shape ops, the attention block and ``losses.masked_bce`` make one
    call on the stacked probe values, the others one call per row.
    Parameters that reach the same calls, such as one block's, share each
    re-run, each moved on its own rows, so every row of a batch rule must
    equal its own call bit for bit.
    Constants (Python scalars, numpy arrays) never become tape nodes: every
    op, ``concat`` included, takes only its Tensor operands as parents, and
    ``add``, ``mul``, ``linear`` and ``conv1d_same`` compute no gradient for
    a constant operand; ``tanh_birnn`` computes none for a constant x.
  * forward-only work records no tape.  Inside ``with no_grad():`` every op
    runs the same forward code and returns a parentless Tensor with no VJP,
    so outputs are bit-identical to the taped ones and each op's inputs are
    freed as soon as nothing else holds them.  ``eval``'s scoring and
    ``gradcheck``'s full perturbed passes run this way; ``backward``
    refuses a loss with no tape.
  * nothing is registered by hand: a layer is a ``Module``, whose
    Parameters are the Tensors its attributes hold, in assignment order.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
from scipy.special import erf as _erf

from .errors import ContractError, DimensionError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

# False inside ``no_grad``, where ``op`` gives its outputs no parents, VJP
# or call.  Process-wide, like the package's other single-threaded state.
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

    ``parents`` and ``vjp``, which only ``op`` sets, describe how this
    tensor was produced: ``vjp`` maps the incoming gradient to one
    contribution per parent.  Leaf tensors (constants, parameters) and the
    outputs of ops run under ``no_grad`` or on constants alone have neither.
    """

    __slots__ = ("data", "parents", "vjp", "call")
    # ops are the module's functions only: Tensor defines no operators, and
    # this makes numpy refuse one too, so ``c - t`` raises TypeError instead
    # of building an object array elementwise
    __array_ufunc__ = None

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = ()
        self.vjp = None
        self.call = None  # (fn, args, kwargs) of the op call that taped it

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


class Parameter(Tensor):
    """Learnable leaf tensor: a value plus an additively-updated grad slot."""

    __slots__ = ("grad", "name")

    def __init__(self, data, name):
        super().__init__(data)
        self.grad = np.zeros_like(self.data)
        self.name = str(name)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class Module:
    """A layer whose Parameters are the Tensors it holds."""

    def parameters(self):
        """The Tensors this layer's attributes hold, in the order the
        attributes were first assigned, through Modules, lists and tuples."""
        return _held(vars(self).values(), [])


def _held(values, found):
    for v in values:
        if isinstance(v, Tensor):
            found.append(v)
        elif isinstance(v, Module):
            _held(vars(v).values(), found)
        elif isinstance(v, (list, tuple)):
            _held(v, found)
    return found


def _data(x):
    """An operand's array: a Tensor's data, or a constant as float64."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def tensors_in(arg):
    """The Tensors in an op argument: itself, or those in a list or tuple."""
    if isinstance(arg, (list, tuple)):
        return [x for item in arg for x in tensors_in(item)]
    return [arg] if isinstance(arg, Tensor) else []


def per_probe(fn, moved, *args, **kwargs):
    """The default batch rule: ``fn`` once per probe, each time with every
    moved Tensor's ``data`` set to that probe's value.  If ``fn`` raises,
    ``gradcheck.replay`` puts back every moved Tensor's recorded value."""
    held = [t for t in tensors_in([*args, *kwargs.values()]) if id(t) in moved]
    stacks = [t.data for t in held]
    outs = []
    for j in range(len(stacks[0])):
        for t, stack in zip(held, stacks):
            t.data = stack[j]
        outs.append(np.asarray(fn(*args, **kwargs)[0], dtype=np.float64))
    for t, stack in zip(held, stacks):
        t.data = stack
    return np.stack(outs)


def op(fn=None, *, batch=per_probe):
    """``fn`` as a tape op, the only maker of a tape node.

    ``fn`` computes its forward on plain arrays and returns ``(out,
    operands, vjp)``; the op returns the Tensor for ``out`` whose parents
    are the Tensor members of ``operands``.  ``vjp(g, need)`` returns one
    gradient per operand; those whose ``need`` flag is unset are dropped,
    may be None and need not be computed, so a constant operand costs no
    tape node and, where ``fn`` skips it, no gradient.  Under ``no_grad``,
    or when no operand is a Tensor, the Tensor has no parents.  A taped
    call stays on its output as ``Tensor.call``: ``(fn, args, kwargs)``.

    ``batch`` is the op's batch rule, which ``gradcheck.replay`` runs as
    ``fn.lockstep(moved, *args, **kwargs)`` for many probes at once: the
    Tensors whose ids are in ``moved`` hold P probe values stacked on a
    leading axis in their ``data``, the others their one value, and the
    rule returns ``out`` for each probe, stacked the same way, equal bit
    for bit to P calls of ``fn``.  The default, ``per_probe``, is those P
    calls; ``op(batch=rule)`` declares a rule that makes one call for all.
    """
    if fn is None:
        return functools.partial(op, batch=batch)
    fn.lockstep = functools.partial(batch, fn)

    @functools.wraps(fn)
    def taped(*args, **kwargs):
        out, operands, vjp = fn(*args, **kwargs)
        t = Tensor(out)
        if _taping:
            need = [isinstance(o, Tensor) for o in operands]
            if all(need):
                t.parents, t.vjp = tuple(operands), lambda g: vjp(g, need)
            elif any(need):
                t.parents = tuple(o for o, n in zip(operands, need) if n)
                t.vjp = lambda g: [c for c, n in zip(vjp(g, need), need) if n]
            t.call = (fn, args, kwargs)
        return t
    return taped


def aligned(x, moved, rank):
    """Operand ``x``'s array in a batch rule whose operands broadcast at
    ``rank`` dims: a moved Tensor's [P, *shape] data as [P, 1, ..., 1,
    *shape] of 1 + ``rank`` dims, any other operand as it is."""
    d = _data(x)
    if id(x) not in moved:
        return d
    return d.reshape(d.shape[:1] + (1,) * (rank + 1 - d.ndim) + d.shape[1:])


def _broadcasting(fn, moved, *operands):
    """Batch rule of an elementwise op: one call on the operands aligned at
    the highest rank among them."""
    rank = max(_data(x).ndim - (id(x) in moved) for x in operands)
    return fn(*(aligned(x, moved, rank) for x in operands))[0]


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


@op(batch=_broadcasting)
def add(a, b):
    ad, bd = _data(a), _data(b)

    def vjp(g, need):
        return (_unbroadcast(g, ad.shape) if need[0] else None,
                _unbroadcast(g, bd.shape) if need[1] else None)

    return ad + bd, (a, b), vjp


@op(batch=_broadcasting)
def mul(a, b):
    ad, bd = _data(a), _data(b)

    def vjp(g, need):
        return (_unbroadcast(g * bd, ad.shape) if need[0] else None,
                _unbroadcast(g * ad, bd.shape) if need[1] else None)

    return ad * bd, (a, b), vjp


@op(batch=_broadcasting)
def gelu(a):
    """Gaussian-error-linear activation, exact erf form (smooth everywhere)."""
    ad = _data(a)
    out, phi = gelu_forward(ad)
    return out, (a,), lambda g, need: (gelu_backward(g, ad, phi),)


# ---------------------------------------------------------------------------
# linear algebra


def _linear_probes(fn, moved, x, w, b):
    rank = _data(x).ndim - (id(x) in moved)
    if rank == 1:
        # a probe axis on [n] would turn numpy's vector-matrix product into
        # a matrix product, which rounds differently
        return per_probe(fn, moved, x, w, b)
    return linear_forward(*(aligned(v, moved, rank) for v in (x, w, b)))


@op(batch=_linear_probes)
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
    return (linear_forward(xd, wd, bd), (x, w, b),
            lambda g, need: linear_backward(g, xd, wd, need))


@op
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
    xp = np.zeros((t + k - 1, xd.shape[1]))
    xp[lo:lo + t] = xd
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

    return out, (x, w, b), vjp


def _pair(a, b):
    """[N, 2, ...] array whose row i holds a[i], then b[i]."""
    out = np.empty((a.shape[0], 2, *a.shape[1:]))
    out[:, 0] = a
    out[:, 1] = b
    return out


@op
def tanh_birnn(x, fwd, bwd):
    """Bidirectional tanh recurrence, one tape node.

    x [T, C]; ``fwd`` and ``bwd`` are each (wx [C, H], wh [H, H], b [H]).
    Each direction runs h_i = tanh((x_i @ wx + h @ wh) + b) from a zero
    state, ``fwd`` over frames 0..T-1 and ``bwd`` over T-1..0, and the
    [T, 2H] result holds each frame's forward state, then its backward one.
    Loop step s advances ``fwd`` at frame s and ``bwd`` at frame T-1-s
    together, so a step is one stacked [2, 1, H] @ [2, H, H] product, the
    adds and a tanh; every x_i @ wx is taken before the loop, in one stacked
    call of [1, C] @ [C, H] products.  numpy runs each slice of a stacked
    product with the kernel a lone row gets, so the states are bit-identical
    to a per-frame, per-direction loop's (numpy does not promise this;
    ``tests/test_gate.py`` holds the op to that loop's tape).  The backward
    is BPTT with one multiply-add and one product per step.  Its weight
    gradients are per-frame outer products summed by ``np.add.reduce`` over
    the frame axis, which adds them in index order: wh and b in
    backward-sweep order, wx latest frame first in either direction, as the
    per-frame tape this op replaced did.
    """
    xd = _data(x)
    fd, bd = [_data(p) for p in fwd], [_data(p) for p in bwd]
    shapes = [p.shape for p in fd]
    h_dim = shapes[1][-1] if shapes[1] else 0
    if xd.ndim != 2 or [p.shape for p in bd] != shapes or shapes != [
            (xd.shape[1], h_dim), (h_dim, h_dim), (h_dim,)]:
        raise DimensionError(
            f"tanh_birnn: input {xd.shape}, forward weights {shapes} and "
            f"backward weights {[p.shape for p in bd]} disagree")
    wx, wh, b = (np.array(pair) for pair in zip(fd, bd))
    t = xd.shape[0]
    # [T, 2, 1, H]: row s holds both directions' input terms of loop step s
    xw = _pair(xd, xd[::-1])[:, :, None] @ wx
    b = b[:, None]
    hs = np.empty((t, 2, 1, h_dim))  # the states each loop step makes
    h = np.zeros((2, 1, h_dim))
    for xw_s, hs_s in zip(xw, hs):
        pre = xw_s + h @ wh
        pre += b
        h = np.tanh(pre, out=hs_s)
    states = np.concatenate([hs[:, 0, 0], hs[::-1, 1, 0]], axis=1)

    def vjp(g, need):
        # backward step k undoes loop step T-1-k.  What add.reduce sums is
        # C-contiguous with the terms in the order they must be added in
        hk = hs[::-1]
        slope = 1.0 - hk * hk
        gk = _pair(g[::-1, :h_dim], g[:, h_dim:])[:, :, None]
        wht = wh.transpose(0, 2, 1)
        ds = np.empty(gk.shape)  # gradient at each step's pre-activation
        d = None
        for gk_k, slope_k, ds_k in zip(gk, slope, ds):
            if d is not None:
                gk_k += d @ wht
            d = np.multiply(gk_k, slope_k, out=ds_k)
        # step k's wh term pairs its gradient with the state it started from
        outer = np.empty((max(t - 1, 0), 2, h_dim, h_dim))
        np.multiply(hk[1:, :, 0, :, None], ds[:-1], out=outer)
        gwh = np.add.reduce(outer, axis=0)
        gb = np.add.reduce(ds, axis=0)[:, 0]
        # both directions' gradients by frame, latest frame first
        late = _pair(ds[:, 0], ds[::-1, 1])
        outer = np.empty((t, 2, xd.shape[1], h_dim))
        np.multiply(xd[::-1, None, :, None], late, out=outer)
        gwx = np.add.reduce(outer, axis=0)
        gx = None
        if need[0]:
            gxs = late @ wx.transpose(0, 2, 1)
            gx = (gxs[:, 0, 0] + gxs[:, 1, 0])[::-1]
        return gx, gwx[0], gwh[0], gb[0], gwx[1], gwh[1], gb[1]

    return states, (x, *fwd, *bwd), vjp


# ---------------------------------------------------------------------------
# reductions


def _tsum_probes(fn, moved, a, axis=None, keepdims=False):
    if axis is None:  # a full sum's pairwise order spans the whole array
        return per_probe(fn, moved, a, axis, keepdims)
    return a.data.sum(axis=_past_probes(axis), keepdims=keepdims)


@op(batch=_tsum_probes)
def tsum(a, axis=None, keepdims=False):
    ad = _data(a)

    def vjp(g, need):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, ad.shape).copy(),)

    return ad.sum(axis=axis, keepdims=keepdims), (a,), vjp


def tmean(a, axis=None, keepdims=False):
    ad = _data(a)
    n = ad.size if axis is None else ad.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


# ---------------------------------------------------------------------------
# shape surgery


def _past_probes(axis):
    """An axis, or a tuple of axes, of a probe's value as an axis of the
    stacked probes."""
    if isinstance(axis, tuple):
        return tuple(_past_probes(i) for i in axis)
    return axis + 1 if axis >= 0 else axis


# the shape ops' batch rules: their one Tensor operand is moved, so it holds
# the stacked probes


def _reshape_probes(fn, moved, a, shape):
    return a.data.reshape(len(a.data), *np.atleast_1d(shape))


@op(batch=_reshape_probes)
def reshape(a, shape):
    ad = _data(a)
    return ad.reshape(shape), (a,), lambda g, need: (g.reshape(ad.shape),)


def _transpose_probes(fn, moved, a, axes):
    return a.data.transpose(0, *(i % (a.ndim - 1) + 1 for i in axes))


@op(batch=_transpose_probes)
def transpose(a, axes):
    inv = tuple(np.argsort(axes))
    return _data(a).transpose(axes), (a,), lambda g, need: (g.transpose(inv),)


def _concat_probes(fn, moved, parts, axis):
    n = next(len(p.data) for p in parts if id(p) in moved)
    datas = [_data(p) for p in parts]
    return np.concatenate(
        [d if id(p) in moved else np.broadcast_to(d, (n, *d.shape))
         for p, d in zip(parts, datas)], axis=_past_probes(axis))


@op(batch=_concat_probes)
def concat(parts, axis):
    """Join along ``axis``; each Tensor part gets its slice of the gradient."""
    datas = [_data(p) for p in parts]

    def vjp(g, need):
        cuts = np.cumsum([d.shape[axis] for d in datas[:-1]])
        return np.split(g, cuts, axis=axis)

    return np.concatenate(datas, axis=axis), parts, vjp


def _getitem_probes(fn, moved, a, key):
    return np.array(a.data[(slice(None),
                            *(key if isinstance(key, tuple) else (key,)))])


@op(batch=_getitem_probes)
def getitem(a, key):
    """Basic (int/slice) indexing; the gradient scatters into zeros."""
    ad = _data(a)

    def vjp(g, need):
        z = np.zeros(ad.shape)
        z[key] = g
        return (z,)

    # np.array detaches the result from the parent's buffer
    return np.array(ad[key]), (a,), vjp


def _broadcast_to_probes(fn, moved, a, shape):
    return np.ascontiguousarray(np.broadcast_to(
        aligned(a, moved, len(shape)), (len(a.data), *shape)))


@op(batch=_broadcast_to_probes)
def broadcast_to(a, shape):
    ad = _data(a)
    out = np.ascontiguousarray(np.broadcast_to(ad, shape))
    return out, (a,), lambda g, need: (_unbroadcast(g, ad.shape),)


# ---------------------------------------------------------------------------
# fused kernels: plain numpy forward / backward pairs.  ``linear`` and
# ``gelu`` above and the one-node attention block (``attention._block``) call
# these, so each piece of arithmetic lives in one place.


def linear_forward(x, w, b):
    """x @ w + b over the last axis, as matmul-then-add computes it."""
    out = x @ w
    if b.ndim == 1:  # a batch rule's [P, 1, ..., n] bias can be wider
        out += b
        return out
    return out + b


def linear_backward(g, x, w, need=(True, True, True)):
    """Gradients for (x, w, b); w's is one GEMM over the flattened leading
    axes.  An unset ``need`` flag skips that gradient (None)."""
    g2 = g.reshape(-1, w.shape[1])
    return ((g2 @ w.T).reshape(x.shape) if need[0] else None,
            x.reshape(-1, w.shape[0]).T @ g2 if need[1] else None,
            g2.sum(axis=0) if need[2] else None)


def gelu_forward(x):
    """x * Phi(x), Phi(x) = 0.5 * (1 + erf(x / sqrt(2))), and the Phi(x) its
    backward reuses.

    erf runs on |x| / sqrt(2) and x's sign is copied back.  That keeps the
    bits of erf(x / sqrt(2)) for every non-NaN x: |x| * c == |x * c|
    exactly, and scipy's (cephes') erf is odd by construction, computing
    x < 0 as -erf(-x) and erf(-0) as -0.  It is faster (ROADMAP item 9 has
    the timings) because cephes' x < 0 test, true for about half of the
    activations in random order, mispredicts; on non-negative inputs it
    never does.
    """
    phi = np.abs(x)
    phi *= _INV_SQRT2
    _erf(phi, out=phi)
    np.copysign(phi, x, out=phi)
    phi += 1.0
    phi *= 0.5
    return x * phi, phi


def gelu_backward(g, x, phi):
    """g * (phi + x * exp(-0.5 * x * x) / sqrt(2 pi))."""
    t = x * -0.5
    t *= x
    np.exp(t, out=t)
    t *= x
    t *= _INV_SQRT2PI
    t += phi
    t *= g
    return t


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
