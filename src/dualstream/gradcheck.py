"""Central finite-difference verification of the analytic gradients.

Used by the test suite and by the ``gradcheck`` CLI command.  Each
Parameter is probed at up to ``max_coords`` coordinates, each moved by
``+STEP`` and by ``-STEP``.  Its probes run in lockstep: their values are
stacked on a leading axis, and one replay re-runs, with warnings off, only
the op calls (``Tensor.call``) the Parameter reaches through their
arguments, not the tape's ``parents``.  Each reached call runs once for
all probes, through its op's batch rule (``tensor.op``): one call on the
stacked values for the broadcasting ops, the shape ops and the attention
block, one call per probe for the others.  No tape node is made, and the
other calls keep their recorded values.  The first probe of each Parameter
is also run as the whole loss under ``no_grad``, which must agree bit for
bit.  Every swapped value and perturbed coordinate is put back even when
an op or the loss raises.

The error measure is ``|analytic - numeric| / max(|analytic|, |numeric|,
floor)``: relative above the floor, absolute (scaled by the floor) below
it, which keeps near-zero gradients from drowning the report in
finite-difference roundoff.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericalError
from .tensor import backward, no_grad, tensors_in, zero_grads

STEP = 1e-4


def relative_error(a, b, floor=1e-4):
    return abs(a - b) / max(abs(a), abs(b), floor)


def recorded_calls(loss):
    """The op outputs on the tape of ``loss``, each after those among its
    arguments, as ``(t, ids)``: the ids of the Tensors ``t.call`` took."""
    order, seen, stack = [], set(), [(loss, None)]
    while stack:
        t, ids = stack.pop()
        if ids is not None:
            order.append((t, ids))
        elif t.call is not None and id(t) not in seen:
            seen.add(id(t))
            inputs = tensors_in([*t.call[1], *t.call[2].values()])
            stack.append((t, {id(x) for x in inputs}))
            stack.extend((x, None) for x in inputs)
    return order


def reached(calls, p):
    """The ``recorded_calls`` that ``p`` reaches, in order."""
    moved, plan = {id(p)}, []
    for t, ids in calls:
        if not ids.isdisjoint(moved):
            moved.add(id(t))
            plan.append(t)
    return plan


def replay(plan, out, p, probes):
    """Run a ``reached(calls, p)`` plan once for all ``probes``, values of
    ``p`` stacked on a leading axis: each call through its op's batch rule,
    which makes no tape node.  Returns ``out``'s value under each probe,
    stacked the same way.  Until it ends, ``p``'s and each replayed
    Tensor's ``data`` hold their stacked values."""
    swapped = [p, *plan]
    recorded = [t.data for t in swapped]
    moved = {id(p)}
    try:
        p.data = probes
        for t in plan:
            fn, args, kwargs = t.call
            t.data = fn.lockstep(moved, *args, **kwargs)
            moved.add(id(t))
        if id(out) in moved:
            return out.data
        return np.broadcast_to(out.data, (len(probes), *out.shape))
    finally:
        for t, data in zip(swapped, recorded):
            t.data = data


def check_parameter_gradients(build_loss, params, max_coords=16, seed=0,
                              floor=1e-4):
    """Compare analytic vs central-difference gradients for every parameter.

    ``build_loss`` must run the full forward pass from the current
    parameter values and return a scalar Tensor.  For parameters with more
    than ``max_coords`` entries a deterministic random subset of
    coordinates is probed (seeded by ``[seed, index in params]``); smaller
    parameters are probed exhaustively.  A replayed pass that is not the
    full one's bits raises ``NumericalError`` naming the Parameter.

    Returns ``{param_name: worst_relative_error}``.
    """
    zero_grads(params)
    loss = build_loss()
    backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}
    calls = recorded_calls(loss)

    worst = {}
    # only loss values count here: the analytic pass gave every warning
    with no_grad(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, p in enumerate(params):
            rerun = reached(calls, p)
            n = p.data.size
            if n <= max_coords:
                coords = np.arange(n)
            else:
                rng = np.random.default_rng([seed, k])
                coords = np.sort(rng.choice(n, size=max_coords, replace=False))
            flat = p.data.reshape(-1)
            # coordinate i + STEP, then i - STEP, for each probed i
            probes = np.repeat(p.data[None], 2 * len(coords), axis=0)
            rows = np.arange(len(coords))
            steps = probes.reshape(len(coords), 2, n)
            steps[rows, 0, coords] = flat[coords] + STEP
            steps[rows, 1, coords] = flat[coords] - STEP
            values = replay(rerun, loss, p, probes).reshape(-1).tolist()
            orig = flat[coords[0]]
            try:
                flat[coords[0]] = orig + STEP
                full = build_loss().item()
            finally:
                flat[coords[0]] = orig
            if full.hex() != values[0].hex():
                raise NumericalError(
                    f"gradcheck: {p.name} reaches the loss outside the op "
                    f"calls: replayed {values[0]!r}, full {full!r}")
            grad = analytic[p.name].reshape(-1)
            err = 0.0
            for i, up, down in zip(coords, values[0::2], values[1::2]):
                numeric = (up - down) / (2.0 * STEP)
                err = max(err, relative_error(grad[i], numeric, floor))
            worst[p.name] = err
    return worst


def worst_by_group(worst):
    """Collapse per-parameter errors to per-module (name prefix) errors."""
    groups = {}
    for name, err in worst.items():
        prefix = name.split(".", 1)[0]
        groups[prefix] = max(groups.get(prefix, 0.0), err)
    return groups
