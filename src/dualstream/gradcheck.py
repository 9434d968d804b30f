"""Central finite-difference verification of the analytic gradients.

Used by the test suite and by the ``gradcheck`` CLI command.  Each
Parameter is probed at up to ``max_coords`` coordinates, each moved by
``+STEP`` and by ``-STEP``.  Its probes run in lockstep: their values are
stacked on a leading axis, and one replay re-runs, with warnings off, only
the op calls (``Tensor.call``) the Parameter reaches through their
arguments, not the tape's ``parents``.  Each reached call runs once for
all probes, through its op's batch rule (``tensor.op``): one call on the
stacked values for the broadcasting ops, the shape ops, the attention
block and ``masked_bce``, one call per probe for the others.  No tape node
is made, and the other calls keep their recorded values.

Parameters that reach the same calls and are read by the first of them
only, such as the 16 of one attention block, share their replay of what
follows that call (``shared_tails``): each runs its probes through the
first call alone, and the rest runs once for all of their outputs, stacked,
in chunks of at most ``CHUNK`` probes, each chunk's first calls made just
before its replay.  A batch rule returns, row by row, what one call per
probe returns, so each Parameter's values are those its own replay gives,
bit for bit.  The first probe of each Parameter is also
run as the whole loss under ``no_grad``, which must agree bit for bit.
Every swapped value and perturbed coordinate is put back even when an op
or the loss raises.

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
# most probes one shared replay carries past its first call: a whole
# attention block's (256 at 8 coordinates) would hold that many copies of
# every activation downstream of it at once
CHUNK = 64


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


def shared_tails(calls, params):
    """``params`` by replay, as ``(plan, members)`` pairs: ``members`` are
    indices into ``params``, in order, and each index is in one pair.  The
    Parameters whose ``reached`` plans are the same calls and which no call
    after the first of them reads make one pair; every other Parameter
    makes one of its own."""
    reads = {id(t): ids for t, ids in calls}
    groups = {}
    for k, p in enumerate(params):
        plan = reached(calls, p)
        shares = plan and all(id(p) not in reads[id(t)] for t in plan[1:])
        key = tuple(map(id, plan)) if shares else k
        groups.setdefault(key, (plan, []))[1].append(k)
    return list(groups.values())


def probed(p, k, max_coords, seed):
    """The coordinates of ``p``, ``params[k]``, that the audit probes: all
    of them, or ``max_coords`` seeded by ``[seed, k]``, in order."""
    n = p.data.size
    if n <= max_coords:
        return np.arange(n)
    rng = np.random.default_rng([seed, k])
    return np.sort(rng.choice(n, size=max_coords, replace=False))


def probes_at(p, coords):
    """``p``'s value with coordinate i moved by ``+STEP``, then by
    ``-STEP``, for each i of ``coords``, stacked on a leading axis."""
    flat = p.data.reshape(-1)
    probes = np.repeat(p.data[None], 2 * len(coords), axis=0)
    rows = np.arange(len(coords))
    steps = probes.reshape(len(coords), 2, p.data.size)
    steps[rows, 0, coords] = flat[coords] + STEP
    steps[rows, 1, coords] = flat[coords] - STEP
    return probes


def first_call_chunks(first, members, params, coords):
    """``first``'s outputs under the probes of each of ``members``, in
    order, stacked in chunks of ``CHUNK`` (the last may be shorter).  Each
    member's probes go through ``first`` only once the chunks before them
    are taken, so at most a chunk and one member's outputs are held."""
    held = np.empty((0, *first.shape), first.data.dtype)
    for k in members:
        outputs = replay([first], first, params[k],
                         probes_at(params[k], coords[k]))
        held = np.concatenate([held, outputs])
        while len(held) >= CHUNK:
            yield held[:CHUNK]
            held = held[CHUNK:]
    if len(held):
        yield held


def replay_group(plan, members, out, params, coords):
    """``out``'s values under the probes of each of ``members``, indices
    into ``params`` probed at ``coords``, as ``{index: list}``.  A lone
    Parameter replays ``plan`` on its own.  A ``shared_tails`` group
    replays the rest of the plan once per ``first_call_chunks`` chunk."""
    if len(members) == 1:
        k, = members
        p = params[k]
        probes = probes_at(p, coords[k])
        return {k: replay(plan, out, p, probes).reshape(-1).tolist()}
    values = np.concatenate([
        replay(plan[1:], out, plan[0], chunk)
        for chunk in first_call_chunks(plan[0], members, params, coords)
    ]).reshape(-1).tolist()
    cuts = np.cumsum([0, *(2 * len(coords[k]) for k in members)])
    return {k: values[a:b] for k, a, b in zip(members, cuts, cuts[1:])}


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
    coords = [probed(p, k, max_coords, seed) for k, p in enumerate(params)]
    group_of = {k: group for group in shared_tails(calls, params)
                for k in group[1]}

    worst, values = {}, {}
    # only loss values count here: the analytic pass gave every warning
    with no_grad(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, p in enumerate(params):
            if k not in values:  # the first of its group: replay them all
                values.update(replay_group(*group_of[k], loss, params, coords))
            probed_values = values.pop(k)
            flat, i0 = p.data.reshape(-1), coords[k][0]
            orig = flat[i0]
            try:
                flat[i0] = orig + STEP
                full = build_loss().item()
            finally:
                flat[i0] = orig
            if full.hex() != probed_values[0].hex():
                raise NumericalError(
                    f"gradcheck: {p.name} reaches the loss outside the op "
                    f"calls: replayed {probed_values[0]!r}, full {full!r}")
            grad = analytic[p.name].reshape(-1)
            err = 0.0
            for i, up, down in zip(coords[k], probed_values[0::2],
                                   probed_values[1::2]):
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
