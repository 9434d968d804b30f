"""Central finite-difference verification of the analytic gradients.

Used by the test suite and by the ``gradcheck`` CLI command.  Each
Parameter is probed at up to ``max_coords`` coordinates, each moved by
``+STEP`` and by ``-STEP``.  Probes run in lockstep: their values are
stacked on a leading axis, and one replay re-runs, with warnings off, only
the op calls (``Tensor.call``) the moved Parameters reach through their
arguments, not the tape's ``parents``.  Each reached call runs once for
all probe rows, through its op's batch rule (``tensor.op``): one call on
the stacked values for the broadcasting ops, the shape ops, the attention
block and ``masked_bce``, one call per row for the others.  No tape node
is made, and the other calls keep their recorded values.

Parameters that reach the same calls, such as the 16 of one attention
block, make one group (``replay_groups``).  A group's probe rows, members
in order, are cut into chunks of at most ``CHUNK`` rows, and each chunk
replays the whole plan once: every member with rows in the chunk is moved,
and holds its recorded value on the chunk's other rows.  A batch rule
returns, row by row, what one call per row returns, so each row is the
loss with one coordinate of one Parameter moved, bit for bit.  The first
probe of each Parameter is also run as the whole loss under ``no_grad``,
which must agree bit for bit.  Every swapped value and perturbed
coordinate is put back even when an op or the loss raises.

The error measure is ``|analytic - numeric| / max(|analytic|, |numeric|,
FLOOR)``: relative above the floor, absolute (scaled by the floor) below
it, which keeps near-zero gradients from drowning the report in
finite-difference roundoff.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericalError
from .tensor import backward, no_grad, tensors_in, zero_grads

STEP = 1e-4
FLOOR = 1e-4
# most probe rows one replay carries: each Parameter it moves holds a
# [CHUNK, *shape] stack and each call it replays CHUNK rows of output, so a
# larger chunk holds more at once for no less time (ROADMAP item 9 has the
# figures)
CHUNK = 32


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), FLOOR)


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


def replay(plan, out, moved):
    """Run ``plan``, the calls the Parameters of ``moved`` reach, once for
    R probe rows: ``moved`` maps each Parameter to its [R, *shape] values.
    Each call runs through its op's batch rule, which makes no tape node.
    Returns ``out``'s value in each row, stacked the same way.  Until it
    ends, each moved Parameter's and each replayed Tensor's ``data`` hold
    their stacked values."""
    swapped = [*moved, *plan]
    recorded = [t.data for t in swapped]
    ids = {id(p) for p in moved}
    n = len(next(iter(moved.values())))
    try:
        for p, rows in moved.items():
            p.data = rows
        for t in plan:
            fn, args, kwargs = t.call
            t.data = fn.lockstep(ids, *args, **kwargs)
            ids.add(id(t))
        if id(out) in ids:
            return out.data
        return np.broadcast_to(out.data, (n, *out.shape))
    finally:
        for t, data in zip(swapped, recorded):
            t.data = data


def replay_groups(calls, params):
    """``params`` by replay, as ``(plan, members)`` pairs: the Parameters
    whose ``reached`` plans are the same calls make one pair, ``members``
    their indices into ``params``, in order."""
    groups = {}
    for k, p in enumerate(params):
        plan = reached(calls, p)
        groups.setdefault(tuple(map(id, plan)), (plan, []))[1].append(k)
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


def replay_group(plan, members, out, params, coords):
    """``out``'s values under the probes of each of ``members``, indices
    into ``params`` probed at ``coords``, as ``{index: list}``.  The probe
    rows, members in order, replay ``plan`` in chunks of at most ``CHUNK``:
    in each, a member moves to its probes on its own rows and holds its
    recorded value on the others."""
    cuts = np.cumsum([0, *(2 * len(coords[k]) for k in members)]).tolist()
    values = []
    for lo in range(0, cuts[-1], CHUNK):
        hi = min(lo + CHUNK, cuts[-1])
        moved = {}
        for k, a, b in zip(members, cuts, cuts[1:]):
            if a < hi and lo < b:
                p = params[k]
                rows = np.repeat(p.data[None], hi - lo, axis=0)
                rows[max(a - lo, 0):b - lo] = \
                    probes_at(p, coords[k])[max(lo - a, 0):hi - a]
                moved[p] = rows
        values += replay(plan, out, moved).reshape(-1).tolist()
    return {k: values[a:b] for k, a, b in zip(members, cuts, cuts[1:])}


def check_parameter_gradients(build_loss, params, max_coords=16, seed=0):
    """Compare analytic vs central-difference gradients for every parameter.

    ``build_loss`` must run the full forward pass from the current
    parameter values and return a scalar Tensor.  For parameters with more
    than ``max_coords`` entries a deterministic random subset of
    coordinates is probed (seeded by ``[seed, index in params]``); smaller
    parameters are probed exhaustively.  A replayed pass that is not the
    full one's bits raises ``NumericalError`` naming the Parameter.

    Returns ``{param_name: worst_relative_error}``, in ``params`` order.
    """
    zero_grads(params)
    loss = build_loss()
    backward(loss)
    calls = recorded_calls(loss)
    coords = [probed(p, k, max_coords, seed) for k, p in enumerate(params)]

    worst = {}
    # only loss values count here: the analytic pass gave every warning
    with no_grad(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for plan, members in replay_groups(calls, params):
            values = replay_group(plan, members, loss, params, coords)
            for k in members:
                p, probed_values = params[k], values[k]
                flat, i0 = p.data.reshape(-1), coords[k][0]
                orig = flat[i0]
                try:
                    flat[i0] = orig + STEP
                    full = build_loss().item()
                finally:
                    flat[i0] = orig
                if full.hex() != probed_values[0].hex():
                    raise NumericalError(
                        f"gradcheck: {p.name} reaches the loss outside the "
                        f"op calls: replayed {probed_values[0]!r}, full "
                        f"{full!r}")
                grad = p.grad.reshape(-1)
                err = 0.0
                for i, up, down in zip(coords[k], probed_values[0::2],
                                       probed_values[1::2]):
                    numeric = (up - down) / (2.0 * STEP)
                    err = max(err, relative_error(grad[i], numeric))
                worst[p.name] = err
    return {p.name: worst[p.name] for p in params}


def worst_by_group(worst):
    """Collapse per-parameter errors to per-module (name prefix) errors."""
    groups = {}
    for name, err in worst.items():
        prefix = name.split(".", 1)[0]
        groups[prefix] = max(groups.get(prefix, 0.0), err)
    return groups
