"""Central finite-difference verification of the analytic gradients.

Used by the test suite and by the ``gradcheck`` CLI command.  A perturbed
pass moves one parameter coordinate by ``+-STEP`` and re-runs, with
warnings off, only the op calls (``Tensor.call``) the Parameter reaches
through their arguments, not the tape's ``parents``; each runs as its op's
body, which makes no tape node, and the other calls keep their recorded
values.  The first perturbed pass of each Parameter also runs the whole
loss under ``no_grad``, which must agree bit for bit.  A perturbed
coordinate is put back even when the loss raises.

The error measure is ``|analytic - numeric| / max(|analytic|, |numeric|,
floor)``: relative above the floor, absolute (scaled by the floor) below
it, which keeps near-zero gradients from drowning the report in
finite-difference roundoff.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericalError
from .tensor import Tensor, backward, no_grad, zero_grads

STEP = 1e-4


def relative_error(a, b, floor=1e-4):
    return abs(a - b) / max(abs(a), abs(b), floor)


def _tensors(arg):
    """The Tensors in an op argument: itself, or those in a list or tuple."""
    if isinstance(arg, (list, tuple)):
        return [x for item in arg for x in _tensors(item)]
    return [arg] if isinstance(arg, Tensor) else []


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
            inputs = _tensors([*t.call[1], *t.call[2].values()])
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


def replay(plan, out):
    """Run a ``reached`` plan again, each call through the op's own body, so
    no tape node is made; returns ``out``'s new value.  Until it ends, each
    new value stands in its recorded Tensor's ``data``."""
    recorded = [t.data for t in plan]
    try:
        for t in plan:
            fn, args, kwargs = t.call
            t.data = np.asarray(fn(*args, **kwargs)[0], dtype=np.float64)
        return out.data
    finally:
        for t, data in zip(plan, recorded):
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
            err = 0.0
            for i in coords:
                orig = flat[i]
                try:
                    flat[i] = orig + STEP
                    up = replay(rerun, loss).item()
                    full = build_loss().item() if i == coords[0] else up
                    if full.hex() != up.hex():
                        raise NumericalError(
                            f"gradcheck: {p.name} reaches the loss outside "
                            f"the op calls: replayed {up!r}, full {full!r}")
                    flat[i] = orig - STEP
                    down = replay(rerun, loss).item()
                finally:
                    flat[i] = orig
                numeric = (up - down) / (2.0 * STEP)
                err = max(err, relative_error(analytic[p.name].reshape(-1)[i],
                                              numeric, floor))
            worst[p.name] = err
    return worst


def worst_by_group(worst):
    """Collapse per-parameter errors to per-module (name prefix) errors."""
    groups = {}
    for name, err in worst.items():
        prefix = name.split(".", 1)[0]
        groups[prefix] = max(groups.get(prefix, 0.0), err)
    return groups
