"""Central finite-difference verification of the analytic gradients.

Used by the test suite and by the ``gradcheck`` CLI command.  The check
perturbs individual parameter coordinates by ``+-step``, re-runs the
forward pass without a tape (``no_grad``), and compares the symmetric
difference quotient against the gradient produced by ``backward``.  A
perturbed pass may re-run only the part of the loss the perturbed parameter
feeds (``resume``).  A perturbed coordinate is put back even when the loss
raises.

The error measure is ``|analytic - numeric| / max(|analytic|, |numeric|,
floor)``: relative above the floor, absolute (scaled by the floor) below
it, which keeps near-zero gradients from drowning the report in
finite-difference roundoff.
"""

from __future__ import annotations

import numpy as np

from .tensor import backward, no_grad, zero_grads


def relative_error(a, b, floor=1e-4):
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_parameter_gradients(build_loss, params, step=1e-4, max_coords=16,
                              seed=0, floor=1e-4, resume=None):
    """Compare analytic vs central-difference gradients for every parameter.

    ``build_loss`` must re-run the full forward pass from the current
    parameter values and return a scalar Tensor.  For parameters with more
    than ``max_coords`` entries a deterministic random subset of
    coordinates is probed (seeded by ``[seed, index in params]``); smaller
    parameters are probed exhaustively.

    By default every perturbed pass re-runs ``build_loss``.  ``resume``, if
    given, is called once under ``no_grad`` before any coordinate moves,
    and returns ``loss_of``: ``loss_of(p)`` is the zero-argument builder the
    perturbed passes of Parameter ``p`` call instead.  It may reuse values
    of that unperturbed pass for whatever ``p`` does not feed, but must
    return what ``build_loss`` would.

    Returns ``{param_name: worst_relative_error}``.
    """
    zero_grads(params)
    backward(build_loss())
    analytic = {p.name: p.grad.copy() for p in params}

    worst = {}
    with no_grad():  # the perturbed passes only need the loss value
        loss_of = resume() if resume is not None else lambda p: build_loss
        for k, p in enumerate(params):
            perturbed_loss = loss_of(p)
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
                    flat[i] = orig + step
                    up = perturbed_loss().item()
                    flat[i] = orig - step
                    down = perturbed_loss().item()
                finally:
                    flat[i] = orig
                numeric = (up - down) / (2.0 * step)
                err = max(err, relative_error(analytic[p.name].reshape(-1)[i],
                                              numeric, floor))
            worst[p.name] = err
    return worst


def worst_by_group(worst, split="."):
    """Collapse per-parameter errors to per-module (name prefix) errors."""
    groups = {}
    for name, err in worst.items():
        prefix = name.split(split, 1)[0]
        groups[prefix] = max(groups.get(prefix, 0.0), err)
    return groups
