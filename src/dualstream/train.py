"""Training loops, the optimizer, and checkpoint I/O.

Plain gradient descent with momentum and a fixed step, one update per
scene, scenes shuffled each epoch with a seeded generator.  The main model
and the voice-confidence branch are trained separately (the gate stays a
pure post-processor) but live in the same checkpoint.

Checkpoint container (little-endian, magic "D2CKPT1"): u32 tensor count,
then per tensor: u32 name length + utf-8 name, u32 ndim, u32 dims...,
float64 data row-major.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .data import ByteReader, Scenario
from .errors import FormatError, NumericalError
from .gate import ConfidenceNet
from .losses import LossWeights, any_speech, masked_bce, total_loss
from .model import ActiveSpeakerModel
from .tensor import backward, zero_grads

CKPT_MAGIC = b"D2CKPT1"


class MomentumSGD:
    """v <- momentum*v - lr*grad; p <- p + v.

    The optimizer re-homes its parameters: it copies every ``data`` and
    ``grad`` into one flat float64 buffer each and rebinds each Parameter's
    ``data``/``grad`` to a reshaped view into them, so a step is three
    whole-buffer operations.  The update is elementwise, so it is bit for
    bit the per-parameter update.  Code that rebinds ``p.data`` or ``p.grad``
    afterwards detaches that parameter from the optimizer; update in place.
    """

    def __init__(self, params, lr, momentum):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.data = np.concatenate([p.data.reshape(-1) for p in self.params])
        self.grad = np.concatenate([p.grad.reshape(-1) for p in self.params])
        self.velocity = np.zeros_like(self.data)
        offset = 0
        for p in self.params:
            end = offset + p.data.size
            p.data = self.data[offset:end].reshape(p.data.shape)
            p.grad = self.grad[offset:end].reshape(p.data.shape)
            offset = end

    def zero_grad(self):
        """Clear every parameter's gradient: one fill of the flat buffer.
        It goes through ``zero_grads``, which clears whatever ``.grad`` it
        is given, so ``perfbench`` still times the clearing of each step."""
        zero_grads((self,))

    def step(self):
        v = self.velocity
        v *= self.momentum
        v -= self.lr * self.grad
        self.data += v


def _first_non_finite(params):
    for p in params:
        if not np.isfinite(p.data).all() or not np.isfinite(p.grad).all():
            return p.name
    return None


def train_model(model: ActiveSpeakerModel, scenes, weights: LossWeights,
                epochs, lr, momentum, seed, log_fn=None):
    """Returns the per-epoch loss history as a list of dicts."""
    params = model.parameters()
    opt = MomentumSGD(params, lr, momentum)
    history = []
    for epoch in range(epochs):
        order = np.random.default_rng([seed, epoch]).permutation(len(scenes))
        sums = {"total": 0.0, "l_av": 0.0, "l_v": 0.0, "l_a": 0.0, "l_con": 0.0}
        for idx in order:
            scene = scenes[idx]
            opt.zero_grad()
            out = model.forward(scene.visual, scene.audio)
            loss, parts = total_loss(out, scene.labels, scene.mask, weights)
            value = loss.item()
            if not np.isfinite(value):
                culprit = _first_non_finite(params) or "loss"
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}; first bad parameter: "
                    f"{culprit}")
            backward(loss)
            opt.step()
            sums["total"] += value
            for k, v in parts.items():
                sums[k] += v
        n = float(len(scenes))
        row = {k: v / n for k, v in sums.items()}
        row["epoch"] = epoch
        history.append(row)
        if log_fn is not None:
            log_fn(row)
    return history


def gate_loss(net: ConfidenceNet, scene: Scenario):
    """The gate's objective on one scene: BCE of its logits against the
    frame-level any-speech target, over every frame."""
    target = any_speech(scene.labels)
    return masked_bce(net.logits(scene.audio), target, np.ones_like(target))


def train_gate(net: ConfidenceNet, scenes, epochs, lr, momentum, seed):
    """Fit the confidence branch on frame-level any-speech labels."""
    params = net.parameters()
    opt = MomentumSGD(params, lr, momentum)
    for epoch in range(epochs):
        order = np.random.default_rng([seed, 1_000_003 + epoch]).permutation(len(scenes))
        for idx in order:
            opt.zero_grad()
            loss = gate_loss(net, scenes[idx])
            if not np.isfinite(loss.item()):
                culprit = _first_non_finite(params) or "loss"
                raise NumericalError(
                    f"non-finite gate loss at epoch {epoch}; first bad "
                    f"parameter: {culprit}")
            backward(loss)
            opt.step()


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(named_tensors: dict, path) -> None:
    chunks = [CKPT_MAGIC, struct.pack("<I", len(named_tensors))]
    for name, value in named_tensors.items():
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(value, dtype="<f8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CKPT_MAGIC):
        raise FormatError(
            f"bad checkpoint magic: expected {CKPT_MAGIC!r}, "
            f"got {blob[:len(CKPT_MAGIC)]!r}")
    r = ByteReader(blob, "checkpoint")
    r.take(len(CKPT_MAGIC))
    tensors = {}
    for index in range(r.u32()):
        name = r.text(f"tensor {index}: name")
        if name in tensors:
            raise FormatError(f"checkpoint tensor {name} appears twice")
        ndim = r.u32()
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        values = r.f64s(math.prod(shape))
        if not np.isfinite(values).all():
            raise FormatError(f"checkpoint tensor {name} has non-finite values")
        tensors[name] = values.reshape(shape)
    if r.offset != len(blob):
        raise FormatError(f"trailing data in checkpoint at offset {r.offset}")
    return tensors


def apply_checkpoint(params, tensors: dict) -> None:
    """Load saved values into parameters by name; names and shapes must match."""
    by_name = {p.name: p for p in params}
    missing = sorted(set(by_name) - set(tensors))
    extra = sorted(set(tensors) - set(by_name))
    if missing or extra:
        raise FormatError(
            f"checkpoint does not match model: missing {missing or 'none'}, "
            f"unexpected {extra or 'none'}")
    for name, p in by_name.items():
        if tensors[name].shape != p.data.shape:
            raise FormatError(
                f"checkpoint tensor {name} has shape {tensors[name].shape}, "
                f"model expects {p.data.shape}")
        p.data[...] = tensors[name]
