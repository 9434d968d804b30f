"""The training loop, the optimizer, and checkpoint I/O.

Plain gradient descent with momentum and a fixed step, one update per
scene, scenes shuffled each epoch with a seeded generator (``fit``).  The
main model and the voice-confidence branch are trained separately by that
loop (the gate stays a pure post-processor) but live in the same
checkpoint.

Checkpoint container (little-endian, magic "D2CKPT1"): u32 tensor count,
then per tensor: u32 name length + utf-8 name, u32 ndim, u32 dims...,
float64 data row-major.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

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
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.data = np.concatenate([p.data.reshape(-1) for p in params])
        self.grad = np.concatenate([p.grad.reshape(-1) for p in params])
        self.velocity = np.zeros_like(self.data)
        offset = 0
        for p in params:
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


def fit(params, scenes, objective, epochs, lr, momentum, seed, salt, what,
        log_fn=None):
    """Momentum SGD on ``params``, one step per scene, in an order shuffled
    each epoch by ``[seed, salt + epoch]``.  ``objective(scene)`` returns
    the loss Tensor and a dict of float parts.  Returns, and passes to
    ``log_fn``, one row per epoch: the mean loss ("total") and parts.  A
    non-finite loss raises ``NumericalError`` naming ``what``."""
    opt = MomentumSGD(params, lr, momentum)
    history = []
    for epoch in range(epochs):
        order = np.random.default_rng([seed, salt + epoch]).permutation(len(scenes))
        sums = {}
        for idx in order:
            opt.zero_grad()
            loss, parts = objective(scenes[idx])
            value = loss.item()
            if not np.isfinite(value):
                # zero_grad has just cleared every grad: only data can be bad
                bad = next((p.name for p in params
                            if not np.isfinite(p.data).all()), None)
                where = (f"first bad parameter: {bad}" if bad
                         else "every parameter is finite")
                raise NumericalError(
                    f"non-finite {what} at epoch {epoch}; {where}")
            backward(loss)
            opt.step()
            for k, v in {"total": value, **parts}.items():
                sums[k] = sums.get(k, 0.0) + v
        row = {k: v / float(len(scenes)) for k, v in sums.items()}
        row["epoch"] = epoch
        history.append(row)
        if log_fn is not None:
            log_fn(row)
    return history


def train_model(model: ActiveSpeakerModel, scenes, weights: LossWeights,
                epochs, lr, momentum, seed, log_fn=None):
    """Returns the per-epoch loss history as a list of dicts."""
    def objective(scene):
        out = model.forward(scene.visual, scene.audio)
        return total_loss(out, scene.labels, scene.mask, weights)

    return fit(model.parameters(), scenes, objective, epochs, lr, momentum,
               seed, 0, "loss", log_fn)


def gate_loss(net: ConfidenceNet, scene: Scenario):
    """The gate's objective on one scene: BCE of its logits against the
    frame-level any-speech target, over every frame."""
    target = any_speech(scene.labels)
    return masked_bce(net.logits(scene.audio), target, np.ones_like(target))


def train_gate(net: ConfidenceNet, scenes, epochs, lr, momentum, seed):
    """Fit the confidence branch on frame-level any-speech labels."""
    fit(net.parameters(), scenes, lambda scene: (gate_loss(net, scene), {}),
        epochs, lr, momentum, seed, 1_000_003, "gate loss")


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


def _by_module(names):
    """Tensor ``names`` as their modules (the name less its last dotted
    part), sorted, each with its count; or "none"."""
    counts = Counter(name.rpartition(".")[0] or name for name in names)
    return ", ".join(f"{module} ({n} tensor{'s' * (n > 1)})"
                     for module, n in sorted(counts.items())) or "none"


def apply_checkpoint(params, tensors: dict) -> None:
    """Load saved values into parameters by name; names and shapes must match.
    The model builds only the blocks it runs, so this name check also
    refuses a checkpoint of another ablation."""
    by_name = {p.name: p for p in params}
    missing = set(by_name) - set(tensors)
    extra = set(tensors) - set(by_name)
    if missing or extra:
        raise FormatError(
            f"checkpoint does not match model: missing {_by_module(missing)}; "
            f"unexpected {_by_module(extra)}")
    for name, p in by_name.items():
        if tensors[name].shape != p.data.shape:
            raise FormatError(
                f"checkpoint tensor {name} has shape {tensors[name].shape}, "
                f"model expects {p.data.shape}")
        p.data[...] = tensors[name]
