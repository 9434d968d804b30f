"""Every tape node is made by ``tensor.op``: the tapes of the package's
losses hold only calls of the package's ops."""

import sys

import numpy as np
import pytest

from dualstream import cli, losses, tensor
from dualstream.losses import total_loss
from dualstream.tensor import Parameter, Tensor
from dualstream.train import gate_loss

from common import detector, tape

# the code of every function ``op`` returns
TAPED = tensor.op(lambda: None).__code__


def package_op_bodies():
    """The function behind every op of the loaded ``dualstream`` modules."""
    return {value.__wrapped__ for name, module in list(sys.modules.items())
            if name.startswith("dualstream.")
            for value in vars(module).values()
            if getattr(value, "__code__", None) is TAPED}


def train_step():
    cfg, scene, model, _gate = detector()
    out = model.forward(scene.visual, scene.audio)
    return total_loss(out, scene.labels, scene.mask, cfg.loss_weights())[0]


def gate_step():
    _cfg, scene, _model, gate_net = detector()
    return gate_loss(gate_net, scene)


def gradcheck_loss():
    cfg, scene, model, gate_net = detector(tiny=True)
    return cli.gradcheck_loss(scene, model, gate_net, cfg.loss_weights())()


def degenerate_step():
    # no valid cell and no speech: every term of the loss is degenerate
    cfg, scene, model, _gate = detector()
    out = model.forward(scene.visual, scene.audio)
    none = np.zeros_like(scene.mask)
    return total_loss(out, none, none, cfg.loss_weights())[0]


LOSSES = {"train_step": train_step, "gate_step": gate_step,
          "gradcheck_loss": gradcheck_loss, "degenerate_step": degenerate_step}


@pytest.mark.parametrize("which", sorted(LOSSES))
def test_every_node_is_a_call_of_a_package_op(which):
    bodies = package_op_bodies()
    assert {tensor.linear.__wrapped__, losses.masked_bce.__wrapped__,
            losses.contrastive_av.__wrapped__} <= bodies
    nodes = [n for n in tape(LOSSES[which]()) if n.parents]
    assert nodes
    for node in nodes:
        assert node.call is not None and node.call[0] in bodies, node
        assert node.call[0].__name__ != "_zero"


def test_a_degenerate_term_is_its_own_ops_node():
    loss = degenerate_step()
    made_by = {n.call[0] for n in tape(loss) if n.parents}
    assert {losses.masked_bce.__wrapped__,
            losses.contrastive_av.__wrapped__} <= made_by
    assert loss.item() == 0.0
    assert losses._zero.__code__ is not TAPED


def test_a_tensor_takes_no_parents():
    with pytest.raises(TypeError):
        Tensor(np.ones(2), (Parameter(np.ones(2), "p"),))
