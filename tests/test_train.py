"""Optimizer arithmetic and the size of one training step's tape."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt

from dualstream.config import load_config
from dualstream.data import generate_scene
from dualstream.gate import ConfidenceNet
from dualstream.losses import total_loss
from dualstream.model import ActiveSpeakerModel
from dualstream.tensor import Parameter
from dualstream.train import MomentumSGD, gate_loss, train_model

# distinct nodes on one default-config training step's tape: 175 Parameters
# and 51 ops.  The unfused graph had 875 and the per-op attention blocks and
# losses 386; un-fusing any composite or putting a constant input back on
# the tape pushes it past this bound
MAX_NODES_PER_STEP = 226


def test_flat_step_matches_per_parameter_loop_bit_for_bit():
    rng = np.random.default_rng(0)
    shapes = [(3, 4), (4,), (2, 3, 5), (1,)]
    params = [Parameter(rng.normal(size=s), f"p{i}") for i, s in enumerate(shapes)]
    ref = [p.data.copy() for p in params]
    ref_v = [np.zeros_like(r) for r in ref]
    lr, momentum = 0.03, 0.9
    opt = MomentumSGD(params, lr, momentum)
    for _ in range(3):
        for p, r, v in zip(params, ref, ref_v):
            p.grad[...] = rng.normal(size=p.shape)
            v *= momentum
            v -= lr * p.grad
            r += v
        opt.step()
        for p, r in zip(params, ref):
            npt.assert_array_equal(p.data, r)


def test_parameters_are_views_into_the_flat_buffers():
    params = [Parameter(np.arange(6.0).reshape(2, 3), "a"),
              Parameter(np.array([7.0]), "b")]
    opt = MomentumSGD(params, 0.1, 0.5)
    npt.assert_array_equal(opt.data, [0, 1, 2, 3, 4, 5, 7])
    assert params[0].shape == (2, 3)
    for p in params:
        assert np.shares_memory(p.data, opt.data)
        assert np.shares_memory(p.grad, opt.grad)


def test_zero_grad_clears_the_flat_buffer_in_place():
    params = [Parameter(np.ones((2, 3)), "a"), Parameter(np.ones(4), "b")]
    opt = MomentumSGD(params, 0.1, 0.5)
    for p in params:
        p.grad[...] = 3.0
    opt.zero_grad()
    npt.assert_array_equal(opt.grad, 0.0)
    for p in params:
        npt.assert_array_equal(p.grad, 0.0)
        assert np.shares_memory(p.grad, opt.grad)


def tape(root):
    """Every distinct node reachable from ``root`` through ``.parents``."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def speechless(scene):
    return replace(scene, labels=np.zeros_like(scene.labels))


def all_masked(scene):
    """No valid speaker slot, so no label either."""
    return replace(speechless(scene), mask=np.zeros_like(scene.mask))


def default_losses(edit=lambda scene: scene):
    """One default-config training loss and one gate loss on the same scene,
    as ``edit`` returns it."""
    cfg = load_config(None, {})
    model = ActiveSpeakerModel(cfg.model_config())
    scene = edit(generate_scene(cfg.gen_config(), 0))
    out = model.forward(scene.visual, scene.audio)
    loss, _ = total_loss(out, scene.labels, scene.mask, cfg.loss_weights())
    net = ConfidenceNet(cfg["data.mel_bins"], cfg["gate.conv_hidden"],
                        cfg["gate.rnn_hidden"], np.random.default_rng(0))
    return loss, gate_loss(net, scene)


def test_training_step_tape_size_guard():
    loss, _ = default_losses()
    assert len(tape(loss)) <= MAX_NODES_PER_STEP, len(tape(loss))


def test_every_leaf_is_a_parameter():
    # inputs, targets and masks are constants and must stay off both tapes,
    # and so must the zero of a degenerate loss term: the contrastive term's
    # in a scene without speech, every term's in a scene without valid slots
    for edit in (lambda scene: scene, speechless, all_masked):
        for loss in default_losses(edit):
            leaves = [n for n in tape(loss) if not n.parents]
            assert all(isinstance(n, Parameter) for n in leaves), [
                n for n in leaves if not isinstance(n, Parameter)]


def test_all_masked_scene_trains_with_zero_gradients():
    cfg = load_config(None, {})
    model = ActiveSpeakerModel(cfg.model_config())
    scene = all_masked(generate_scene(cfg.gen_config(), 0))
    before = [p.data.copy() for p in model.parameters()]
    history = train_model(model, [scene], cfg.loss_weights(), epochs=1,
                          lr=0.03, momentum=0.9, seed=0)
    assert history[0]["total"] == 0.0
    for p, old in zip(model.parameters(), before):
        npt.assert_array_equal(p.data, old, err_msg=p.name)
