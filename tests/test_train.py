"""Optimizer arithmetic and the size of one training step's tape."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from dualstream.errors import FormatError
from dualstream.losses import total_loss
from dualstream.tensor import Parameter
from dualstream.train import (MomentumSGD, apply_checkpoint, gate_loss,
                              train_model)

from common import VARIANTS, detector, tape

# distinct nodes on one default-config training step's tape: 175 Parameters
# and 50 ops.  The unfused graph had 875 and the per-op attention blocks and
# losses 386; un-fusing any composite or putting a constant input back on
# the tape pushes it past this bound
MAX_NODES_PER_STEP = 225


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


def speechless(scene):
    return replace(scene, labels=np.zeros_like(scene.labels))


def all_masked(scene):
    """No valid speaker slot, so no label either."""
    return replace(speechless(scene), mask=np.zeros_like(scene.mask))


def default_losses(edit=lambda scene: scene):
    """One default-config training loss and one gate loss on the same scene,
    as ``edit`` returns it."""
    cfg, scene, model, gate_net = detector()
    scene = edit(scene)
    out = model.forward(scene.visual, scene.audio)
    loss, _ = total_loss(out, scene.labels, scene.mask, cfg.loss_weights())
    return loss, gate_loss(gate_net, scene)


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
    cfg, scene, model, _gate = detector()
    scene = all_masked(scene)
    before = [p.data.copy() for p in model.parameters()]
    history = train_model(model, [scene], cfg.loss_weights(), epochs=1,
                          lr=0.03, momentum=0.9, seed=0)
    assert history[0]["total"] == 0.0
    for p, old in zip(model.parameters(), before):
        npt.assert_array_equal(p.data, old, err_msg=p.name)


def model_tensors(sets):
    params = detector(sets)[2].parameters()
    return params, {p.name: p.data for p in params}


@pytest.mark.parametrize("ckpt,model,message", [
    ("ablate_temporal", "default",
     "missing dual.r0.sal_time (16 tensors), dual.r1.sal_time (16 tensors); "
     "unexpected none"),
    ("default", "ablate_speaker",
     "missing none; unexpected dual.r0.sal_speaker (16 tensors), "
     "dual.r1.sal_speaker (16 tensors), dual.speaker_emb (1 tensor)"),
    ("rounds1", "ablate_speaker",
     "missing dual.r1.cal_speaker (16 tensors), dual.r1.cal_time (16 tensors), "
     "dual.r1.sal_time (16 tensors); unexpected dual.r0.sal_speaker "
     "(16 tensors), dual.speaker_emb (1 tensor)"),
], ids=["ablated_ckpt", "full_ckpt", "both_differ"])
def test_checkpoint_mismatch_names_modules_with_counts(ckpt, model, message):
    """A checkpoint of another model is refused with its missing and
    unexpected tensors grouped by module, one count each, not name by name."""
    params, _ = model_tensors(VARIANTS[model].sets)
    _, tensors = model_tensors(VARIANTS[ckpt].sets)
    with pytest.raises(FormatError) as err:
        apply_checkpoint(params, tensors)
    assert str(err.value) == f"checkpoint does not match model: {message}"


def test_checkpoint_shape_mismatch_names_the_tensor():
    params, _ = model_tensors({})
    _, tensors = model_tensors({"model.mlp_ratio": 2})
    with pytest.raises(FormatError, match=r"checkpoint tensor fusion\.cal_av"
                       r"\.mlp1_w has shape \(16, 32\), model expects "
                       r"\(16, 64\)"):
        apply_checkpoint(params, tensors)
