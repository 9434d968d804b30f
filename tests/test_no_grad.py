"""No-grad mode: tape-free forwards with the taped forwards' exact values."""

import numpy as np
import numpy.testing as npt
import pytest

from dualstream import cli
from dualstream.attention import AttentionBlock, cal_forward, sal_forward
from dualstream.cli import _build_gate_net, collect_predictions, gradcheck_inputs
from dualstream.config import RunConfig
from dualstream.data import generate
from dualstream.evaluation import PredictionRecord
from dualstream.gate import gate_batch, voice_confidence
from dualstream.gradcheck import check_parameter_gradients
from dualstream.losses import contrastive_av, masked_bce
from dualstream.model import ActiveSpeakerModel
from dualstream.tensor import (Parameter, conv1d_same, linear, mul, no_grad,
                               tanh_rnn, tsum)

from oracles import attention_core, layer_norm
from test_tensor import CONSTANT_PATHS, PRIMITIVES, rand


def block():
    """A width-5 single-head attention block."""
    return AttentionBlock(5, 1, 5, np.random.default_rng(0), "block", 1e-5)


def taping():
    """Whether ops record a tape right now."""
    return bool(mul(Parameter(np.ones(1), "p"), 2.0).parents)


# every op, each of its inputs a Parameter
OPS = {
    **{f"primitive_{name}": op for name, op in PRIMITIVES.items()},
    **{f"constant_{name}": op for name, op in CONSTANT_PATHS.items()},
    "neg": lambda p, c: -p,
    "linear": lambda p, c: linear(p, Parameter(c[0], "w"),
                                  Parameter(c[1, 0], "b")),
    "layer_norm": lambda p, c: layer_norm(p, Parameter(c[0, 0], "g"),
                                          Parameter(c[1, 0], "b"), 1e-5),
    "conv1d_same": lambda p, c: conv1d_same(
        p[0], Parameter(c[:, :, :4], "w"),
        Parameter(c[0, 0, :4], "b")),
    "tanh_rnn": lambda p, c: tanh_rnn(
        p[0], Parameter(c[0, :, :4], "wx"), Parameter(c[1, :4, :4], "wh"),
        Parameter(c[2, 0, :4], "b"), reverse=True),
    "attention_core": lambda p, c: attention_core(p, Parameter(c, "k"),
                                                  Parameter(c, "v"), 1),
    "block_self": lambda p, c: sal_forward(p, block()),
    "block_cross": lambda p, c: cal_forward(p, Parameter(c[:, :2], "y"),
                                            block()),
    "masked_bce": lambda p, c: masked_bce(p, c > 0, c > -1),
    "contrastive_av": lambda p, c: contrastive_av(p[0], Parameter(c[0], "v"),
                                                  c[1, :, 0] > -1, 0.1),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_every_op_same_values_and_no_parents(name):
    rng = np.random.default_rng(21)
    p = Parameter(rand(rng, 3, 5, 5), "p")
    c = rand(rng, 3, 5, 5)
    taped = OPS[name](p, c)
    with no_grad():
        free = OPS[name](p, c)
    assert taped.parents
    assert free.parents == () and free.vjp is None
    npt.assert_array_equal(free.data, taped.data)


def default_inputs(overrides):
    cfg = RunConfig(overrides)
    scene = generate(cfg.gen_config(), 1)[0]
    return scene, ActiveSpeakerModel(cfg.model_config()), _build_gate_net(cfg)


INPUTS = {
    "default_3x12": lambda: default_inputs({}),
    "long_4x48": lambda: default_inputs({"data.speakers": 4, "data.frames": 48}),
    "gradcheck_tiny": lambda: gradcheck_inputs(0),
}


@pytest.mark.parametrize("which", sorted(INPUTS))
def test_model_and_gate_outputs_bit_identical(which):
    scene, model, gate_net = INPUTS[which]()

    def run():
        out = model.forward(scene.visual, scene.audio)
        return out, voice_confidence(scene.audio, gate_net)

    taped_out, taped_p = run()
    with no_grad():
        free_out, free_p = run()
    for name in ("scores", "visual_logits", "audio_logits"):
        npt.assert_array_equal(getattr(free_out, name).data,
                               getattr(taped_out, name).data, err_msg=name)
    npt.assert_array_equal(free_p.data, taped_p.data)
    assert taped_out.scores.parents and taped_p.parents
    for name, value in vars(free_out).items():
        assert value.parents == (), name
    assert free_p.parents == ()


def test_nested_contexts_restore_the_mode():
    assert taping()
    with no_grad():
        assert not taping()
        with no_grad():
            assert not taping()
        assert not taping()
    assert taping()


def test_exception_inside_restores_the_mode():
    with pytest.raises(KeyError):
        with no_grad():
            with no_grad():
                raise KeyError("inner")
    assert taping()
    with no_grad():
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("inner")
        assert not taping()
    assert taping()


def taped_predictions(model, gate_net, scenes, gp, apply_gate):
    """``collect_predictions`` as it ran with a tape, one cell at a time."""
    records, raw_records = [], []
    for scene in scenes:
        raw = model.forward(scene.visual, scene.audio).scores.data
        p_voice = voice_confidence(scene.audio, gate_net).data
        final = gate_batch(raw, p_voice, gp) if apply_gate else raw
        for spk, frame in zip(*np.nonzero(scene.mask)):
            for scores, dest in ((final, records), (raw, raw_records)):
                dest.append(PredictionRecord(
                    scene.scene_id, int(spk), int(frame),
                    float(scores[spk, frame]), float(p_voice[frame]),
                    float(scene.labels[spk, frame])))
    return records, raw_records


def test_collect_predictions_matches_taped_loop(monkeypatch):
    cfg = RunConfig({"data.seed": 4})
    scenes = generate(cfg.gen_config(), 3)
    model = ActiveSpeakerModel(cfg.model_config())
    gate_net = _build_gate_net(cfg)
    gp = cfg.gate_params()
    want = {gate: taped_predictions(model, gate_net, scenes, gp, gate)
            for gate in (True, False)}

    taped = []  # whether each scored forward and gate output kept a tape

    def forward(visual, audio):
        out = ActiveSpeakerModel.forward(model, visual, audio)
        taped.append(bool(out.scores.parents))
        return out

    def confidence(audio, net):
        p = voice_confidence(audio, net)
        taped.append(bool(p.parents))
        return p

    monkeypatch.setattr(model, "forward", forward)
    monkeypatch.setattr(cli, "voice_confidence", confidence)
    for apply_gate in (True, False):
        got = collect_predictions(model, gate_net, scenes, gp, apply_gate)
        assert got == want[apply_gate]
        assert taping()
    assert taped == [False] * 12


@pytest.mark.parametrize("fail_on", [2, 3])  # the +step and the -step pass
def test_gradcheck_puts_back_the_coordinate_when_the_loss_raises(fail_on):
    rng = np.random.default_rng(23)
    params = [Parameter(rand(rng, 3, 4), "a"), Parameter(rand(rng, 2), "b")]
    before = [p.data.copy() for p in params]
    calls = []

    def build_loss():
        calls.append(taping())
        if len(calls) == fail_on:
            raise RuntimeError("loss failed")
        return tsum(mul(params[0], params[0])) + tsum(params[1])

    with pytest.raises(RuntimeError, match="loss failed"):
        check_parameter_gradients(build_loss, params)
    assert calls == [True] + [False] * (fail_on - 1)
    assert taping()
    for p, want in zip(params, before):
        npt.assert_array_equal(p.data, want, err_msg=p.name)
