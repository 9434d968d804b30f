"""No-grad mode: tape-free forwards with the taped forwards' exact values."""

import numpy as np
import numpy.testing as npt
import pytest

from dualstream.attention import AttentionBlock, cal_forward, sal_forward
from dualstream.cli import collect_predictions
from dualstream.data import generate
from dualstream.evaluation import PredictionRecord
from dualstream.gate import ConfidenceNet, gate_batch, voice_confidence
from dualstream.gradcheck import check_parameter_gradients
from dualstream.losses import contrastive_av, masked_bce
from dualstream.model import ActiveSpeakerModel
from dualstream.tensor import (Parameter, add, conv1d_same, getitem, linear,
                               mul, no_grad, op, tanh_birnn, tsum)

from common import detector
from oracles import attention_core, distractor_cells, layer_norm
from test_evaluation import records_of
from test_tensor import CONSTANT_PATHS, PRIMITIVES, rand


def block():
    """A width-5 single-head attention block."""
    return AttentionBlock(5, 1, 5, np.random.default_rng(0), "block")


def taping():
    """Whether ops record a tape right now."""
    return bool(mul(Parameter(np.ones(1), "p"), 2.0).parents)


# every op, each of its inputs a Parameter
OPS = {
    **{f"primitive_{name}": op for name, op in PRIMITIVES.items()},
    **{f"constant_{name}": op for name, op in CONSTANT_PATHS.items()},
    "linear": lambda p, c: linear(p, Parameter(c[0], "w"),
                                  Parameter(c[1, 0], "b")),
    "layer_norm": lambda p, c: layer_norm(p, Parameter(c[0, 0], "g"),
                                          Parameter(c[1, 0], "b"), 1e-5),
    "conv1d_same": lambda p, c: conv1d_same(
        getitem(p, 0), Parameter(c[:, :, :4], "w"),
        Parameter(c[0, 0, :4], "b")),
    "tanh_birnn": lambda p, c: tanh_birnn(
        getitem(p, 0), (Parameter(c[0, :, :4], "wxf"), Parameter(c[1, :4, :4], "whf"),
               Parameter(c[2, 0, :4], "bf")),
        (Parameter(c[0, :, 1:], "wxb"), Parameter(c[1, 1:, 1:], "whb"),
         Parameter(c[2, 1, 1:], "bb"))),
    "attention_core": lambda p, c: attention_core(p, Parameter(c, "k"),
                                                  Parameter(c, "v"), 1),
    "block_self": lambda p, c: sal_forward(p, block()),
    "block_cross": lambda p, c: cal_forward(p, Parameter(c[:, :2], "y"),
                                            block()),
    "masked_bce": lambda p, c: masked_bce(p, c > 0, c > -1),
    "contrastive_av": lambda p, c: contrastive_av(
        getitem(p, 0), Parameter(c[0], "v"), c[1, :, 0] > -1, 0.1),
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


INPUTS = {
    "default_3x12": lambda: detector(),
    "long_4x48": lambda: detector({"data.speakers": 4, "data.frames": 48}),
    "gradcheck_tiny": lambda: detector(tiny=True),
}


@pytest.mark.parametrize("which", sorted(INPUTS))
def test_model_and_gate_outputs_bit_identical(which):
    _cfg, scene, model, gate_net = INPUTS[which]()

    def run():
        out = model.forward(scene.visual, scene.audio)
        return out, gate_net.logits(scene.audio)

    taped_out, taped_gate = run()
    with no_grad():
        free_out, free_gate = run()
    for name in ("scores", "visual_logits", "audio_logits"):
        npt.assert_array_equal(getattr(free_out, name).data,
                               getattr(taped_out, name).data, err_msg=name)
    npt.assert_array_equal(free_gate.data, taped_gate.data)
    assert taped_out.scores.parents and taped_gate.parents
    for name, value in vars(free_out).items():
        assert value.parents == () and value.call is None, name
    assert free_gate.parents == ()


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
        p_voice = voice_confidence(scene.audio, gate_net)
        final = gate_batch(raw, p_voice, gp) if apply_gate else raw
        for spk, frame in zip(*np.nonzero(scene.mask)):
            for scores, dest in ((final, records), (raw, raw_records)):
                dest.append(PredictionRecord(
                    scene.scene_id, int(spk), int(frame),
                    float(scores[spk, frame]), float(p_voice[frame]),
                    float(scene.labels[spk, frame])))
    return records, raw_records


def test_collect_predictions_matches_taped_loop(monkeypatch):
    cfg, _scene, model, gate_net = detector({"data.seed": 4})
    scenes = generate(cfg.gen_config(), 3)
    gp = cfg.gate_params()
    want = {gate: taped_predictions(model, gate_net, scenes, gp, gate)
            for gate in (True, False)}

    taped = []  # whether each scored forward and gate logits kept a tape

    def forward(visual, audio):
        out = ActiveSpeakerModel.forward(model, visual, audio)
        taped.append(bool(out.scores.parents))
        return out

    def logits(audio):
        out = ConfidenceNet.logits(gate_net, audio)
        taped.append(bool(out.parents))
        return out

    monkeypatch.setattr(model, "forward", forward)
    monkeypatch.setattr(gate_net, "logits", logits)
    for apply_gate in (True, False):
        got = tuple(map(records_of, collect_predictions(
            model, gate_net, scenes, gp, apply_gate)))
        assert got == want[apply_gate]
        assert taping()
    assert taped == [False] * 12


def test_collect_predictions_shares_all_but_the_scores():
    """Both cell sets flag the scenes' distractor cells and share every
    array but ``score``."""
    cfg, _scene, model, gate_net = detector({"data.seed": 4,
                                             "data.distractor_rate": 0.5})
    scenes = generate(cfg.gen_config(), 3)
    cells, raw_cells = collect_predictions(model, gate_net, scenes,
                                           cfg.gate_params(), True)
    flagged = {r[:3] for r, d in zip(records_of(cells), cells.distractor)
               if d}
    assert flagged == distractor_cells(scenes)
    assert cells.distractor.dtype == bool and cells.scene_id.dtype == object
    for name in ("scene_id", "speaker_idx", "frame_idx", "p_voice", "label",
                 "distractor"):
        assert getattr(raw_cells, name) is getattr(cells, name), name


# the full passes that check the first replayed pass of "a", then of "b"
@pytest.mark.parametrize("fail_on", [2, 3])
def test_gradcheck_puts_back_the_coordinate_when_the_loss_raises(fail_on):
    rng = np.random.default_rng(23)
    params = [Parameter(rand(rng, 3, 4), "a"), Parameter(rand(rng, 2), "b")]
    before = [p.data.copy() for p in params]
    calls = []

    def build_loss():
        calls.append(taping())
        if len(calls) == fail_on:
            raise RuntimeError("loss failed")
        return add(tsum(mul(params[0], params[0])), tsum(params[1]))

    with pytest.raises(RuntimeError, match="loss failed"):
        check_parameter_gradients(build_loss, params)
    assert calls == [True] + [False] * (fail_on - 1)
    assert taping()
    for p, want in zip(params, before):
        npt.assert_array_equal(p.data, want, err_msg=p.name)


@pytest.mark.parametrize("fail_on", [1, 2])  # the +step and the -step pass
def test_gradcheck_puts_back_the_coordinate_when_a_resumed_loss_raises(fail_on):
    """An op that raises in a replayed pass, which resumes from the
    analytic pass's op calls, leaves every coordinate as it was."""
    rng = np.random.default_rng(23)
    params = [Parameter(rand(rng, 3, 4), "a"), Parameter(rand(rng, 2), "b")]
    before = [p.data.copy() for p in params]
    full = []  # non-empty while build_loss runs
    replayed = []  # whether each replayed call on a moved "b" taped

    @op
    def fragile(x):
        if not full and not np.array_equal(x.data, before[1]):
            replayed.append(taping())
            if len(replayed) == fail_on:
                raise RuntimeError("op failed")
        return tsum.__wrapped__(x)

    def build_loss():
        full.append(True)
        try:
            return add(tsum(mul(params[0], params[0])), fragile(params[1]))
        finally:
            full.pop()

    with pytest.raises(RuntimeError, match="op failed"):
        check_parameter_gradients(build_loss, params)
    assert replayed == [False] * fail_on
    assert taping()
    for p, want in zip(params, before):
        npt.assert_array_equal(p.data, want, err_msg=p.name)
