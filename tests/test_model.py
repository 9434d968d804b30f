"""Dual-stream interaction: locality, equivariance, composition oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from dualstream import model as model_module
from dualstream.cli import _build_gate_net, gradcheck_loss
from dualstream.config import RunConfig
from dualstream.attention import AttentionBlock, cal_forward, sal_forward
from dualstream.data import frame_steps, generate_scene
from dualstream.gate import voice_confidence
from dualstream.gradcheck import (check_parameter_gradients, reached,
                                  recorded_calls, replay)
from dualstream.model import (ActiveSpeakerModel, DualStreamStack, ModelConfig,
                              dual_forward, speaker_stream)
from dualstream.tensor import (Parameter, Tensor, init_uniform, mul, no_grad,
                               tsum)

from common import Variant, detector, tape, variants
from test_attention import block_oracle

DIM = 16


def make_stack(rounds=2, s_max=4, rng=None, **kwargs):
    """A stack of width DIM = 2C, with an MLP of 2 * DIM."""
    cfg = ModelConfig(channels=DIM // 2, heads=2, mlp_ratio=2, rounds=rounds,
                      s_max=s_max, **kwargs)
    return DualStreamStack(cfg, rng or np.random.default_rng(0))


def make_sal(rng):
    return AttentionBlock(DIM, 2, 2 * DIM, rng, "sal")


def make_table(s_max, rng):
    """A speaker-slot embedding table of ``s_max`` rows."""
    return Parameter(init_uniform(rng, DIM, (s_max, DIM)), "speaker_emb.table")


class TestSpeakerStream:
    def test_single_speaker_reduces_to_pointwise_path(self):
        rng = np.random.default_rng(1)
        sal = make_sal(rng)
        emb = make_table(2, rng)
        x = rng.normal(size=(1, 5, DIM))
        out = speaker_stream(Tensor(x), emb, sal).data
        # over a single speaker, attention is identity weighting; the block
        # acts frame-by-frame on x + first embedding row
        shifted = (x + emb.data[0]).transpose(1, 0, 2)  # [T, 1, D]
        expected = block_oracle(shifted, shifted, sal).transpose(1, 0, 2)
        npt.assert_allclose(out, expected, atol=1e-10)

    def test_per_frame_locality(self):
        rng = np.random.default_rng(2)
        sal = make_sal(rng)
        emb = make_table(4, rng)
        x = rng.normal(size=(3, 6, DIM))
        base = speaker_stream(Tensor(x), emb, sal).data
        x2 = x.copy()
        x2[:, 4, :] += rng.normal(size=(3, DIM))
        out = speaker_stream(Tensor(x2), emb, sal).data
        keep = [t for t in range(6) if t != 4]
        npt.assert_allclose(out[:, keep], base[:, keep], atol=1e-12, rtol=0)

    def test_zeroed_embedding_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        sal = make_sal(rng)
        emb = make_table(4, rng)
        emb.data[...] = 0.0
        x = rng.normal(size=(4, 5, DIM))
        base = speaker_stream(Tensor(x), emb, sal).data
        perm = rng.permutation(4)
        out = speaker_stream(Tensor(x[perm]), emb, sal).data
        npt.assert_allclose(out, base[perm], atol=1e-10, rtol=0)


class TestTemporalStream:
    """The temporal stream: ``sal_forward`` over T with S in the batch."""

    def test_single_frame_reduces_to_pointwise_path(self):
        rng = np.random.default_rng(5)
        sal = make_sal(rng)
        x = rng.normal(size=(3, 1, DIM))
        out = sal_forward(Tensor(x), sal).data
        npt.assert_allclose(out, block_oracle(x, x, sal), atol=1e-10)

    def test_per_speaker_locality(self):
        rng = np.random.default_rng(6)
        sal = make_sal(rng)
        x = rng.normal(size=(3, 6, DIM))
        base = sal_forward(Tensor(x), sal).data
        x2 = x.copy()
        x2[2] += rng.normal(size=(6, DIM))
        out = sal_forward(Tensor(x2), sal).data
        npt.assert_allclose(out[:2], base[:2], atol=1e-12, rtol=0)

    def test_speaker_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        sal = make_sal(rng)
        x = rng.normal(size=(4, 5, DIM))
        base = sal_forward(Tensor(x), sal).data
        perm = rng.permutation(4)
        out = sal_forward(Tensor(x[perm]), sal).data
        npt.assert_allclose(out, base[perm], atol=1e-12, rtol=0)


def cross_interact(f_time, f_sub, stack):
    """The mutual cross-attention of a one-round ``dual_forward``, alone:
    its self-attention streams return ``f_time`` and ``f_sub``, which it
    must hand to its two CALs; returns the CALs' outputs."""
    assert len(stack.rounds) == 1
    runs = []

    def cal(x, y, layer):
        runs.append(((x, y), cal_forward(x, y, layer)))
        return runs[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "sal_forward", lambda x, layer: f_time)
        patch.setattr(model_module, "speaker_stream",
                      lambda x, table, layer: f_sub)
        patch.setattr(model_module, "cal_forward", cal)
        dual_forward(Tensor(np.zeros(f_time.shape)), stack)
    (time_in, out_time), (sub_in, out_sub) = runs
    assert time_in[0] is f_time and time_in[1] is f_sub
    assert sub_in[0] is f_sub and sub_in[1] is f_time
    return out_time, out_sub


class TestCrossInteract:
    def make_stack(self, rng):
        return make_stack(rounds=1, rng=rng)

    def test_identical_inputs_degenerate_to_self_attention(self):
        rng = np.random.default_rng(8)
        stack = self.make_stack(rng)
        rnd = stack.rounds[0]
        f = rng.normal(size=(2, 4, DIM))
        out_t, out_s = cross_interact(Tensor(f), Tensor(f), stack)
        npt.assert_allclose(out_t.data, block_oracle(f, f, rnd.cal_time),
                            atol=1e-10)
        npt.assert_allclose(out_s.data, block_oracle(f, f, rnd.cal_speaker),
                            atol=1e-10)

    def test_shapes(self):
        rng = np.random.default_rng(9)
        stack = self.make_stack(rng)
        a = Tensor(rng.normal(size=(3, 5, DIM)))
        b = Tensor(rng.normal(size=(3, 5, DIM)))
        out_t, out_s = cross_interact(a, b, stack)
        assert out_t.shape == (3, 5, DIM) and out_s.shape == (3, 5, DIM)

    def test_per_speaker_locality(self):
        rng = np.random.default_rng(10)
        stack = self.make_stack(rng)
        a = rng.normal(size=(3, 5, DIM))
        b = rng.normal(size=(3, 5, DIM))
        base_t, base_s = cross_interact(Tensor(a), Tensor(b), stack)
        a2, b2 = a.copy(), b.copy()
        a2[1:] = 0.0
        b2[1:] = 0.0
        out_t, out_s = cross_interact(Tensor(a2), Tensor(b2), stack)
        npt.assert_allclose(out_t.data[0], base_t.data[0], atol=1e-12, rtol=0)
        npt.assert_allclose(out_s.data[0], base_s.data[0], atol=1e-12, rtol=0)


class TestDualForward:
    def test_scores_shape(self):
        rng = np.random.default_rng(11)
        stack = make_stack(rng=rng)
        out = dual_forward(Tensor(rng.normal(size=(2, 4, DIM))), stack)
        assert out.shape == (2, 4)

    def test_matches_composition_of_oracled_sub_ops(self):
        rng = np.random.default_rng(12)
        stack = make_stack(rng=rng)
        f_av = rng.normal(size=(3, 4, DIM))
        x_t = x_s = Tensor(f_av)
        for rnd in stack.rounds:
            f_time = sal_forward(x_t, rnd.sal_time)
            f_sub = speaker_stream(x_s, stack.speaker_emb, rnd.sal_speaker)
            x_t = cal_forward(f_time, f_sub, rnd.cal_time)
            x_s = cal_forward(f_sub, f_time, rnd.cal_speaker)
        f_dual = x_t.data + x_s.data
        expected = (f_dual @ stack.head_w.data + stack.head_b.data).squeeze(-1)
        npt.assert_allclose(dual_forward(Tensor(f_av), stack).data, expected,
                            atol=1e-9, rtol=0)

    def test_zeroed_embedding_full_equivariance(self):
        rng = np.random.default_rng(13)
        stack = make_stack(rng=rng)
        stack.speaker_emb.data[...] = 0.0
        for trial in range(10):
            trng = np.random.default_rng([14, trial])
            f_av = trng.normal(size=(3, 4, DIM))
            perm = trng.permutation(3)
            base = dual_forward(Tensor(f_av), stack).data
            out = dual_forward(Tensor(f_av[perm]), stack).data
            npt.assert_allclose(out, base[perm], atol=1e-9, rtol=0)

    def test_scores_finite(self):
        rng = np.random.default_rng(15)
        stack = make_stack(rng=rng)
        out = dual_forward(Tensor(rng.normal(size=(4, 6, DIM)) * 10.0), stack)
        assert np.isfinite(out.data).all()

    def test_resumed_pass_matches_a_fresh_pass(self):
        """Replayed in lockstep from a taped pass's op calls
        (``gradcheck.replay``) with one block, the speaker table or the head
        moved to two probe values, ``dual_forward`` gives each probe's fresh
        pass's logits bit for bit, at 1 to 3 rounds."""
        for rounds in (1, 2, 3):
            rng = np.random.default_rng([17, rounds])
            stack = make_stack(rounds=rounds, rng=rng)
            f_av = Tensor(rng.normal(size=(3, 4, DIM)))
            taped = dual_forward(f_av, stack)
            calls = recorded_calls(taped)
            for p in ([b.wq for rnd in stack.rounds
                       for b in (rnd.sal_time, rnd.sal_speaker, rnd.cal_time,
                                 rnd.cal_speaker)]
                      + [stack.speaker_emb, stack.head_w]):
                saved = p.data.copy()
                probes = np.stack([saved + 0.1, saved - 0.2])
                with no_grad():
                    resumed = replay(reached(calls, p), taped, {p: probes})
                for probe, value in zip(probes, resumed):
                    p.data[...] = probe
                    try:
                        with no_grad():
                            fresh = dual_forward(f_av, stack).data
                    finally:
                        p.data[...] = saved
                    npt.assert_array_equal(value, fresh)
                    assert not np.array_equal(value, taped.data)

    def test_ablation_flags_are_identity(self):
        rng = np.random.default_rng(16)
        stack = make_stack(rng=rng, ablate_speaker=True, ablate_temporal=True)
        f_av = rng.normal(size=(2, 3, DIM))
        x_t = x_s = Tensor(f_av)
        for rnd in stack.rounds:
            x_t, x_s = (cal_forward(x_t, x_s, rnd.cal_time),
                        cal_forward(x_s, x_t, rnd.cal_speaker))
        expected = ((x_t.data + x_s.data) @ stack.head_w.data
                    + stack.head_b.data).squeeze(-1)
        npt.assert_allclose(dual_forward(Tensor(f_av), stack).data, expected,
                            atol=1e-12)


@pytest.mark.parametrize("variant", [*variants(), pytest.param(
    Variant({"data.speakers": 4, "data.frames": 48}), id="s4_t48")])
def test_frame_order_reaches_the_gate_but_not_the_model(variant):
    """Permuting a scene's frames (its crops on axis 1, its audio in whole
    ``data.frame_steps`` blocks) permutes every variant's scores the same
    way: nothing in the model gives frame order.  The voice gate's
    convolution and recurrence do read it, so its confidences do not
    follow."""
    cfg, _scene, model, gate_net = detector(variant.sets)
    gen = cfg.gen_config()
    for index in range(5):
        scene = generate_scene(gen, index)
        perm = np.random.default_rng([24, index]).permutation(gen.frames)
        audio = frame_steps(scene.audio)[perm].reshape(scene.audio.shape)
        with no_grad():
            base = model.forward(scene.visual, scene.audio).scores.data
            moved = model.forward(scene.visual[:, perm], audio).scores.data
        npt.assert_allclose(moved, base[:, perm], atol=1e-12, rtol=0)
        gate_base = voice_confidence(scene.audio, gate_net)
        gate_moved = voice_confidence(audio, gate_net)
        assert np.abs(gate_moved - gate_base[perm]).max() > 1e-6


def test_full_model_gradients_match_finite_differences():
    _cfg, scene, model, _gate = detector({"data.seed": 3, "model.rounds": 1},
                                         tiny=True)
    rng = np.random.default_rng(17)
    proj = Tensor(rng.normal(size=(2, 3)))

    def build():
        out = model.forward(scene.visual, scene.audio)
        return tsum(mul(out.scores, proj))

    worst = check_parameter_gradients(build, model.parameters(),
                                      max_coords=3, seed=2)
    assert max(worst.values()) <= 1e-4, max(worst.items(), key=lambda kv: kv[1])


@pytest.mark.parametrize("variant", variants())
def test_parameters_are_every_parameter_the_constructors_make(variant,
                                                              monkeypatch):
    """Each Parameter the model's and the gate's constructors create is
    listed once, in creation order, but for those of an ablated stream,
    which are drawn and dropped: none is left untrained, unsaved or
    unaudited, and the checkpoint order is the draw order."""
    made = []
    init = Parameter.__init__

    def recording(self, data, name):
        init(self, data, name)
        made.append(self)

    monkeypatch.setattr(Parameter, "__init__", recording)
    cfg = RunConfig(variant.sets)
    model = ActiveSpeakerModel(cfg.model_config())
    n_model = len(made)
    gate_net = _build_gate_net(cfg)
    assert n_model > 0 and len(made) > n_model

    def ids(params):
        return [id(p) for p in params]

    kept = [p for p in made[:n_model] if not variant.dropped(p.name)]
    assert n_model - len(kept) == variant.n_dropped
    assert ids(model.parameters()) == ids(kept)
    assert ids(gate_net.parameters()) == ids(made[n_model:])


@pytest.mark.parametrize("variant", variants())
def test_every_held_parameter_reaches_the_loss(variant):
    """The Parameters the model and the gate hold are exactly those one
    taped audit loss reaches: an ablated stream leaves none behind that its
    forward never reads, to be trained, saved or audited for nothing."""
    cfg, scene, model, gate_net = detector(variant.sets)
    loss = gradcheck_loss(scene, model, gate_net, cfg.loss_weights())()
    held = model.parameters() + gate_net.parameters()
    reached = [n for n in tape(loss) if isinstance(n, Parameter)]
    assert len({id(p) for p in held}) == len(held)
    assert sorted(p.name for p in held) == sorted(p.name for p in reached)
    assert {id(p) for p in held} == {id(p) for p in reached}


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("variant", variants(lambda v: v.drops))
def test_an_ablated_model_is_the_full_model_less_its_blocks(variant, rounds):
    """Every Parameter of an ablated model equals the full model's of that
    name at the same init seed, bit for bit: the ablation still draws what
    it drops, so a paired comparison differs only by what is removed."""
    sets = {"model.rounds": rounds, "model.init_seed": 4}
    full = detector(sets)[2].parameters()
    ablated = detector({**variant.sets, **sets})[2]
    want = {p.name: p for p in full if not variant.dropped(p.name)}
    assert [p.name for p in ablated.parameters()] == list(want)
    for p in ablated.parameters():
        assert p.data.tobytes() == want[p.name].data.tobytes(), p.name
