"""Batch rules: one lockstep call for P probes equals P single-probe calls
bit for bit, ``gradcheck.replay`` puts back every value it swaps, and a
shared replay (``gradcheck.shared_tails``) gives each Parameter the values
of its own."""

import numpy as np
import pytest

from dualstream import attention, cli, gradcheck, losses
from dualstream.attention import AttentionBlock
from dualstream.errors import NumericalError
from dualstream.gradcheck import (check_parameter_gradients, probed,
                                  probes_at, reached, recorded_calls, replay,
                                  replay_group, shared_tails)
from dualstream.tensor import (Parameter, Tensor, add, broadcast_to, concat,
                               conv1d_same, gelu, getitem, linear, mul,
                               no_grad, op, per_probe, reshape, tanh_birnn,
                               transpose, tsum)

from common import detector, variants
from test_tensor import rand

P = 5


def lockstep_and_per_probe(fn, probes, *args, **kwargs):
    """``fn``'s batch rule with each Tensor key of ``probes`` moved to its
    [P, *shape] values, and ``fn``'s body run once per probe."""
    body = fn.__wrapped__
    recorded = {t: t.data for t in probes}
    try:
        singles = []
        for j in range(P):
            for t, values in probes.items():
                t.data = values[j]
            singles.append(np.asarray(body(*args, **kwargs)[0]))
        for t, values in probes.items():
            t.data = values
        batched = body.lockstep({id(t) for t in probes}, *args, **kwargs)
    finally:
        for t, data in recorded.items():
            t.data = data
    return batched, np.stack(singles)


def check(fn, moved, *args, seed=0, **kwargs):
    """Move each Tensor of ``moved`` to P random values near its own and
    compare ``fn``'s lockstep call with P single calls, bit for bit."""
    rng = np.random.default_rng(seed)
    probes = {t: t.data + rng.normal(scale=0.1, size=(P, *t.shape))
              for t in moved}
    batched, singles = lockstep_and_per_probe(fn, probes, *args, **kwargs)
    assert batched.shape == singles.shape
    assert batched.tobytes() == singles.tobytes()


def tensors(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [Tensor(rand(rng, *shape)) for shape in shapes]


@pytest.mark.parametrize("fn", [add, mul], ids=["add", "mul"])
def test_broadcasting_binary_ops(fn):
    a, b, row = tensors(1, (3, 4, 5), (3, 4, 5), (5,))
    check(fn, [a], a, b)
    check(fn, [b], a, b)
    check(fn, [a, b], a, b)
    check(fn, [a], a, row)
    check(fn, [row], a, row)
    check(fn, [a, row], row, a)
    check(fn, [a], a, 0.75)
    check(fn, [a], np.arange(5.0), a)


def test_batched_operand_of_lower_rank_than_the_other():
    # the speaker stream's add when dual.speaker_emb.table moves: the
    # table's rows [S, D] against the [T, S, D] swapped tokens
    x_sub, table = tensors(2, (3, 4, 8), (6, 8))
    swapped = transpose(x_sub, (1, 0, 2))
    rows = getitem(table, (slice(0, 3),))
    check(add, [rows], swapped, rows)
    check(add, [rows], rows, swapped)


def test_gelu():
    a, = tensors(3, (2, 3, 4))
    check(gelu, [a], a)


@pytest.mark.parametrize("x_shape", [(3,), (4, 3), (2, 4, 3)])
def test_linear_every_operand(x_shape):
    x, w, b = tensors(4, x_shape, (3, 5), (5,))
    for moved in ([x], [w], [b], [x, w], [w, b], [x, w, b]):
        check(linear, moved, x, w, b)


def test_linear_keeps_a_vector_input_per_probe():
    # a probe axis on a [n] input would make numpy's vector-matrix product
    # a matrix product; the rule runs such a call once per probe
    x, w, b = tensors(5, (7,), (7, 9), (9,))
    check(linear, [x], x, w, b)
    check(linear, [x, w], x, w, b)


@pytest.mark.parametrize("axis,keepdims", [
    (0, False), (1, True), (-1, False), ((0, 2), False), (None, False),
    (None, True)])
def test_tsum(axis, keepdims):
    a, = tensors(6, (3, 4, 5))
    check(tsum, [a], a, axis=axis, keepdims=keepdims)


def test_shape_ops():
    a, = tensors(7, (3, 4, 5))
    check(reshape, [a], a, (12, 5))
    check(reshape, [a], a, (60,))
    check(reshape, [a], a, (-1, 4, 1, 5))
    check(transpose, [a], a, (1, 0, 2))
    check(transpose, [a], a, (2, 0, 1))
    check(transpose, [a], a, (-1, 0, -2))
    check(getitem, [a], a, (slice(1, 3), slice(None), 1))
    check(getitem, [a], a, (Ellipsis, slice(0, 2)))
    check(getitem, [a], a, 2)
    check(getitem, [a], a, slice(0, 2))
    check(broadcast_to, [a], a, (3, 4, 5))
    check(broadcast_to, [a], a, (2, 3, 4, 5))
    row, = tensors(8, (1, 5))
    check(broadcast_to, [row], row, (3, 4, 5))


def test_concat():
    a, b = tensors(9, (3, 2, 5), (3, 4, 5))
    check(concat, [a, b], [a, b], axis=1)
    check(concat, [a], [a, b], axis=1)
    check(concat, [b], [a, b, a], axis=-2)
    check(concat, [a], [a, np.ones((3, 1, 5))], axis=1)
    check(concat, [a], [a, a], axis=0)


def block(seed, x_shape=(3, 4, 8), y_shape=(3, 6, 8), heads=2):
    rng = np.random.default_rng(seed)
    layer = AttentionBlock(8, heads, 16, rng, "b")
    for p in layer.parameters():  # biases and norm shifts non-zero
        p.data[...] = p.data + rng.normal(scale=0.3, size=p.shape)
    x, y = Tensor(rand(rng, *x_shape)), Tensor(rand(rng, *y_shape))
    return x, y, layer.parameters(), layer.heads


def test_block_with_tokens_moved():
    x, y, params, heads = block(10)
    for moved in ([x], [y], [x, y]):
        check(attention._block, moved, x, y, params, heads)


def test_self_attention_block_moved():
    x, _y, params, heads = block(11)
    check(attention._block, [x], x, x, params, heads)
    check(attention._block, [x, params[0]], x, x, params, heads)


@pytest.mark.parametrize("k", range(16))
def test_block_with_one_weight_moved(k):
    x, y, params, heads = block(12)
    check(attention._block, [params[k]], x, y, params, heads)
    check(attention._block, [params[k]], x, x, params, heads)
    check(attention._block, [x, params[k]], x, y, params, heads)


def test_block_with_one_head_and_a_single_query():
    x, y, params, heads = block(13, x_shape=(2, 1, 8), y_shape=(2, 6, 8),
                                heads=1)
    check(attention._block, [x], x, y, params, heads)
    check(attention._block, [params[6]], x, y, params, heads)


def test_per_probe_ops():
    rng = np.random.default_rng(14)
    x, w, b = (Tensor(rand(rng, *s)) for s in ((5, 3), (3, 3, 4), (4,)))
    check(conv1d_same, [x, w], x, w, b)
    fwd = [Tensor(0.5 * rand(rng, *s)) for s in ((4, 2), (2, 2), (2,))]
    bwd = [Tensor(0.5 * rand(rng, *s)) for s in ((4, 2), (2, 2), (2,))]
    h, = tensors(15, (5, 4))
    check(tanh_birnn, [h, fwd[1], bwd[0]], h, fwd, bwd)
    fa, fv = Tensor(rand(rng, 6, 4)), Tensor(rand(rng, 6, 4))
    active = np.array([1, 0, 1, 1, 0, 1])
    check(losses.contrastive_av, [fa], fa, fv, active, 0.07)
    check(losses.contrastive_av, [fa, fv], fa, fv, active, 0.07)


@pytest.mark.parametrize("shape", [(1, 12), (3, 4), (12,), (4, 48)],
                         ids=["one_speaker", "three_speakers", "gate_logits",
                              "past_one_pairwise_block"])
def test_masked_bce(shape):
    # [S, T] logits, and the gate's [T] ones; numpy adds more than 128
    # elements as two pairwise halves, which a row sum must split alike
    rng = np.random.default_rng(17)
    logits = Tensor(rand(rng, *shape))
    labels, mask = rng.random(shape) < 0.5, rng.random(shape) < 0.7
    check(losses.masked_bce, [logits], logits, labels, mask)
    check(losses.masked_bce, [logits], logits, labels.astype(float),
          np.ones(shape))


def test_masked_bce_of_an_empty_mask():
    logits, = tensors(18, (3, 4))
    check(losses.masked_bce, [logits], logits, np.ones((3, 4)),
          np.zeros((3, 4)))


def test_which_ops_batch():
    """The broadcasting ops, the shape ops, an axis sum, the attention block
    and the masked cross-entropy run once for all probes; the other ops
    once per probe."""
    one_call = [add, mul, gelu, linear, reshape, transpose, getitem,
                broadcast_to, concat, tsum, attention._block,
                losses.masked_bce]
    per_call = [conv1d_same, tanh_birnn, losses.contrastive_av]
    for fn in one_call:
        assert fn.__wrapped__.lockstep.func is not per_probe, fn.__name__
    for fn in per_call:
        assert fn.__wrapped__.lockstep.func is per_probe, fn.__name__


def loss_of(table, rows, fail):
    """A loss through an op whose batch rule raises when ``fail`` is set."""
    def lockstep(fn, moved, *args):
        if fail:
            raise RuntimeError("rule failed")
        return per_probe(fn, moved, *args)

    @op(batch=lockstep)
    def fragile(a):
        return tsum.__wrapped__(a)

    return add(fragile(mul(getitem(table, (slice(0, 2),)), rows)),
               tsum(table))


@pytest.mark.parametrize("fail", [False, True])
def test_replay_puts_back_every_value(fail):
    """Every Tensor the replay swaps gets back its own array object, the
    Parameter's too, though it is a view into a larger buffer."""
    rng = np.random.default_rng(16)
    buffer = rand(rng, 20)
    table = Parameter(np.zeros((3, 4)), "table")
    table.data = buffer[4:16].reshape(3, 4)
    rows = Tensor(rand(rng, 2, 4))
    loss = loss_of(table, rows, fail)
    plan = reached(recorded_calls(loss), table)
    before = [(t, t.data) for t in (table, rows, *plan)]
    saved = buffer.copy()
    probes = np.stack([table.data + 0.5, table.data - 0.5])
    if fail:
        with pytest.raises(RuntimeError, match="rule failed"):
            replay(plan, loss, table, probes)
    else:
        assert replay(plan, loss, table, probes).shape == (2,)
    for t, data in before:
        assert t.data is data
    assert np.shares_memory(table.data, buffer)
    assert buffer.tobytes() == saved.tobytes()


def test_replay_of_a_parameter_the_loss_does_not_read():
    a, unused = Parameter(np.ones(3), "a"), Parameter(np.ones(2), "unused")
    loss = tsum(mul(a, a))
    plan = reached(recorded_calls(loss), unused)
    assert plan == []
    values = replay(plan, loss, unused, np.zeros((4, 2)))
    assert values.tolist() == [3.0] * 4


def test_a_parameter_read_past_its_op_calls_fails():
    # the first probe's full pass sees the moved value, the replay does not
    a = Parameter(np.array([0.5, 1.5]), "a")

    def build_loss():
        return add(tsum(mul(a, a)), float(a.data[0]))

    with pytest.raises(NumericalError, match="a reaches the loss outside"):
        check_parameter_gradients(build_loss, [a])
    assert a.data.tolist() == [0.5, 1.5]


def audited(sets):
    """The audit's loss, recorded calls and Parameters for the detector of
    ``cli.TINY`` with ``sets`` over it, and one Parameter it does not read."""
    cfg, scene, model, gate_net = detector(sets, tiny=True)
    loss = cli.gradcheck_loss(scene, model, gate_net, cfg.loss_weights())()
    unread = Parameter(np.ones(3), "unread")
    return loss, recorded_calls(loss), [*model.parameters(),
                                        *gate_net.parameters(), unread]


def assert_own_replays(loss, calls, params, coords):
    """Each group's ``replay_group`` gives every member the values of its
    own ``replay``, bit for bit."""
    with no_grad():
        for plan, members in shared_tails(calls, params):
            values = replay_group(plan, members, loss, params, coords)
            for k in members:
                p = params[k]
                own = replay(reached(calls, p), loss, p,
                             probes_at(p, coords[k]))
                assert np.array(values[k]).tobytes() == own.tobytes(), p.name


def test_default_audit_shares_all_but_the_speaker_table():
    # 16 Parameters per attention block, 2 per linear or conv layer and 6
    # for the gate recurrence; the table is read in both rounds
    _loss, calls, params = audited({})
    groups = shared_tails(calls, params)
    assert sorted(i for _plan, members in groups for i in members) == \
        list(range(len(params)))
    alone = [params[m[0]].name for _plan, m in groups if len(m) == 1]
    assert alone == ["dual.speaker_emb.table", "unread"]
    sizes = sorted(len(m) for _plan, m in groups if len(m) > 1)
    assert sizes == [2] * 10 + [6] + [16] * 10


def test_a_parameter_read_again_later_replays_alone():
    # a and b reach the same calls, but mul reads a beside add's output: a
    # replay past add alone would give mul a's recorded value
    a = Parameter(np.array([0.5, -1.0]), "a")
    b = Parameter(np.array([2.0, 0.25]), "b")
    loss = tsum(mul(add(a, b), a))
    calls, params = recorded_calls(loss), [a, b]
    assert reached(calls, a) == reached(calls, b)
    assert [m for _plan, m in shared_tails(calls, params)] == [[0], [1]]
    assert_own_replays(loss, calls, params, [np.arange(2)] * 2)


@pytest.mark.parametrize("variant", variants())
def test_shared_tails_give_each_parameter_its_own_replay(variant):
    """Every Parameter's values from its group's replay are those of its
    own ``replay``, bit for bit: the groups of 16 block Parameters run
    past one ``CHUNK``, and the speaker table (in two rounds or more) and
    a Parameter the loss does not read replay alone."""
    loss, calls, params = audited(variant.sets)
    coords = [probed(p, k, 8, 0) for k, p in enumerate(params)]
    groups = shared_tails(calls, params)
    assert max(sum(2 * len(coords[k]) for k in members)
               for _plan, members in groups) > gradcheck.CHUNK
    assert_own_replays(loss, calls, params, coords)


def test_a_chunk_may_split_a_members_probes(monkeypatch):
    monkeypatch.setattr(gradcheck, "CHUNK", 7)
    loss, calls, params = audited({})
    coords = [probed(p, k, 3, 0) for k, p in enumerate(params)]
    assert_own_replays(loss, calls, params, coords)


@pytest.mark.parametrize("chunk", [7, 24, 64])
def test_first_calls_run_one_chunk_ahead(monkeypatch, chunk):
    """A block group's first-call outputs come in ``CHUNK`` rows, the last
    shorter, in member order, and are made only as the chunks are taken:
    at a yield, at most a chunk and one member's outputs are held."""
    monkeypatch.setattr(gradcheck, "CHUNK", chunk)
    _loss, calls, params = audited({})
    coords = [probed(p, k, 8, 0) for k, p in enumerate(params)]
    plan, members = next(g for g in shared_tails(calls, params)
                         if len(g[1]) == 16)
    built = []
    monkeypatch.setattr(gradcheck, "probes_at",
                        lambda p, c: built.append(len(c)) or probes_at(p, c))
    chunks, taken = [], 0
    with no_grad():
        for rows in gradcheck.first_call_chunks(plan[0], members, params,
                                                coords):
            assert 2 * sum(built) - taken < chunk + 2 * built[-1]
            taken += len(rows)
            chunks.append(rows.copy())
        own = [replay([plan[0]], plan[0], params[k],
                      probes_at(params[k], coords[k])) for k in members]
    assert [len(c) for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= chunk
    assert np.concatenate(chunks).tobytes() == np.concatenate(own).tobytes()
