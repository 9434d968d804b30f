"""Batch rules: one lockstep call for P probes equals P single-probe calls
bit for bit, and ``gradcheck.replay`` puts back every value it swaps."""

import numpy as np
import pytest

from dualstream import attention, losses
from dualstream.attention import AttentionBlock
from dualstream.errors import NumericalError
from dualstream.gradcheck import (check_parameter_gradients, reached,
                                  recorded_calls, replay)
from dualstream.tensor import (Parameter, Tensor, add, broadcast_to, concat,
                               conv1d_same, gelu, getitem, linear, mul, op,
                               per_probe, reshape, tanh_birnn, transpose, tsum)

P = 5


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


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
    logits = Tensor(rand(rng, 3, 4))
    labels, mask = rng.random((3, 4)) < 0.5, rng.random((3, 4)) < 0.7
    check(losses.masked_bce, [logits], logits, labels, mask)
    fa, fv = Tensor(rand(rng, 6, 4)), Tensor(rand(rng, 6, 4))
    active = np.array([1, 0, 1, 1, 0, 1])
    check(losses.contrastive_av, [fa], fa, fv, active, 0.07)
    check(losses.contrastive_av, [fa, fv], fa, fv, active, 0.07)


def test_which_ops_batch():
    """The broadcasting ops, the shape ops, an axis sum and the attention
    block run once for all probes; the other ops once per probe."""
    one_call = [add, mul, gelu, linear, reshape, transpose, getitem,
                broadcast_to, concat, tsum, attention._block]
    per_call = [conv1d_same, tanh_birnn, losses.masked_bce,
                losses.contrastive_av]
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
