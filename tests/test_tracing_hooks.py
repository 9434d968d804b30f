"""perfbench's tracing hooks still find, and still see called, every package
callable they time.

``perfbench/tracing.py`` wraps package functions and methods by name from
outside the package.  A refactor that renames one, or stops calling it,
would otherwise show up only as a failed traced benchmark run.  The module
is loaded from its file and used as it is.
"""

import importlib.util
from pathlib import Path

import pytest

from dualstream.cli import gradcheck_inputs, main  # loads every hooked module
from dualstream.config import RunConfig

from test_cli import TINY

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hook_sets(tracing):
    return [(tracing.BOUNDARY, False), (tracing.TICKS, True),
            (tracing.LAYERS, False)]


def bound(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_hook_installs_and_removes(tracing):
    for specs, ticks in hook_sets(tracing):
        for spec in specs:
            hooks = tracing.Hooks(tracing.Tracer())
            hooks.install([spec], ticks=ticks)  # raises if the name is gone
            saved = list(hooks.saved)
            assert saved, spec
            for owner, attr, original in saved:
                assert bound(owner, attr).__wrapped__ is original, spec
            hooks.remove()
            for owner, attr, original in saved:
                assert bound(owner, attr) is original, spec


def test_tiny_pipeline_calls_every_layer_hook(tracing, tmp_path):
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    corpus, ckpt = tmp_path / "c.bin", tmp_path / "m.ckpt"
    try:
        for specs, ticks in hook_sets(tracing):
            hooks.install(specs, ticks=ticks)
        assert main([*TINY, "gen-data", "--scenes", "2",
                     "--out", str(corpus)]) == 0
        assert main([*TINY, "train", "--corpus", str(corpus),
                     "--out", str(ckpt)]) == 0
        assert main([*TINY, "eval", "--corpus", str(corpus), "--model", str(ckpt),
                     "--predictions", str(tmp_path / "p.csv"),
                     "--metrics", str(tmp_path / "m.txt")]) == 0
    finally:
        hooks.remove()
    spans = {(s.name, s.sub) for s in tracer.finished() if s is not None}
    assert {name for name, _ in spans} >= {f"{module}.{qualname}"
                                           for module, qualname in tracing.LAYERS}
    # the per-step figures perfbench reads from each training loop
    for name in ("tensor.zero_grads", "tensor.backward", "train.MomentumSGD.step"):
        assert {(name, "model"), (name, "gate")} <= spans, name


def forward_ticks(tracing, argv):
    """Forward ticks recorded while ``dualstream <argv>`` runs under the
    tick hooks, which perfbench reads as scored scenes and, in gradcheck,
    as loss evaluations."""
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    try:
        hooks.install(tracing.TICKS, ticks=True)
        assert main(argv) == 0
    finally:
        hooks.remove()
    return sum(1 for tick in tracer.ticks if tick[0] == tracing.FORWARD)


def test_eval_ticks_one_forward_per_scene(tracing, tmp_path):
    corpus, ckpt = tmp_path / "c.bin", tmp_path / "m.ckpt"
    assert main([*TINY, "gen-data", "--scenes", "3", "--out", str(corpus)]) == 0
    assert main([*TINY, "train", "--corpus", str(corpus),
                 "--out", str(ckpt)]) == 0
    assert forward_ticks(tracing, [
        *TINY, "eval", "--corpus", str(corpus), "--model", str(ckpt),
        "--predictions", str(tmp_path / "p.csv"),
        "--metrics", str(tmp_path / "m.txt")]) == 3


def test_gradcheck_ticks_one_forward_per_full_model_pass(tracing):
    _scene, model, gate_net = gradcheck_inputs(RunConfig())
    # the analytic pass, then per Parameter the full pass that checks its
    # first replayed pass; the replays run no model forward
    expected = 1 + len(model.parameters() + gate_net.parameters())
    assert expected == 188
    assert forward_ticks(tracing, ["gradcheck"]) == expected
