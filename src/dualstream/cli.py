"""Command-line entry point: gen-data | train | eval | gradcheck.

Every command echoes its effective merged configuration before running, so
any output file can be reproduced from the invocation log.  Exit codes:
0 success, 1 usage/config/out of memory, 2 data/format, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .config import RunConfig, load_config
from .data import (check_scene, generate, generate_scene, read_corpus,
                   write_corpus)
from .errors import (ConfigError, ContractError, DimensionError, FormatError,
                     MetricError, NumericalError)
from .evaluation import Cells, eval_metrics, metrics_report, write_predictions
from .gate import ConfidenceNet, gate_batch, voice_confidence
from .gradcheck import check_parameter_gradients, worst_by_group
from .losses import LOSS_PARTS, total_loss
from .model import ActiveSpeakerModel
from .tensor import add, no_grad
from .train import (apply_checkpoint, gate_loss, load_checkpoint,
                    save_checkpoint, train_gate, train_model)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

GRADCHECK_LIMIT = 1e-3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _echo_config(cfg: RunConfig):
    print("# effective config")
    for line in cfg.dump().rstrip("\n").split("\n"):
        print(f"# {line}")


def _load_cfg(args) -> RunConfig:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return load_config(args.config, overrides)


def _build_gate_net(cfg: RunConfig) -> ConfidenceNet:
    rng = np.random.default_rng([cfg["model.init_seed"], 0xA0D10])
    return ConfidenceNet(cfg["data.mel_bins"], cfg["gate.conv_hidden"],
                         cfg["gate.rnn_hidden"], rng)


def _read_corpus(path, cfg: RunConfig):
    """Read a corpus and hold every scene to ``data.check_scene`` for the
    configured model, before any work."""
    scenes = read_corpus(path)
    for scene in scenes:
        check_scene(scene, cfg["model.s_max"], cfg["data.height"],
                    cfg["data.width"], cfg["data.mel_bins"])
    return scenes


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg.set("data.seed", args.seed)
    if args.scenes is not None:
        cfg.set("data.scenes", args.scenes)
    _echo_config(cfg)
    n = cfg["data.scenes"]
    scenes = generate(cfg.gen_config(), n)
    write_corpus(scenes, args.out)
    labels = np.concatenate([sc.labels.reshape(-1) for sc in scenes])
    masks = np.concatenate([sc.mask.reshape(-1) for sc in scenes])
    distractors = np.concatenate([sc.distractor.reshape(-1) for sc in scenes])
    print(f"scenes={n}")
    print(f"label_rate={labels.sum() / max(masks.sum(), 1):.6f}")
    print(f"distractor_rate={distractors.sum() / max(masks.sum(), 1):.6f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def build_detector(cfg: RunConfig):
    """The untrained detector ``cfg`` names: (model, voice gate)."""
    return ActiveSpeakerModel(cfg.model_config()), _build_gate_net(cfg)


def train_detector(cfg: RunConfig, model, gate_net, scenes, log_fn=None):
    """Train the model on ``scenes``, passing ``log_fn`` its per-epoch loss
    rows, then its voice gate."""
    train_model(model, scenes, cfg.loss_weights(), cfg["train.epochs"],
                cfg["train.lr"], cfg["train.momentum"], cfg["train.seed"],
                log_fn)
    train_gate(gate_net, scenes, cfg["gate.epochs"], cfg["gate.lr"],
               cfg["train.momentum"], cfg["train.seed"])


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if args.epochs is not None:
        cfg.set("train.epochs", args.epochs)
    _echo_config(cfg)
    scenes = _read_corpus(args.corpus, cfg)
    model, gate_net = build_detector(cfg)

    log_path = args.out + ".log"
    with open(log_path, "w", encoding="utf-8") as log:
        columns = ("total", *LOSS_PARTS)
        log.write(",".join(("epoch", *columns)) + "\n")

        def log_fn(row):
            line = ",".join([str(row["epoch"]),
                             *(f"{row[k]:.9f}" for k in columns)])
            log.write(line + "\n")
            print(line)

        train_detector(cfg, model, gate_net, scenes, log_fn)

    tensors = {p.name: p.data for p in model.parameters() + gate_net.parameters()}
    save_checkpoint(tensors, args.out)
    print(f"wrote {args.out} ({len(tensors)} tensors) and {log_path}")
    return EXIT_OK


def collect_predictions(model, gate_net, scenes, gate_params, apply_gate):
    """Gated (if ``apply_gate``) and raw ``Cells`` of the mask-valid cells."""
    parts = []
    for scene in scenes:
        # tape-free: no op keeps its inputs for a backward pass.  Measured on
        # [4, 48] scenes, a fresh ``dualstream eval`` of 64 takes 18k minor
        # page faults in all (20k taped) and peaks at 69 MB RSS (78 MB
        # taped).  Right after generating 32 such scenes in one process, a
        # call takes 3k-18k faults and at most 0.05 s of system time (47k-67k
        # faults taped).
        with no_grad():
            raw = model.forward(scene.visual, scene.audio).scores.data
            p_voice = voice_confidence(scene.audio, gate_net)
        final = gate_batch(raw, p_voice, gate_params) if apply_gate else raw
        spk, frame = np.nonzero(scene.mask)  # row-major: the CSV's order
        parts.append((np.full(spk.size, scene.scene_id, dtype=object), spk,
                      frame, final[spk, frame], p_voice[frame],
                      scene.labels[spk, frame],
                      scene.distractor[spk, frame] == 1, raw[spk, frame]))
    *columns, raw = map(np.concatenate, zip(*parts))
    cells = Cells(*columns)
    return cells, dataclasses.replace(cells, score=raw)


def score_detector(cfg: RunConfig, model, gate_net, scenes, apply_gate=True):
    """(cells, metrics): the ``Cells`` of ``scenes``, gated if
    ``apply_gate``, and the eval report's metrics at ``eval.threshold``."""
    cells, raw_cells = collect_predictions(model, gate_net, scenes,
                                           cfg.gate_params(), apply_gate)
    return cells, eval_metrics(cells, raw_cells, cfg["eval.threshold"])


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    _echo_config(cfg)
    scenes = _read_corpus(args.corpus, cfg)
    model, gate_net = build_detector(cfg)
    apply_checkpoint(model.parameters() + gate_net.parameters(),
                     load_checkpoint(args.model))

    cells, metrics = score_detector(cfg, model, gate_net, scenes,
                                    args.gate == "on")
    report = metrics_report(metrics)
    # written once every metric is computed: a metric that cannot be
    # computed leaves neither file behind
    write_predictions(cells, args.predictions)
    with open(args.metrics, "w", encoding="utf-8") as fh:
        fh.write(report)
    print(report, end="")
    print(f"wrote {args.predictions} and {args.metrics}")
    return EXIT_OK


# the gradient check's sizes, scene seed and noise; other keys are the user's
TINY = {
    "data.seed": 5, "data.speakers": 2, "data.frames": 3, "data.height": 4,
    "data.width": 4, "data.mel_bins": 8, "data.noise_std": 0.2,
    "model.channels": 8, "model.heads": 2, "model.rounds": 2,
    "model.s_max": 2, "model.vis_hidden": 8, "model.audio_hidden": 8,
    "gate.conv_hidden": 4, "gate.rnn_hidden": 4,
}


def gradcheck_inputs(cfg: RunConfig):
    """The scene, model and voice gate that ``gradcheck`` audits: those of
    ``cfg`` with ``TINY`` set over it."""
    tiny = RunConfig({**cfg.values, **TINY})
    return generate_scene(tiny.gen_config(), 0), *build_detector(tiny)


def gradcheck_loss(scene, model, gate_net, weights):
    """``build_loss`` for the audit: the model's loss plus the gate's."""
    def build_loss():
        out = model.forward(scene.visual, scene.audio)
        main = total_loss(out, scene.labels, scene.mask, weights)[0]
        return add(main, gate_loss(gate_net, scene))
    return build_loss


def cmd_gradcheck(args) -> int:
    cfg = _load_cfg(args)
    _echo_config(cfg)
    scene, model, gate_net = gradcheck_inputs(cfg)
    build_loss = gradcheck_loss(scene, model, gate_net, cfg.loss_weights())
    params = model.parameters() + gate_net.parameters()
    worst = check_parameter_gradients(build_loss, params, max_coords=8)
    groups = worst_by_group(worst)
    for module in sorted(groups):
        print(f"module {module}: worst_rel_err={groups[module]:.3e}")
    overall = max(groups.values())
    print(f"overall worst_rel_err={overall:.3e} over {len(params)} parameters")
    if overall > GRADCHECK_LIMIT:
        print(f"FAIL: worst relative error exceeds {GRADCHECK_LIMIT}")
        return EXIT_NUMERICAL
    print("PASS")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dualstream",
                     description="desk-scale audio-visual active speaker "
                                 "detection pipeline")
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scenes", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train model + voice gate on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a corpus and report metrics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--gate", choices=("on", "off"), default="on")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, ContractError, DimensionError, MetricError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
