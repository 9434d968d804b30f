"""Flat config parsing, validation, and round-tripping."""

import math
from dataclasses import fields

import pytest

from dualstream.config import SCHEMA, RunConfig, load_config, parse_config_text
from dualstream.data import GenConfig
from dualstream.errors import ConfigError, ContractError
from dualstream.gate import GateParams
from dualstream.losses import LossWeights
from dualstream.model import ModelConfig

VIEWS = {GenConfig: "data", ModelConfig: "model", GateParams: "gate",
         LossWeights: "loss"}
OWN_KEYS = {"data.scenes", "train.epochs", "train.lr", "train.momentum",
            "train.seed", "gate.conv_hidden", "gate.rnn_hidden",
            "gate.epochs", "gate.lr", "eval.threshold"}


def field_key(cls, f):
    return f.metadata.get("key") or f"{VIEWS[cls]}.{f.name}"


def just_outside(rng, typ):
    """A value just beyond each finite end of ``rng``."""
    values = []
    if rng.lo > -math.inf:
        step = rng.lo - 1 if typ is int else math.nextafter(rng.lo, -math.inf)
        values.append(rng.lo if rng.open_lo else step)
    if rng.hi < math.inf:
        step = rng.hi + 1 if typ is int else math.nextafter(rng.hi, math.inf)
        values.append(rng.hi if rng.open_hi else step)
    return values


RANGED = [(key, value) for key, (typ, _d, rng) in SCHEMA.items()
          if rng is not None for value in just_outside(rng, typ)]


class TestSchema:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg["model.channels"] == 16
        assert cfg["gate.t_veto"] == 0.06
        assert cfg["gate.gamma"] == 0.8
        assert cfg["loss.temperature"] == 0.07

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig().set("model.bogus", 3)
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig()["nope"]

    def test_type_checked(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.set("model.channels", "not_an_int")
        cfg.set("model.channels", "32")
        assert cfg["model.channels"] == 32

    def test_range_checked(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError, match="out of range"):
            cfg.set("data.p_on_on", 1.5)
        with pytest.raises(ConfigError, match="out of range"):
            cfg.set("gate.t_veto", 0.0)
        with pytest.raises(ConfigError, match="out of range"):
            cfg.set("train.epochs", 0)

    def test_bool_parsing(self):
        cfg = RunConfig()
        cfg.set("model.ablate_speaker", "true")
        assert cfg["model.ablate_speaker"] is True
        cfg.set("model.ablate_speaker", "off")
        assert cfg["model.ablate_speaker"] is False
        with pytest.raises(ConfigError):
            cfg.set("model.ablate_speaker", "maybe")

    def test_cross_key_validation(self):
        with pytest.raises(ConfigError, match="divisible"):
            RunConfig({"model.channels": 10, "model.heads": 4})
        with pytest.raises(ConfigError, match="s_max"):
            RunConfig({"data.speakers": 9})
        zeros = {k: "0" for k in ("loss.w_av", "loss.w_v", "loss.w_a",
                                  "loss.w_con")}
        with pytest.raises(ConfigError, match="at least one loss weight"):
            load_config(None, zeros)

    def test_keys_are_the_dataclass_fields_plus_own_keys(self):
        held = {field_key(cls, f) for cls in VIEWS for f in fields(cls)}
        assert len(SCHEMA) == 44
        assert set(SCHEMA) == held | OWN_KEYS
        assert not held & OWN_KEYS

    def test_schema_defaults_are_the_field_defaults(self):
        for cls in VIEWS:
            for f in fields(cls):
                typ, default, rng = SCHEMA[field_key(cls, f)]
                assert (typ, default) == (type(f.default), f.default), f.name
                assert rng == f.metadata.get("range"), f.name

    @pytest.mark.parametrize("key,value", RANGED)
    def test_value_just_outside_range_rejected(self, key, value):
        with pytest.raises(ConfigError, match="out of range"):
            RunConfig().set(key, value)
        for cls in VIEWS:
            for f in fields(cls):
                if field_key(cls, f) == key:
                    with pytest.raises((ConfigError, ContractError),
                                       match="out of range"):
                        cls(**{f.name: value})

    def test_every_range_probed(self):
        ranged = {k for k, (_t, _d, rng) in SCHEMA.items() if rng is not None}
        assert {key for key, _ in RANGED} == ranged
        assert len(ranged) == 37  # all but the seeds, t_main, threshold, ablations


class TestText:
    def test_parse_with_comments(self):
        values = parse_config_text(
            "# a comment\n"
            "model.channels = 8  # trailing comment\n"
            "\n"
            "gate.gamma = 0.5\n")
        assert values == {"model.channels": "8", "gate.gamma": "0.5"}

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("model.channels = 8\nwhat.ever = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("gate.gamma = 0.5\ngate.gamma = 0.6\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("gate.gamma 0.5\n")

    def test_dump_parse_round_trip(self, tmp_path):
        cfg = RunConfig({"model.channels": 8, "model.heads": 2,
                         "gate.gamma": 0.25, "model.ablate_speaker": True})
        path = tmp_path / "run.cfg"
        path.write_text(cfg.dump())
        loaded = load_config(path)
        assert loaded.values == cfg.values
        assert loaded.dump() == cfg.dump()

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model.channels = 8\nmodel.heads = 2\n")
        cfg = load_config(path, {"model.channels": "32", "model.heads": "4"})
        assert cfg["model.channels"] == 32


class TestViews:
    def test_gen_config_reflects_values(self):
        cfg = RunConfig({"data.speakers": 2, "data.noise_std": 0.1,
                         "data.seed": 42})
        gen = cfg.gen_config()
        assert gen.speakers == 2 and gen.noise_std == 0.1 and gen.seed == 42

    def test_model_config_reflects_values(self):
        cfg = RunConfig({"model.channels": 8, "model.heads": 2,
                         "model.rounds": 3})
        mc = cfg.model_config()
        assert (mc.channels, mc.heads, mc.rounds) == (8, 2, 3)

    def test_gate_params_defaults_match_published_operating_point(self):
        gp = RunConfig().gate_params()
        assert (gp.t_main, gp.t_veto, gp.gamma, gp.eps) == (0.0, 0.06, 0.8, 1e-6)
