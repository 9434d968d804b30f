"""Flat config parsing, validation, and round-tripping."""

import math
from dataclasses import fields

import numpy as np
import pytest

from dualstream.config import (_ARRAYS, SCHEMA, RunConfig, load_config,
                               parse_config_text)
from dualstream.data import GenConfig
from dualstream.errors import ConfigError, ContractError
from dualstream.gate import GateParams
from dualstream.losses import LossWeights
from dualstream.model import ModelConfig
from dualstream.ranges import FINITE

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
NON_FINITE = [(key, text) for key, (typ, _d, _r) in SCHEMA.items()
              if typ is float for text in ("nan", "inf", "-inf")]
NUMBER_KEYS = [key for key, (typ, _d, _r) in SCHEMA.items()
               if typ in (int, float)]


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

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_bool_for_number_key_rejected(self, key, value):
        # it would echo as true / false, which the key cannot load back
        with pytest.raises(ConfigError, match=f"{key}: expected"):
            RunConfig({key: value})

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
        assert len(SCHEMA) == 43
        assert set(SCHEMA) == held | OWN_KEYS
        assert not held & OWN_KEYS

    def test_schema_defaults_are_the_field_defaults(self):
        for cls in VIEWS:
            for f in fields(cls):
                typ, default, rng = SCHEMA[field_key(cls, f)]
                assert (typ, default) == (type(f.default), f.default), f.name
                assert rng == f.metadata.get("range"), f.name

    def test_a_key_two_views_hold_is_declared_once(self):
        declared = {}
        for cls in VIEWS:
            for f in fields(cls):
                declared.setdefault(field_key(cls, f), []).append(
                    (type(f.default), f.default, f.metadata.get("range")))
        shared = {k: set(d) for k, d in declared.items() if len(d) > 1}
        assert set(shared) == {"data.height", "data.width", "data.mel_bins"}
        for key, declarations in shared.items():
            assert len(declarations) == 1, key

    @pytest.mark.parametrize("factor,keys", _ARRAYS)
    def test_array_numpy_refuses_rejected(self, factor, keys):
        # validation allocates nothing; with every key at its u32 end an
        # array of at least two of them exceeds what numpy can index
        values = {"model.heads": 1, "model.s_max": 2**32 - 1}
        values.update((k, 2**32 - 1) for k in keys)
        with pytest.raises(ConfigError, match="which numpy refuses"):
            RunConfig(values)

    def test_array_numpy_can_index_accepted(self):
        # 2**60 float64s are 2**63 bytes, one more than an index holds; one
        # frame and one hidden unit keep the attention logits and the
        # visual encoder's weights below the crops
        sizes = {"data.speakers": 1, "data.frames": 1, "data.width": 2**30,
                 "model.vis_hidden": 1}
        RunConfig({**sizes, "data.height": 2**30 - 1})
        with pytest.raises(ConfigError, match=r"^data.speakers 1, "
                           r"data.frames 1, data.height 1073741824, "
                           r"data.width 1073741824 size an array of more than "
                           f"{np.iinfo(np.intp).max} bytes"):
            RunConfig({**sizes, "data.height": 2**30})

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
        ranged = {k for k, (_t, _d, rng) in SCHEMA.items()
                  if rng not in (None, FINITE)}
        assert {key for key, _ in RANGED} == ranged
        assert len(ranged) == 39  # all but t_main, threshold, ablations

    @pytest.mark.parametrize("key,text", NON_FINITE)
    def test_non_finite_value_rejected(self, key, text):
        with pytest.raises(ConfigError, match=f"{key}: value .* must be finite"):
            RunConfig().set(key, text)
        for cls in VIEWS:
            for f in fields(cls):
                if field_key(cls, f) == key:
                    with pytest.raises((ConfigError, ContractError),
                                       match="must be finite"):
                        cls(**{f.name: float(text)})


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

    def test_dump_of_ints_given_for_float_keys_loads_back(self, tmp_path):
        cfg = RunConfig({"train.lr": 1, "gate.gamma": 0, "eval.threshold": -3,
                         "model.ablate_temporal": True})
        assert cfg["train.lr"] == 1.0 and type(cfg["train.lr"]) is float
        path = tmp_path / "run.cfg"
        path.write_text(cfg.dump())
        assert load_config(path).values == cfg.values

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
