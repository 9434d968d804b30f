"""Flat `key = value` run configuration.

One namespace-dotted key per tunable, every key validated at load time,
unknown keys rejected.  A key held by a field of ``GenConfig`` (``data.*``),
``ModelConfig`` (``model.*``), ``GateParams`` (``gate.*``) or ``LossWeights``
(``loss.*``) takes its type, default and range from that field.  CLI flags
override file values; the effective merged config is echoed before every
command runs so any run can be reproduced from its log.
"""

from __future__ import annotations

from dataclasses import fields

from .data import GenConfig
from .errors import ConfigError, ContractError
from .gate import GateParams
from .losses import LossWeights
from .model import ModelConfig
from .ranges import AT_LEAST_1, POSITIVE, Range

# the dataclass behind each view and the namespace of its keys
_VIEWS = {GenConfig: "data", ModelConfig: "model", GateParams: "gate",
          LossWeights: "loss"}

# keys no dataclass holds: key -> (type, default, range or None)
_OWN_KEYS = {
    "data.scenes": (int, 200, AT_LEAST_1),
    "train.epochs": (int, 16, AT_LEAST_1),
    "train.lr": (float, 0.03, POSITIVE),
    "train.momentum": (float, 0.9, Range(0, 1, open_hi=True)),
    "train.seed": (int, 0, None),
    "gate.conv_hidden": (int, 16, AT_LEAST_1),
    "gate.rnn_hidden": (int, 16, AT_LEAST_1),
    "gate.epochs": (int, 20, AT_LEAST_1),
    "gate.lr": (float, 0.03, POSITIVE),
    "eval.threshold": (float, 0.0, None),
}

_NAMESPACES = ("data", "model", "train", "gate", "loss", "eval")


def _key(cls, f):
    return f.metadata.get("key") or f"{_VIEWS[cls]}.{f.name}"


def _schema():
    schema = {}
    for cls in _VIEWS:
        for f in fields(cls):
            # ModelConfig's input sizes share the data.* keys of GenConfig
            schema.setdefault(_key(cls, f), (type(f.default), f.default,
                                             f.metadata.get("range")))
    schema.update(_OWN_KEYS)
    return dict(sorted(schema.items(),
                       key=lambda kv: _NAMESPACES.index(kv[0].split(".")[0])))


# key -> (type, default, range or None), grouped by namespace
SCHEMA = _schema()


def _parse_value(key, text):
    expected, _default, _check = SCHEMA[key]
    text = text.strip()
    try:
        if expected is bool:
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text}")
        return expected(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


class RunConfig:
    """Validated flat configuration with typed accessors."""

    def __init__(self, values=None):
        self.values = {k: default for k, (_t, default, _c) in SCHEMA.items()}
        if values:
            for k, v in values.items():
                self.set(k, v)
        self.validate()

    def __getitem__(self, key):
        if key not in self.values:
            raise ConfigError(f"unknown config key: {key}")
        return self.values[key]

    def set(self, key, value):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        expected, _default, rng = SCHEMA[key]
        if isinstance(value, str):
            value = _parse_value(key, value)
        if expected is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, expected):
            raise ConfigError(
                f"config key {key}: expected {expected.__name__}, "
                f"got {type(value).__name__}")
        if rng is not None:
            rng.check(f"config key {key}", value, ConfigError)
        self.values[key] = value

    def validate(self):
        """Cross-field checks: every view builds; speakers fit the slots."""
        try:
            for cls in _VIEWS:
                self._view(cls)
        except ContractError as exc:
            raise ConfigError(str(exc)) from None
        if self["data.speakers"] > self["model.s_max"]:
            raise ConfigError(
                f"data.speakers {self['data.speakers']} exceeds "
                f"model.s_max {self['model.s_max']}")

    def dump(self) -> str:
        lines = [f"{k} = {self._fmt(self.values[k])}" for k in SCHEMA]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    # ------------------------------------------------------------------
    # views consumed by the other modules

    def _view(self, cls):
        return cls(**{f.name: self[_key(cls, f)] for f in fields(cls)})

    def gen_config(self) -> GenConfig:
        return self._view(GenConfig)

    def model_config(self) -> ModelConfig:
        return self._view(ModelConfig)

    def gate_params(self) -> GateParams:
        return self._view(GateParams)

    def loss_weights(self) -> LossWeights:
        return self._view(LossWeights)


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment; blank lines ignored."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, "
                              f"got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = val.strip()
    return values


def load_config(path=None, overrides=None) -> RunConfig:
    """Defaults <- file <- overrides, validated as a whole."""
    values = {}
    if path is not None:
        with open(path, "r") as fh:
            values = parse_config_text(fh.read())
    return RunConfig({**values, **(overrides or {})})
