"""Run configuration: a flat dataclass plus a line-based file format.

A Config checks itself when it is built, so one that breaks a rule cannot
exist; `dataclasses.replace` builds, and so checks, too.

Files hold one `key = value` pair per line; blank lines and lines starting
with # are skipped. Unknown keys are rejected rather than ignored so typos
cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .encoder import STRIDE
from .errors import ConfigError
from .seeding import entropy_word


@dataclass(frozen=True)
class Config:
    image_size: int = 64
    channels: int = 32          # feature channels c out of the encoder
    proto_dim: int = 16         # prototype count r in the reasoning branch
    gcn_depth: int = 2
    reduction: int = 4          # channel-attention bottleneck ratio
    encoder_width: int = 16
    encoder_depth: int = 4
    k_shot: int = 1
    fold: int = 0               # held-out test fold
    epochs: int = 10
    episodes_per_epoch: int = 20
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    graph_reasoning: bool = True
    excitation: bool = True
    edge_fusion: bool = True    # edge-similarity route (needs excitation)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "Config":
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name))
        if self.image_size < 16 or self.image_size % STRIDE:
            raise ConfigError("image_size must be >= 16 and divisible by %d"
                              % STRIDE)
        for name in ("channels", "proto_dim", "gcn_depth", "reduction",
                     "encoder_width", "encoder_depth", "k_shot", "epochs",
                     "episodes_per_epoch"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be positive" % name)
        if self.channels % self.reduction:
            raise ConfigError("channels must divide by reduction")
        if self.proto_dim < 2:
            raise ConfigError("proto_dim must be >= 2")
        if self.encoder_depth < 4:
            raise ConfigError("encoder_depth must be >= 4")
        if not 0 <= self.fold <= 2:
            raise ConfigError("fold must be 0, 1 or 2")
        entropy_word(self.seed)  # the run's streams derive from it
        try:
            lr_ok = math.isfinite(self.learning_rate) and self.learning_rate >= 0
        except OverflowError:  # an int beyond the float range
            lr_ok = False
        if not lr_ok:
            raise ConfigError("learning_rate must be finite and >= 0, got %r"
                              % self.learning_rate)
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.edge_fusion and not self.excitation:
            raise ConfigError("edge_fusion requires excitation")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def with_overrides(self, **kw) -> "Config":
        return replace(self, **kw)


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError("key %r: %r is not a boolean" % (key, raw))


def parse_config(text: str) -> Config:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("line %d: expected 'key = value', got %r"
                              % (lineno, line))
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ConfigError("line %d: duplicate key %r" % (lineno, key))
        ftype = _FIELD_TYPES[key]
        try:
            if ftype == "bool":
                values[key] = _parse_bool(key, raw)
            elif ftype == "int":
                values[key] = int(raw)
            else:
                values[key] = float(raw)
        except ValueError as e:
            raise ConfigError("line %d: key %r: %s" % (lineno, key, e)) from e
    return Config(**values)


def load_config(path) -> Config:
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError("%s: not UTF-8 at byte offset %d" % (path, e.start)) from e


def check_int(name: str, value, least: int | None = None) -> None:
    """Reject a value that is not an int (bool, a subclass, is refused too)
    or is below `least`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError("%s: %r is not an integer" % (name, value))
    if least is not None and value < least:
        raise ConfigError("%s must be >= %d, got %d" % (name, least, value))


def _check_type(key: str, value) -> None:
    ftype = _FIELD_TYPES[key]
    if ftype == "int":
        return check_int("key %r" % key, value)
    if ftype == "bool":
        ok, want = isinstance(value, bool), "a boolean"
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        want = "a number"
    if not ok:
        raise ConfigError("key %r: %r is not %s" % (key, value, want))


def config_from_dict(d: dict) -> Config:
    unknown = set(d) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError("unknown config keys: %s" % sorted(unknown))
    return Config(**d)
