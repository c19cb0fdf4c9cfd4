"""Engine configuration: salience parameters, router thresholds, the active
footprint bound, and paths to policy / dependency-rule files."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

from .model import INT, NUMBER, STR_OR_NULL, check_types, decoding
from .salience import SalienceParams


class ConfigError(ValueError):
    """A config does not decode, or holds a value out of range."""


@dataclass(frozen=True)
class BetaSpec:
    """Footprint bound beta(n) = base + per_tick * n (per_tick = 0 for constant)."""

    base: int = 200
    per_tick: float = 0.0

    def validate(self) -> None:
        if self.base < 0:
            raise ValueError("beta base must be non-negative")
        # json reads NaN and Infinity; a negative slope takes beta below the
        # footprint, after which the footprint policy refuses every transition
        if not 0.0 <= self.per_tick < math.inf:
            raise ValueError("beta per_tick must be finite and non-negative")

    def bound(self, tick: int) -> int:
        return int(self.base + self.per_tick * tick)


@dataclass
class EngineConfig:
    salience: SalienceParams = field(default_factory=SalienceParams)
    tau_topic: float = 0.35
    tau_dup: float = 0.9
    k_topics: int = 3
    beta: BetaSpec = field(default_factory=BetaSpec)
    n_promote: int = 3
    m_promote: int = 5
    policy_paths: list[str] = field(default_factory=list)
    rule_path: Optional[str] = None

    def validate(self) -> None:
        self.salience.validate()
        self.beta.validate()
        if not (0.0 <= self.tau_topic <= 1.0 and 0.0 <= self.tau_dup <= 1.0):
            raise ValueError("router thresholds must lie in [0, 1]")
        if self.k_topics < 1:
            raise ValueError("k_topics must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict, what: str = "config") -> "EngineConfig":
        """Decode and validate a config, each of whose keys must name a field;
        any problem raises a ConfigError that names `what`."""
        with decoding(ConfigError, what):
            nested = {"salience": SalienceParams, "beta": BetaSpec}
            cfg = EngineConfig(**{k: nested[k](**v) if k in nested else v for k, v in d.items()})
            for obj in (cfg, cfg.salience, cfg.beta):  # a number has its default's type, or is an int
                types = {f.name: NUMBER if type(f.default) is float else INT for f in fields(obj)
                         if type(f.default) in (int, float)}
                check_types(TypeError, "config", vars(obj), types)
            check_types(TypeError, "config", vars(cfg), {"rule_path": STR_OR_NULL})
            if not (isinstance(cfg.policy_paths, list) and all(isinstance(p, str) for p in cfg.policy_paths)):
                raise TypeError("policy_paths must be a list of strings")
            cfg.validate()
        return cfg

    @staticmethod
    def load(path: str | Path) -> "EngineConfig":
        with open(path, "r", encoding="utf-8") as fh, decoding(ConfigError, f"config {path}"):
            return EngineConfig.from_dict(json.load(fh), f"config {path}")
