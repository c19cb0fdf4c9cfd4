"""Salience arithmetic: rise on access, exponential decay on disuse,
and the graded attenuation ladder (compress / hide / archive)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Tier(str, Enum):
    ACTIVE = "Active"
    COMPRESSED = "Compressed"
    HIDDEN = "Hidden"


@dataclass(frozen=True)
class SalienceParams:
    s0: float = 1.0
    delta_access: float = 1.0
    decay: float = 0.9
    theta_summary: float = 0.5
    theta_remove: float = 0.2
    theta_archive: float = 0.05
    k_recent: int = 3

    def validate(self) -> None:
        if not (0.0 < self.decay < 1.0):
            raise ValueError("decay factor must be in (0, 1)")
        if not (self.theta_summary > self.theta_remove > self.theta_archive > 0.0):
            raise ValueError("thresholds must satisfy theta_summary > theta_remove > theta_archive > 0")
        if not self.s0 > self.theta_summary:
            raise ValueError("s0 must exceed theta_summary")
        if self.k_recent < 0:
            raise ValueError("k_recent must be non-negative")


def decay(s: float, ticks: int, lam: float) -> float:
    if s < 0 or ticks < 0:
        raise ValueError("salience and tick count must be non-negative")
    return s * lam**ticks


def bump(s: float, delta_access: float) -> float:
    if s < 0:
        raise ValueError("salience must be non-negative")
    return s + delta_access


def tier_of(s: float, p: SalienceParams) -> Tier:
    """The tier a field of salience `s` earns.  Thresholds compare with
    strict less-than; below `theta_archive` a field stays hidden, and the
    forget ladder archives a topic whose every field is there."""
    if s < p.theta_remove:
        return Tier.HIDDEN
    if s < p.theta_summary:
        return Tier.COMPRESSED
    return Tier.ACTIVE
