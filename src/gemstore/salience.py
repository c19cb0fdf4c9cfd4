"""Salience arithmetic: rise on access, exponential decay on disuse,
and the rules of the graded attenuation ladder (compress / hide / archive),
which `operators.forget` applies to a topic and `due_epoch` schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .model import Field, Topic


class Tier(str, Enum):
    ACTIVE = "Active"
    COMPRESSED = "Compressed"
    HIDDEN = "Hidden"


# the members bound once for the loops that read a tier per field: on Python
# 3.11 each read of one off the class is a descriptor call, about ten times a
# global's cost
ACTIVE, COMPRESSED, HIDDEN = Tier.ACTIVE, Tier.COMPRESSED, Tier.HIDDEN


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
        if not self.delta_access >= 0.0:  # an access never lowers salience
            raise ValueError("delta_access must be non-negative")
        if not (math.isfinite(self.s0) and math.isfinite(self.delta_access)):
            raise ValueError("s0 and delta_access must be finite")


def decay(s: float, ticks: int, lam: float) -> float:
    if s < 0 or ticks < 0:
        raise ValueError("salience and tick count must be non-negative")
    return s * lam**ticks


# Memoised, as its inputs repeat: a settle asks again for the unchanged
# fields of each topic it re-reads, and fresh fields share s0.  On each
# benchmark workload 81% or more of the calls of a first round hit, and a
# mixed-small round asks for 725 distinct inputs; the bound keeps the memo's
# size fixed however many distinct bumped saliences a long-lived engine sees.
@lru_cache(maxsize=1 << 12)
def crossing(s: float, theta: float, lam: float) -> int:
    """The fewest ticks after which `decay` takes a finite salience `s` below
    `theta`: 0 when `s` is below it already.  The estimate from logarithms is
    confirmed, and stepped until it holds, with `decay` itself, so that no
    boundary case differs from the ladder's own comparison."""
    if s < theta:
        return 0
    d = math.ceil(math.log(theta / s) / math.log(lam)) or 1
    while decay(s, d, lam) >= theta:
        d += 1
    while d > 1 and decay(s, d - 1, lam) < theta:
        d -= 1
    return d


def bump(s: float, delta_access: float) -> float:
    if s < 0:
        raise ValueError("salience must be non-negative")
    return s + delta_access


def tier_of(s: float, p: SalienceParams) -> Tier:
    """The tier a field of salience `s` earns, which the forget ladder sets.
    Thresholds compare with strict less-than; below `theta_archive` a field
    stays hidden, and is `dormant`."""
    if s < p.theta_remove:
        return HIDDEN
    if s < p.theta_summary:
        return COMPRESSED
    return ACTIVE


def dormant(s: float, p: SalienceParams) -> bool:
    """Whether a field of salience `s` lets the forget ladder archive its
    topic, which it does when every field of the topic is dormant."""
    return s < p.theta_archive


def compress_cut(f: "Field", tier: Tier, k_recent: int) -> int:
    """How many leading history entries the forget ladder folds into one
    summary of a field of tier `tier`: none while it is Active, else those
    before the last `k_recent` and before the current entry, if they are
    two or more."""
    cut = len(f.history) - k_recent
    if tier is ACTIVE or cut < 2:
        return 0
    current = f.current_entry()
    if current is not None:
        cut = min(cut, f.history.index(current))
    return cut if cut >= 2 else 0


def due_epoch(topic: "Topic", p: SalienceParams, epoch: int) -> Optional[int]:
    """The decay epoch at which the forget ladder next changes `topic`, read
    at `epoch`: `epoch` itself if it would change it now, else the first
    later epoch at which it would re-tier a field, fold a field's history
    (`compress_cut`) or archive the topic (`dormant`).  None for an archived
    topic or one without fields, which the ladder never changes.

    Between the deltas that set it a field's salience only falls, so its
    tier at `epoch` follows from two crossings (Active until the first,
    Compressed until the second), and a field whose tier holds changes
    first at the crossing that ends it; a Hidden one never does, and a
    topic whose fields are all Hidden is dormant once the last of them
    is."""
    if topic.archived or not topic.fields:
        return None
    lam, theta_summary, theta_remove, k_recent = p.decay, p.theta_summary, p.theta_remove, p.k_recent
    first = None
    for f in topic.fields.values():
        age = epoch - f.since
        ends = crossing(f.salience, theta_summary, lam)
        if age < ends:  # Active, which folds no history
            if f.tier is not ACTIVE:
                return epoch
        else:
            ends = crossing(f.salience, theta_remove, lam)
            tier = COMPRESSED if age < ends else HIDDEN
            if tier is not f.tier or compress_cut(f, tier, k_recent):
                return epoch
            if tier is HIDDEN:
                continue
        if first is None or f.since + ends < first:
            first = f.since + ends
    if first is None:
        first = max(f.since + crossing(f.salience, p.theta_archive, lam) for f in topic.fields.values())
    return max(first, epoch)
