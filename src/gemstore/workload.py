"""Workload files and runners.

A workload is a JSON-lines file of events: ingest, query, tick, revise,
forget, and assert.  The same workload can drive the governed engine or the
CRUD baseline, which is what the differential comparison relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Iterator, Optional, Union

from .audit import ShadowLedger
from .baseline import BaselineJournalAdapter
from .engine import Engine, EngineEvent, TransitionRecord
from .model import (
    BOOL,
    INT,
    STR,
    STR_OR_NULL,
    MemoryState,
    Tier,
    active_footprint,
    check_keys,
    check_types,
    current_value,
    decoding,
)
from .operators import FactBundle, Query, RetrievalOutput


@dataclass(frozen=True)
class WorkloadEvent:
    op: str  # ingest | query | tick | revise | forget | assert
    bundle: Optional[FactBundle] = None
    query: Optional[Query] = None
    expected: Optional[dict] = None  # query: the value the caller believes current
    count: int = 1  # tick repetition
    check: Optional[dict] = None  # assert payload


class WorkloadError(ValueError):
    pass


def json_lines(text: str, what: str = "line") -> Iterator[tuple[int, dict]]:
    """The line number and JSON object of each line that is neither blank nor
    a `#` comment; any other line raises a WorkloadError naming it."""
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            with decoding(WorkloadError, f"{what} {lineno}: invalid JSON"):
                obj = json.loads(stripped)
            if not isinstance(obj, dict):
                raise WorkloadError(f"{what} {lineno}: not a JSON object")
            yield lineno, obj


def parse_workload(text: str) -> list[WorkloadEvent]:
    events = []
    for lineno, obj in json_lines(text):
        with decoding(WorkloadError, f"line {lineno}"):
            events.append(_parse_event(obj, lineno))
    return events


def load_workload(path: str | Path) -> list[WorkloadEvent]:
    return parse_workload(Path(path).read_text(encoding="utf-8"))


def _parse_event(obj: dict, lineno: int) -> WorkloadEvent:
    op = obj.get("op")
    if op == "ingest":
        check_keys(WorkloadError, f"line {lineno}: ingest", obj, ("op", "facts", "text", "source", "hint"))
        bundle = {
            "facts": obj.get("facts", []),
            "text": obj.get("text", ""),
            "source_id": obj.get("source", "session"),
            "topic_hint": obj.get("hint"),
        }
        return WorkloadEvent("ingest", bundle=FactBundle.from_dict(bundle))
    if op == "query":
        query = {k: v for k, v in obj.items() if k not in ("op", "expected")}
        return WorkloadEvent("query", query=Query.from_dict(query), expected=obj.get("expected"))
    if op == "tick":
        check_keys(WorkloadError, f"line {lineno}: tick", obj, ("op", "count"))
        count = obj.get("count", 1)
        if type(count) is not int or count < 1:
            raise WorkloadError(f"line {lineno}: tick count must be an integer >= 1, got {count!r}")
        return WorkloadEvent("tick", count=count)
    if op in ("revise", "forget"):
        check_keys(WorkloadError, f"line {lineno}: {op}", obj, ("op",))
        return WorkloadEvent(op)
    if op == "assert":
        check = {k: v for k, v in obj.items() if k != "op"}
        _check_assert_keys(check, lineno)
        return WorkloadEvent("assert", check=check)
    raise WorkloadError(f"line {lineno}: unknown op {op!r}")


# the keys of each assert check besides "check", and the types of their values
ASSERT_CHECKS = {
    "current_value_equals": {"topic": STR, "field": STR, "value": STR_OR_NULL},
    "footprint_le": {"bound": INT},
    "field_tier": {"topic": STR, "field": STR, "tier": STR},
    "topic_archived": {"topic": STR, "value": BOOL},
}


def _check_assert_keys(check: dict, lineno: int) -> None:
    """Refuse an assert of an unknown check kind, or one whose keys or value
    types differ from its kind's row of ASSERT_CHECKS.  A topic_archived
    check without a value expects the topic archived."""
    kind = check.get("check")
    keys = ASSERT_CHECKS.get(kind)
    if keys is None:
        raise WorkloadError(f"line {lineno}: assert needs a check among {sorted(ASSERT_CHECKS)}, got {kind!r}")
    if kind == "topic_archived":
        check.setdefault("value", True)
    if check.keys() != {"check", *keys}:
        raise WorkloadError(f"line {lineno}: assert {kind} takes {sorted(keys)}, got {sorted(check)}")
    check_types(WorkloadError, f"line {lineno}: assert {kind}", check, keys)
    if kind == "field_tier":
        Tier(check["tier"])  # refuses a tier name that is none of Tier's values


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


@dataclass
class AssertFailure:
    index: int
    check: dict
    detail: str


@dataclass
class WorkloadResult:
    query_outputs: list = dc_field(default_factory=list)
    assert_failures: list[AssertFailure] = dc_field(default_factory=list)
    aborted: list[tuple[int, str]] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.assert_failures


System = Union[Engine, BaselineJournalAdapter]
Step = tuple[int, WorkloadEvent, Optional[RetrievalOutput], list[TransitionRecord]]


def _engine_events(ev: WorkloadEvent) -> list[EngineEvent]:
    if ev.op == "tick":
        return [EngineEvent.tick()] * ev.count
    if ev.op == "ingest":
        return [EngineEvent.ingest(ev.bundle)]
    if ev.op == "query":
        return [EngineEvent.retrieve(ev.query)]
    if ev.op == "revise":
        return [EngineEvent.revise()]
    if ev.op == "forget":
        return [EngineEvent.forget()]
    if ev.op == "assert":
        return []  # asserts inspect state and submit nothing
    raise WorkloadError(f"unknown op {ev.op!r}")


def steps(system: System, events: list[WorkloadEvent]) -> Iterator[Step]:
    """Submit each workload event to `system`; yields (index, event, output
    of its last submit, every record it journalled)."""
    for index, ev in enumerate(events):
        output, records = None, []
        for event in _engine_events(ev):
            output, recs = system.submit(event)
            records.extend(recs)
        yield index, ev, output, records


def run_workload(system: System, events: list[WorkloadEvent]) -> WorkloadResult:
    result = WorkloadResult()
    for index, ev, output, records in steps(system, events):
        if ev.op == "query":
            result.query_outputs.append(output)
        elif ev.op == "assert":
            failure = _check_assert(system.state, ev.check)
            if failure:
                result.assert_failures.append(AssertFailure(index, ev.check, failure))
        for record in records:
            if not record.committed:
                result.aborted.append((index, record.reason or ""))
    return result


def _check_assert(state: MemoryState, check: dict) -> Optional[str]:
    """What fails in a parsed assert payload, or None when it holds."""
    kind = check["check"]
    if kind == "current_value_equals":
        entry = current_value(state, check["topic"], check["field"])
        actual = entry.value if entry is not None else None
        if actual != check["value"]:
            return f"current value of {check['topic']}.{check['field']} is {actual!r}, expected {check['value']!r}"
    elif kind == "footprint_le":
        fp = active_footprint(state)
        if fp > check["bound"]:
            return f"active footprint {fp} exceeds {check['bound']}"
    elif kind == "field_tier":
        topic = state.topics.get(check["topic"])
        f = topic.fields.get(check["field"]) if topic else None
        if f is None:
            return f"no such unit: {check['topic']}.{check['field']}"
        if f.tier is not Tier(check["tier"]):
            return f"{check['topic']}.{check['field']} is {f.tier.value}, expected {check['tier']}"
    elif kind == "topic_archived":
        topic = state.topics.get(check["topic"])
        if topic is None:
            return f"no such topic: {check['topic']}"
        if topic.archived != check["value"]:
            return f"{check['topic']}.archived is {topic.archived}, expected {check['value']}"
    return None


# ---------------------------------------------------------------------------
# Differential comparison
# ---------------------------------------------------------------------------


@dataclass
class CompareRow:
    system: str
    tick: int
    footprint: int
    stale_answers: int
    lost_answers: int
    salience_delta_sum: float

    def as_csv(self) -> str:
        return (
            f"{self.system},{self.tick},{self.footprint},"
            f"{self.stale_answers},{self.lost_answers},{self.salience_delta_sum:.6f}"
        )


CSV_HEADER = "system,tick,footprint,stale_answers,lost_answers,salience_delta_sum"


def compare(events: list[WorkloadEvent], engine: Engine, adapter: BaselineJournalAdapter) -> list[CompareRow]:
    return _compare_rows("gem", engine, events) + _compare_rows("baseline", adapter, events)


def _compare_rows(name: str, system: System, events: list[WorkloadEvent]) -> list[CompareRow]:
    """One row per workload event that journalled at least one record."""
    rows = []
    expect = ShadowLedger()  # ticked by event index
    stale = lost = 0
    salience_sum = 0.0
    lam = system.config.salience.decay
    before = system.state
    for index, ev, output, records in steps(system, events):
        state = system.state
        if ev.op == "ingest":
            expect.ingest(ev.bundle, index)
        elif ev.op == "query":
            answers = []
            if output is not None:
                # committed snapshots are immutable, so `before` still holds
                # every unit's salience from before the read
                for tid, topic in state.topics.items():
                    prior = before.topics.get(tid)
                    for field_name, f in topic.fields.items():
                        old = prior.fields.get(field_name) if prior is not None else None
                        if old is not None:
                            salience_sum += state.salience(topic, f, lam) - before.salience(prior, old, lam)
                answers = [(a.field, a.value) for a in output.answers]
            stale += _count_stale(answers, expect)
            lost += _count_lost(answers, ev.expected)
        before = state
        if records:
            rows.append(CompareRow(name, state.clock, active_footprint(state), stale, lost, salience_sum))
    return rows


def _count_stale(answers: list[tuple[str, str]], expect: ShadowLedger) -> int:
    n = 0
    for field_name, value in answers:
        known = expect.latest_values(field_name)
        if known and value not in known:
            n += 1
    return n


def _count_lost(answers: list[tuple[str, str]], expected: Optional[dict]) -> int:
    if not expected:
        return 0
    want = (expected["field"], expected["value"])
    return 0 if want in answers else 1


def rows_to_csv(rows: list[CompareRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.as_csv() for r in rows]) + "\n"
