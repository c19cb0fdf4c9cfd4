"""Workload files and runners.

A workload is a JSON-lines file of events: ingest, query, tick, revise,
forget, and assert.  The same workload can drive the governed engine or the
CRUD baseline, which is what the differential comparison relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

from .audit import ShadowLedger
from .baseline import BaselineJournalAdapter
from .engine import Engine, EngineEvent
from .model import Tier, current_value, active_footprint
from .operators import Fact, FactBundle, Query


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


def parse_workload(text: str) -> list[WorkloadEvent]:
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"line {lineno}: invalid JSON ({exc})") from exc
        events.append(_parse_event(obj, lineno))
    return events


def load_workload(path: str | Path) -> list[WorkloadEvent]:
    return parse_workload(Path(path).read_text(encoding="utf-8"))


def _parse_event(obj: dict, lineno: int) -> WorkloadEvent:
    op = obj.get("op")
    if op == "ingest":
        facts = tuple(
            Fact(f["field"], f["value"], f.get("entity_tag"), f.get("excerpt", ""))
            for f in obj.get("facts", [])
        )
        bundle = FactBundle(
            facts=facts,
            text=obj.get("text", ""),
            source_id=obj.get("source", "session"),
            topic_hint=obj.get("hint"),
        )
        return WorkloadEvent("ingest", bundle=bundle)
    if op == "query":
        q = Query(
            text=obj.get("text", ""),
            mode=obj.get("mode", "default"),
            as_of=obj.get("as_of"),
            root=obj.get("root"),
            depth=obj.get("depth", 1),
            explicit=tuple(obj["explicit"]) if obj.get("explicit") else None,
        )
        return WorkloadEvent("query", query=q, expected=obj.get("expected"))
    if op == "tick":
        return WorkloadEvent("tick", count=int(obj.get("count", 1)))
    if op in ("revise", "forget"):
        return WorkloadEvent(op)
    if op == "assert":
        check = dict(obj)
        check.pop("op")
        if "check" not in check:
            raise WorkloadError(f"line {lineno}: assert needs a 'check' key")
        return WorkloadEvent("assert", check=check)
    raise WorkloadError(f"line {lineno}: unknown op {op!r}")


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


def run_workload(engine: Engine, events: list[WorkloadEvent]) -> WorkloadResult:
    result = WorkloadResult()
    for index, ev in enumerate(events):
        if ev.op == "ingest":
            _, records = engine.submit(EngineEvent.ingest(ev.bundle))
        elif ev.op == "query":
            output, records = engine.submit(EngineEvent.retrieve(ev.query))
            result.query_outputs.append(output)
        elif ev.op == "tick":
            records = []
            for _ in range(ev.count):
                _, recs = engine.submit(EngineEvent.tick())
                records.extend(recs)
        elif ev.op == "revise":
            _, records = engine.submit(EngineEvent.revise())
        elif ev.op == "forget":
            _, records = engine.submit(EngineEvent.forget())
        elif ev.op == "assert":
            failure = _check_assert(engine, ev.check)
            if failure:
                result.assert_failures.append(AssertFailure(index, ev.check, failure))
            continue
        else:  # pragma: no cover - parse_workload rejects unknown ops
            raise WorkloadError(f"unknown op {ev.op!r}")
        for record in records:
            if not record.committed:
                result.aborted.append((index, record.reason or ""))
    return result


def _check_assert(engine: Engine, check: dict) -> Optional[str]:
    kind = check["check"]
    state = engine.state
    if kind == "current_value_equals":
        entry = current_value(state, check["topic"], check["field"])
        actual = entry.value if entry is not None else None
        if actual != check["value"]:
            return f"current value of {check['topic']}.{check['field']} is {actual!r}, expected {check['value']!r}"
        return None
    if kind == "footprint_le":
        fp = active_footprint(state)
        if fp > check["bound"]:
            return f"active footprint {fp} exceeds {check['bound']}"
        return None
    if kind == "field_tier":
        topic = state.topics.get(check["topic"])
        f = topic.fields.get(check["field"]) if topic else None
        if f is None:
            return f"no such unit: {check['topic']}.{check['field']}"
        if f.tier is not Tier(check["tier"]):
            return f"{check['topic']}.{check['field']} is {f.tier.value}, expected {check['tier']}"
        return None
    if kind == "topic_archived":
        topic = state.topics.get(check["topic"])
        if topic is None:
            return f"no such topic: {check['topic']}"
        expect = bool(check.get("value", True))
        if topic.archived != expect:
            return f"{check['topic']}.archived is {topic.archived}, expected {expect}"
        return None
    return f"unknown assert kind {kind!r}"


def run_workload_baseline(adapter: BaselineJournalAdapter, events: list[WorkloadEvent]) -> WorkloadResult:
    """Drive the CRUD baseline with the same event stream; asserts are
    skipped since they describe governed-engine state."""
    result = WorkloadResult()
    for ev in events:
        if ev.op == "ingest":
            adapter.ingest(ev.bundle)
        elif ev.op == "query":
            result.query_outputs.append(adapter.query(ev.query))
        elif ev.op == "tick":
            for _ in range(ev.count):
                adapter.tick()
        # revise / forget / assert have no baseline counterpart
    return result


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
    rows: list[CompareRow] = []
    rows.extend(_compare_engine(events, engine))
    rows.extend(_compare_baseline(events, adapter))
    return rows


def _compare_engine(events: list[WorkloadEvent], engine: Engine) -> list[CompareRow]:
    rows = []
    expect = ShadowLedger()  # ticked by event index
    stale = lost = 0
    salience_sum = 0.0
    for index, ev in enumerate(events):
        if ev.op == "ingest":
            engine.submit(EngineEvent.ingest(ev.bundle))
            expect.ingest(ev.bundle.to_dict(), index)
        elif ev.op == "query":
            pre = {
                (tid, name): f.salience
                for tid, t in engine.state.topics.items()
                for name, f in t.fields.items()
            }
            output, _ = engine.submit(EngineEvent.retrieve(ev.query))
            if output is not None:
                for tid, t in engine.state.topics.items():
                    for name, f in t.fields.items():
                        salience_sum += f.salience - pre.get((tid, name), f.salience)
                answers = [(a.field, a.value) for a in output.answers]
            else:
                answers = []
            stale += _count_stale(answers, expect)
            lost += _count_lost(answers, ev.expected)
        elif ev.op == "tick":
            for _ in range(ev.count):
                engine.submit(EngineEvent.tick())
        elif ev.op == "revise":
            engine.submit(EngineEvent.revise())
        elif ev.op == "forget":
            engine.submit(EngineEvent.forget())
        else:
            continue
        rows.append(
            CompareRow(
                "gem",
                engine.state.clock.tick,
                active_footprint(engine.state),
                stale,
                lost,
                salience_sum,
            )
        )
    return rows


def _compare_baseline(events: list[WorkloadEvent], adapter: BaselineJournalAdapter) -> list[CompareRow]:
    rows = []
    expect = ShadowLedger()  # ticked by event index
    stale = lost = 0
    for index, ev in enumerate(events):
        if ev.op == "ingest":
            adapter.ingest(ev.bundle)
            expect.ingest(ev.bundle.to_dict(), index)
        elif ev.op == "query":
            results = adapter.query(ev.query)
            answers = [(r.field, r.value) for r in results if r.field is not None]
            stale += _count_stale(answers, expect)
            lost += _count_lost(answers, ev.expected)
        elif ev.op == "tick":
            for _ in range(ev.count):
                adapter.tick()
        else:
            continue
        rows.append(
            CompareRow(
                "baseline",
                adapter.state.clock.tick,
                active_footprint(adapter.state),
                stale,
                lost,
                0.0,  # the baseline never adapts from reads
            )
        )
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
