import hashlib
import json
from pathlib import Path

import pytest

from gemstore.audit import audit
from gemstore.baseline import BaselineJournalAdapter
from gemstore.config import EngineConfig
from gemstore.engine import Engine, EngineEvent
from gemstore.model import canonical_json
from gemstore.operators import Fact, FactBundle, Query
from gemstore.storage import write_journal
from gemstore.workload import (
    CSV_HEADER,
    WorkloadError,
    compare,
    load_workload,
    parse_workload,
    rows_to_csv,
    run_workload,
)
from gemstore.workload_gen import generate_workload

WORKLOADS = Path(__file__).resolve().parent.parent / "workloads"


def test_parse_workload_ops_and_comments():
    text = """
# a comment
{"op": "ingest", "hint": "t", "text": "x", "facts": [{"field": "A", "value": "1"}]}
{"op": "query", "text": "t a", "expected": {"field": "A", "value": "1"}}
{"op": "tick", "count": 3}
{"op": "assert", "check": "footprint_le", "bound": 10}
"""
    events = parse_workload(text)
    assert [e.op for e in events] == ["ingest", "query", "tick", "assert"]
    assert events[0].bundle.topic_hint == "t"
    assert events[2].count == 3


def test_parse_workload_errors_carry_line_numbers():
    with pytest.raises(WorkloadError, match="line 1"):
        parse_workload("{bad json")
    with pytest.raises(WorkloadError, match="unknown op"):
        parse_workload('{"op": "destroy"}')
    with pytest.raises(WorkloadError, match="assert needs"):
        parse_workload('{"op": "assert"}')


@pytest.mark.parametrize("count", ["0", "-1", '"x"', '"3"', "1.5", "true", "null"])
def test_parse_workload_rejects_a_bad_tick_count(count):
    with pytest.raises(WorkloadError, match="line 2: tick count must be an integer >= 1"):
        parse_workload('{"op": "forget"}\n{"op": "tick", "count": %s}' % count)


@pytest.mark.parametrize(
    "line",
    [
        '{"op": "ingest", "facts": [{"field": "a"}], "text": "x"}',  # a fact without a value
        '{"op": "query", "text": "a", "explicit": 5}',
        '{"op": "ingest", "facts": 5}',
        "[1]",  # not a JSON object
        '{"op": "query", "mode": "structural", "root": "a", "depth": "2"}',
        '{"op":"ingest","facts":[{"field":"a","value":5}],"text":"x","hint":"t"}',
        '{"op":"ingest","facts":[{"field":7,"value":"v"}],"text":"x","hint":"t"}',
        '{"op":"ingest","facts":[{"field":"a","value":"v"}],"text":5,"hint":"t"}',
        '{"op":"ingest","facts":[{"field":"a","value":"v"}],"text":"x","hint":7}',
        '{"op": "assert", "check": "current_value_equals", "topic": "t", "field": "A"}',  # no value
        '{"op": "assert", "check": "footprint_le", "bound": "x"}',
        '{"op": "assert", "check": "footprint_le", "bound": true}',
        '{"op": "assert", "check": "footprint_le", "bound": 3, "topic": "t"}',
        '{"op": "assert", "check": "field_tier", "topic": "t", "field": "A", "tier": "Frozen"}',
        '{"op": "assert", "check": "topic_archived", "topic": "t", "value": 1}',
        '{"op": "assert", "check": "no_such_check"}',
        '{"op": "assert", "check": ["footprint_le"], "bound": 3}',
    ],
)
def test_parse_workload_rejects_a_malformed_line(line):
    with pytest.raises(WorkloadError, match="line 2: "):
        parse_workload('{"op": "forget"}\n' + line)


@pytest.mark.parametrize(
    "line, key",
    [
        ('{"op": "query", "text": "plan deadline", "mdoe": "explicit"}', "mdoe"),
        ('{"op": "ingest", "facts": [{"field": "A", "value": "1"}], "text": "x", "hnit": "t"}', "hnit"),
        ('{"op": "ingest", "facts": [{"field": "A", "value": "1", "tag": "p"}], "text": "x"}', "tag"),
        ('{"op": "tick", "cuont": 2}', "cuont"),
        ('{"op": "revise", "target": "t"}', "target"),
        ('{"op": "forget", "count": 1}', "count"),
    ],
)
def test_parse_workload_refuses_an_unknown_key_by_name(line, key):
    with pytest.raises(WorkloadError, match=f"line 2: .*unknown key '{key}'"):
        parse_workload('{"op": "forget"}\n' + line)


def test_a_topic_archived_assert_expects_an_archived_topic_by_default():
    (event,) = parse_workload('{"op": "assert", "check": "topic_archived", "topic": "t"}')
    assert event.check == {"check": "topic_archived", "topic": "t", "value": True}
    engine = Engine()
    engine.submit(EngineEvent.ingest(FactBundle((Fact("A", "1"),), "x", topic_hint="t")))
    (failure,) = run_workload(engine, [event]).assert_failures
    assert failure.detail == "t.archived is False, expected True"


def test_run_workload_reports_assert_failures():
    events = parse_workload(
        '{"op": "ingest", "hint": "t", "text": "x", "facts": [{"field": "A", "value": "1"}]}\n'
        '{"op": "assert", "check": "current_value_equals", "topic": "t", "field": "A", "value": "wrong"}\n'
    )
    result = run_workload(Engine(), events)
    assert not result.passed
    assert "expected 'wrong'" in result.assert_failures[0].detail


def test_generator_is_deterministic_per_seed():
    a = generate_workload(7, length=60)
    b = generate_workload(7, length=60)
    c = generate_workload(8, length=60)
    assert len(a) == 60
    assert [(e.op, e.bundle.to_dict() if e.bundle else None, e.count) for e in a] == [
        (e.op, e.bundle.to_dict() if e.bundle else None, e.count) for e in b
    ]
    assert [(e.op, e.count) for e in a] != [(e.op, e.count) for e in c]


def test_generated_workloads_run_on_both_systems():
    events = generate_workload(3, length=40)
    engine_result = run_workload(Engine(), events)
    baseline_result = run_workload(BaselineJournalAdapter(EngineConfig(), capacity=5), events)
    n_queries = sum(1 for e in events if e.op == "query")
    assert len(engine_result.query_outputs) == n_queries
    assert len(baseline_result.query_outputs) == n_queries


def test_compare_emits_rows_for_both_systems():
    events = generate_workload(5, length=30)
    rows = compare(events, Engine(), BaselineJournalAdapter(EngineConfig(), capacity=5))
    systems = {r.system for r in rows}
    assert systems == {"gem", "baseline"}
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == len(rows) + 1
    # counters never decrease over a run
    for system in ("gem", "baseline"):
        stale = [r.stale_answers for r in rows if r.system == system]
        assert stale == sorted(stale)


# `gem compare` on the deadline workload: the governed engine never answers
# stale and loses nothing, the baseline answers two stale values and loses one
DEADLINE_CSV = """\
system,tick,footprint,stale_answers,lost_answers,salience_delta_sum
gem,1,1,0,0,0.000000
gem,2,2,0,0,0.000000
gem,3,2,0,0,1.000000
gem,10,1,0,0,1.000000
gem,11,1,0,0,1.000000
gem,12,1,0,0,1.000000
gem,13,1,0,0,2.000000
gem,20,1,0,0,2.000000
gem,21,2,0,0,2.000000
gem,22,3,0,0,2.000000
gem,23,4,0,0,2.000000
gem,24,5,0,0,2.000000
gem,25,6,0,0,2.000000
gem,26,6,0,0,4.000000
gem,33,2,0,0,4.000000
baseline,1,1,0,0,0.000000
baseline,2,2,0,0,0.000000
baseline,3,2,0,0,0.000000
baseline,10,2,0,0,0.000000
baseline,11,3,0,0,0.000000
baseline,12,4,0,0,0.000000
baseline,13,4,2,0,0.000000
baseline,20,4,2,0,0.000000
baseline,21,5,2,0,0.000000
baseline,22,5,2,0,0.000000
baseline,23,5,2,0,0.000000
baseline,24,5,2,0,0.000000
baseline,25,5,2,0,0.000000
baseline,26,5,2,1,0.000000
baseline,33,5,2,1,0.000000
"""


def test_compare_deadline_matches_golden_csv():
    events = load_workload(WORKLOADS / "deadline.workload")
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=5)
    rows = compare(events, Engine(), adapter)
    assert rows_to_csv(rows) == DEADLINE_CSV
    # the baseline's journal is pinned byte for byte, and so are its audit totals
    records = adapter.journal.records
    assert len(records) == 33
    encoded = canonical_json([r.to_dict() for r in records]).encode()
    assert hashlib.sha256(encoded).hexdigest() == "1037c990045f2b3ddd1c90cdedd7a40b6c5cd106923679951609c2a11101f7d9"
    totals = audit(adapter.journal, [Query(text="website redesign deadline")]).totals()
    assert totals == {"c1": 18, "c2": 0, "c3": 0, "c4": 0, "c5": 4, "c6": 3}


def _journal_sha(journal, tmp_path) -> str:
    path = tmp_path / "pinned.journal"
    write_journal(path, journal)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_engine_journals_and_digests_are_pinned(tmp_path):
    # the `deadline.journal`, `soak.0.journal` and `soak.0.digests` lines of
    # scripts/artefact_hashes.py: a change that moves them changes the
    # engine's bytes, and updates these pins on purpose
    engine = Engine()
    run_workload(engine, load_workload(WORKLOADS / "deadline.workload"))
    assert _journal_sha(engine.journal, tmp_path) == "955861b2d97605495d96a4fd71450e33a78b07f3da8ac924265d928f5a2fdab3"
    engine = Engine()
    run_workload(engine, generate_workload(0))
    assert _journal_sha(engine.journal, tmp_path) == "10fe18d19f74498a6ab9d2a1d841509d9445e8418a605c9e2363c5cc5698d770"
    trail = [engine.journal.genesis_digest]
    trail += [[r.tick, r.operator, r.outcome, r.reason, r.digest_after] for r in engine.journal.records]
    digests = hashlib.sha256(json.dumps(trail).encode()).hexdigest()
    assert digests == "7810849fc4066248916b3255d735f0616146c453f6e9dc1f186ec485486b69ff"
