"""Seed defects the benchmark's correctness gate has found, kept executable.

Each test describes the correct behaviour and is marked as an expected
failure until the defect is fixed; `strict=True` makes the fix visible.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _topic(tid: str, field_name: str):
    from gemstore.model import Field, Provenance, Timestamp, Topic, ValueEntry, fresh_embedding_for

    topic = Topic(id=tid, title=tid, summary=tid, embedding=None)
    f = Field(name=field_name)
    f.history.append(ValueEntry("v0", Timestamp(0), (Provenance("genesis", 0),)))
    topic.fields[field_name] = f
    topic.embedding = fresh_embedding_for(topic)
    return topic


@pytest.mark.xfail(strict=True, reason="audit keeps a revision pending after an auto-detect revise repaired it")
def test_auto_detect_revise_clears_pending_revision_for_the_auditor():
    """An auto-detect revise drains the dependency flags that an ingest raised
    and journals `flag_removed` deltas, but its `input.evidence` is None.  The
    auditor only clears pending revisions named by `input.target` or explicit
    evidence, so it reports a C3 violation for a later read of the repaired
    topic although the engine never served a flagged topic."""
    from gemstore.audit import audit
    from gemstore.engine import Engine, EngineEvent
    from gemstore.model import Edge, EdgeKind, MemoryState, Timestamp
    from gemstore.operators import Fact, FactBundle, Query, RuleTable
    from gemstore.policy import default_policy_set

    genesis = MemoryState(policies=default_policy_set())
    for topic in (_topic("plan", "plan-deadline"), _topic("checklist", "checklist-status")):
        genesis.topics[topic.id] = topic
    edge = Edge("plan", "checklist", EdgeKind.EXTENSION, Timestamp(0))
    genesis.edges[edge.key()] = edge
    rules = RuleTable.parse("plan.plan-deadline -> checklist.checklist-status : shift-annotation")
    engine = Engine(genesis=genesis, rules=rules)

    engine.submit(EngineEvent.ingest(FactBundle((Fact("plan-deadline", "v1"),), "plan moved", topic_hint="plan")))
    assert engine.state.revision_queue
    engine.submit(EngineEvent.revise())
    assert not engine.state.revision_queue
    _, records = engine.submit(EngineEvent.retrieve(Query(text="checklist status")))
    assert [r.operator for r in records] == ["retrieve"]

    report = audit(engine.journal, [])
    assert report.passed, report.totals()
