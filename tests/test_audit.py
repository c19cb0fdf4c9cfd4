from dataclasses import replace
from pathlib import Path

import pytest

from conftest import build_state, build_topic
from gemstore.audit import audit, render_report, report_to_dict
from gemstore.baseline import BaselineJournalAdapter
from gemstore.cli import _load_probes
from gemstore.config import BetaSpec, EngineConfig
from gemstore import engine as engine_module, operators, transaction
from gemstore.engine import CorruptJournalError, Engine, EngineEvent, replay
from gemstore.model import Field, Provenance, ValueEntry
from gemstore.operators import Fact, FactBundle, Query, RuleTable
from gemstore.policy import default_policy_set, parse_policies
from gemstore.workload import load_workload, run_workload

WORKLOADS = Path(__file__).resolve().parent.parent / "workloads"


def bundle(text, hint=None, **facts):
    return FactBundle(tuple(Fact(k, v) for k, v in facts.items()), text, topic_hint=hint)


PROBE = Query(text="website redesign deadline")


def test_clean_engine_run_audits_clean():
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("website redesign deadline March 15", hint="web", Deadline="March 15")))
    e.submit(EngineEvent.tick())
    e.submit(EngineEvent.ingest(bundle("moved", hint="web", Deadline="April 20")))
    e.submit(EngineEvent.retrieve(Query(text="web deadline")))
    report = audit(e.journal, [PROBE])
    assert report.passed
    assert render_report(report).startswith("PASS C1-C6: 0 violations")


def test_c1_catches_stale_probe_answers():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=5)
    for text, deadline in (("is March 15", "March 15"), ("moved to April 20", "April 20")):
        adapter.submit(EngineEvent.ingest(bundle(f"website redesign deadline {text}", hint="web", Deadline=deadline)))
    adapter.submit(EngineEvent.retrieve(PROBE))
    report = audit(adapter.journal, [PROBE])
    # the append-only store still surfaces the superseded March 15 record
    assert len(report.c1) >= 1
    assert any("March 15" in v.detail for v in report.c1)


def test_c1_judges_an_answer_it_reuses_against_the_latest_ingest(monkeypatch):
    # the second ingest commits without a delta, so the probe's answers are
    # reused, but the ledger now expects April 20 of them
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("website redesign deadline", hint="web", Deadline="March 15")))
    monkeypatch.setattr(engine_module, "ingest", lambda txn, b, cfg: [])
    _, records = e.submit(EngineEvent.ingest(bundle("moved", hint="web", Deadline="April 20")))
    assert records[-1].committed and records[-1].deltas == []
    report = audit(e.journal, [PROBE])
    assert [(v.tick, v.subject, v.detail) for v in report.c1] == [
        (2, "web.Deadline", "probe returned 'March 15', last ingested value is 'April 20'")]
    assert report.totals() == {"c1": 1, "c2": 0, "c3": 0, "c4": 0, "c5": 0, "c6": 0}


@pytest.mark.xfail(strict=True, reason="C1 compares a genesis-only topic with another topic's ingests (ROADMAP item 1)")
def test_c1_does_not_compare_a_genesis_topic_with_another_topics_ingest():
    # today the probe answers checklist's own March 15, which the auditor
    # compares with plan's ingested April 20: C1 = 2, at ticks 1 and 2
    genesis = build_state([build_topic("plan", fields={"Deadline": "March 15"}),
                           build_topic("checklist", fields={"Deadline": "March 15"})])
    e = Engine(genesis=genesis)
    e.submit(EngineEvent.ingest(bundle("plan deadline moved", hint="plan", Deadline="April 20")))
    e.submit(EngineEvent.tick())
    report = audit(e.journal, [Query(text="launch checklist deadline")])
    assert report.passed, [(v.tick, v.subject) for v in report.c1]


def test_c3_catches_unrevised_dependent_reads():
    # an engine without the propagation policy commits the update but never
    # revises the successor; the auditor sees the gap when a read lands on it
    policies = parse_policies(
        'POLICY only-stale ON pre_commit WHEN stale_current_exists DO reject_transition("stale")'
    )
    genesis = build_state(
        [
            build_topic("plan", title="launch plan", fields={"Deadline": "March 15"}),
            build_topic("checklist", title="launch checklist status", fields={"Status": "on track"}),
        ],
        edges=[("plan", "checklist", "Extension")],
        policies=policies,
    )
    e = Engine(genesis=genesis, rules=RuleTable.empty())
    e.submit(EngineEvent.ingest(bundle("moved", hint="plan", Deadline="April 20")))
    e.submit(EngineEvent.retrieve(Query(text="launch checklist status")))
    report = audit(e.journal, [])
    assert [v.subject for v in report.c3] == ["checklist"]


def test_c5_catches_unrecoverable_eviction():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=1)
    adapter.submit(EngineEvent.ingest(bundle("first note", Note="one")))
    adapter.submit(EngineEvent.ingest(bundle("second note", Note="two")))  # evicts rec-0000
    report = audit(adapter.journal, [])
    assert any("rec-0000" in v.subject for v in report.c5)


def test_c6_one_violation_per_static_query():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=5)
    adapter.submit(EngineEvent.ingest(bundle("website redesign deadline March 15", hint="web", Deadline="March 15")))
    adapter.submit(EngineEvent.retrieve(PROBE))
    adapter.submit(EngineEvent.retrieve(PROBE))
    report = audit(adapter.journal, [])
    assert len(report.c6) == 2


def test_audit_rejects_tampered_digest():
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("a", hint="t", A="1")))
    e.journal.records[0].digest_after = "0" * 64
    with pytest.raises(CorruptJournalError):
        audit(e.journal, [])


def test_audit_and_replay_reject_a_journal_that_removes_an_absent_edge():
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("a", hint="t", A="1")))
    e.submit(EngineEvent.ingest(bundle("b", hint="u", B="1")))
    # a no-op delta: every digest after it still matches
    e.journal.records[1].deltas.append({"kind": "edge_removed", "src": "t", "dst": "u", "edge_kind": "Extension"})
    with pytest.raises(CorruptJournalError, match="unknown edge: t -> u"):
        replay(e.journal)
    with pytest.raises(CorruptJournalError, match="unknown edge: t -> u"):
        audit(e.journal, [])


def test_audit_and_replay_reject_a_deleted_record():
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("a", hint="t", A="1")))
    _, records = e.submit(EngineEvent.forget())
    assert records[0].committed and records[0].deltas == []
    e.submit(EngineEvent.ingest(bundle("b", hint="t", A="2")))
    del e.journal.records[1]  # the digest after tick 3 still matches
    with pytest.raises(CorruptJournalError, match="non-consecutive tick at 3"):
        replay(e.journal)
    with pytest.raises(CorruptJournalError, match="non-consecutive tick at 3"):
        audit(e.journal, [])


def test_report_rendering_is_deterministic():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=1)
    adapter.submit(EngineEvent.ingest(bundle("first note", Note="one")))
    adapter.submit(EngineEvent.ingest(bundle("second note", Note="two")))
    r1 = render_report(audit(adapter.journal, []))
    r2 = render_report(audit(adapter.journal, []))
    assert r1 == r2
    assert "FAIL" in r1
    d = report_to_dict(audit(adapter.journal, []))
    assert set(d) == {"c1", "c2", "c3", "c4", "c5", "c6"}


def test_violation_counts_monotone_in_journal_prefix():
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=2)
    for i in range(4):
        adapter.submit(EngineEvent.ingest(bundle(f"note {i}", Note=f"v{i}")))
        adapter.submit(EngineEvent.retrieve(Query(text=f"note {i}")))
    full = adapter.journal
    totals = []
    for cut in range(len(full.records) + 1):
        prefix = type(full)(
            config=full.config,
            genesis=full.genesis,
            genesis_digest=full.genesis_digest,
            records=full.records[:cut],
        )
        report = audit(prefix, [])
        totals.append(sum(len(getattr(report, c)) for c in ("c1", "c2", "c3", "c4", "c6")))
    assert totals == sorted(totals)


def test_c6_catches_an_unaccessed_unit_bumped_past_an_accessed_one(monkeypatch):
    real_retrieve = engine_module.retrieve

    def retrieve_and_bump(txn, q, cfg):
        out, events = real_retrieve(txn, q, cfg)
        txn.set_salience("notes", "Beta", 10.0)  # from below Alpha to above it
        return out, events

    monkeypatch.setattr(engine_module, "retrieve", retrieve_and_bump)
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("beta notes", hint="notes", Beta="b")))
    e.submit(EngineEvent.ingest(bundle("alpha facts", hint="facts", Alpha="a")))
    _, records = e.submit(EngineEvent.retrieve(Query(text="alpha")))
    assert records[-1].committed
    detail = "hide-ordering rank worsened for facts.Alpha"
    assert render_report(audit(e.journal, [])).splitlines() == [
        "FAIL C1-C6: 1 violations",
        "C1: 0",
        "C2: 0",
        "C3: 0",
        "C4: 0",
        "C5: 0",
        "C6: 1",
        f"  tick 3 retrieve: {detail}",
        '{"c1":[],"c2":[],"c3":[],"c4":[],"c5":[],"c6":[{"detail":"' + detail + '","subject":"retrieve","tick":3}]}',
    ]


def _policies_without(name):
    return [p for p in default_policy_set() if p.name != name]


def test_c5_catches_a_footprint_past_beta_without_the_footprint_policy():
    e = Engine(config=EngineConfig(beta=BetaSpec(base=2)), policies=_policies_without("bounded-active-state"))
    _, records = e.submit(EngineEvent.ingest(bundle("three notes", hint="notes", A="1", B="2", C="3")))
    assert records[-1].committed
    detail = "active footprint 3 exceeds bound 2"
    assert render_report(audit(e.journal, [])).splitlines() == [
        "FAIL C1-C6: 1 violations",
        "C1: 0",
        "C2: 0",
        "C3: 0",
        "C4: 0",
        "C5: 1",
        f"  tick 1 footprint: {detail}",
        "C6: 0",
        '{"c1":[],"c2":[],"c3":[],"c4":[],"c5":[{"detail":"' + detail + '","subject":"footprint","tick":1}],"c6":[]}',
    ]


def test_c2_catches_an_update_that_leaves_the_superseded_entry_current(monkeypatch):
    real_ingest = engine_module.ingest

    def ingest_superseding_the_new_entry(txn, b, cfg):
        fact = b.facts[0]
        if b.topic_hint not in txn.state.topics:
            return real_ingest(txn, b, cfg)
        txn.append_entry(b.topic_hint, fact.field, fact.value, ())
        newest = len(txn.state.topics[b.topic_hint].fields[fact.field].history) - 1
        txn.supersede_entry(b.topic_hint, fact.field, newest)  # the old entry stays current
        return [("field_updated", {"updated_topic": b.topic_hint, "updated_field": fact.field})]

    monkeypatch.setattr(engine_module, "ingest", ingest_superseding_the_new_entry)
    e = Engine(policies=_policies_without("reject-stale-current"))
    e.submit(EngineEvent.ingest(bundle("web deadline", hint="web", Deadline="March 15")))
    _, records = e.submit(EngineEvent.ingest(bundle("moved", hint="web", Deadline="April 20")))
    assert records[-1].committed
    detail = "a superseded value would be returned as current"
    assert render_report(audit(e.journal, [])).splitlines() == [
        "FAIL C1-C6: 1 violations",
        "C1: 0",
        "C2: 1",
        f"  tick 2 state: {detail}",
        "C3: 0",
        "C4: 0",
        "C5: 0",
        "C6: 0",
        '{"c1":[],"c2":[{"detail":"' + detail + '","subject":"state","tick":2}],"c3":[],"c4":[],"c5":[],"c6":[]}',
    ]


def _engine_with_notes(shared: bool) -> Engine:
    """An engine on a genesis whose topic a holds the provenance record
    ("seed", 1), as does topic c when `shared`; `_move_without_provenance`
    revises a and b only."""
    topics = [build_topic("a", fields={"Notes": "x"}, tick=1), build_topic("b", fields={"Owner": "kim"}, tick=2),
              build_topic("c", fields={"Owner": "lee"}, tick=1 if shared else 3)]
    return Engine(genesis=build_state(topics))


def _move_without_provenance(txn, evidence, cfg, rules):
    txn.install_field("b", Field("Notes", history=[ValueEntry("x", 1, ())]))
    txn.remove_field("a", "Notes")
    return []


@pytest.mark.parametrize("shared", [False, True])
def test_c4_reports_a_provenance_record_only_when_no_topic_holds_it(monkeypatch, shared):
    monkeypatch.setattr(engine_module, "revise", _move_without_provenance)
    e = _engine_with_notes(shared)
    _, records = e.submit(EngineEvent.revise(evidence=[]))
    assert records[-1].committed
    report = audit(e.journal, [])
    lost = [] if shared else [(1, "seed", "provenance record lost: ('seed', 1, '')")]
    assert [(v.tick, v.subject, v.detail) for v in report.c4] == lost
    assert report.passed == shared


def _fired(report) -> dict[str, int]:
    return {name: count for name, count in report.totals().items() if count}


def test_c6_catches_an_access_that_bumps_nothing(monkeypatch):
    monkeypatch.setattr(operators, "_bumped", lambda s, p: s)
    engine = Engine()
    run_workload(engine, load_workload(WORKLOADS / "deadline.workload"))
    report = audit(engine.journal, _load_probes(str(WORKLOADS / "deadline.probes")))
    assert _fired(report) == {"c6": 3}


def _lossy_summary(monkeypatch) -> None:
    """Make a compression fold its run into a summary without the run's
    provenance."""
    real = transaction._summary
    monkeypatch.setattr(transaction, "_summary", lambda run: real([replace(e, provenance=()) for e in run]))


def _notes_engine(policies, beta: int) -> Engine:
    """An engine on a genesis topic `plan` with an Owner field and a Notes
    field of five entries at salience 0.3, below theta_summary: the forget
    ladder folds its two oldest entries, whose one provenance record
    ("notes", 1) no other entry holds."""
    topic = build_topic("plan", fields={"Owner": "kim"})
    history = [ValueEntry(f"n{i}", at, (Provenance("notes", at),), superseded=i < 4)
               for i, at in enumerate((1, 1, 2, 3, 4))]
    topic.fields["Notes"] = Field("Notes", history=history, salience=0.3)
    genesis = build_state([topic], policies=policies, tick=4)
    return Engine(config=EngineConfig(beta=BetaSpec(base=beta)), genesis=genesis)


@pytest.mark.parametrize("lossy", [False, True])
def test_c4_catches_a_lossy_compression_inside_an_ingest(monkeypatch, lossy):
    # a pre_commit attenuate folds a history inside the ingest that fired it
    if lossy:
        _lossy_summary(monkeypatch)
    trim = parse_policies("POLICY trim ON pre_commit WHEN active_footprint > beta DO attenuate")
    e = _notes_engine(trim + default_policy_set(), beta=1)
    _, records = e.submit(EngineEvent.ingest(FactBundle((Fact("Lead", "lee"),), "plan lead", topic_hint="plan")))
    assert records[-1].committed and "history_compressed" in {d["kind"] for d in records[-1].deltas}
    report = audit(e.journal, [])
    lost = [(5, "notes", "provenance record lost: ('notes', 1, '')")] if lossy else []
    assert [(v.tick, v.subject, v.detail) for v in report.c4] == lost
    assert _fired(report) == ({"c4": 1} if lossy else {})


def test_c4_catches_a_lossy_compression_in_a_tick(monkeypatch):
    _lossy_summary(monkeypatch)
    e = _notes_engine(default_policy_set(), beta=200)
    _, records = e.submit(EngineEvent.tick())
    assert records[-1].committed and "history_compressed" in {d["kind"] for d in records[-1].deltas}
    assert _fired(audit(e.journal, [])) == {"c4": 1}
