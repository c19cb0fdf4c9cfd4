"""Acceptance gate: one test per headline guarantee, each printing a
single PASS line with its measured numbers.  Run with -s to see them."""

import random
import time
from pathlib import Path

import pytest

from conftest import build_state, build_topic
from gemstore.audit import audit
from gemstore.baseline import BaselineJournalAdapter
from gemstore.config import BetaSpec, EngineConfig
from gemstore.engine import CorruptJournalError, Engine, EngineEvent, replay
from gemstore.model import active_footprint, current_value, history, state_digest
from gemstore.operators import Fact, FactBundle, Query, RuleTable, hide_order
from gemstore.policy import (
    ActionSpec,
    And,
    EventKind,
    Exists,
    FieldIs,
    FootprintGt,
    Not,
    Or,
    Policy,
    PolicyParseError,
    SalienceLt,
    StaleCurrentExists,
    TopicArchived,
    parse_policy,
    render_policy,
)
from gemstore.salience import SalienceParams
from gemstore.storage import read_journal, snapshot_from_journal, write_journal
from gemstore.workload import load_workload, run_workload
from gemstore.workload_gen import generate_workload

WORKLOADS = Path(__file__).resolve().parent.parent / "workloads"
PROBE = Query(text="website redesign deadline")


def bundle(text, hint=None, **facts):
    return FactBundle(tuple(Fact(k, v) for k, v in facts.items()), text, topic_hint=hint)


def test_deadline_inversion_scenario():
    """Moved deadline: governed engine answers the new date, stays bounded,
    and hides the untouched topic; all inside one second."""
    t0 = time.time()
    events = load_workload(WORKLOADS / "deadline.workload")
    engine = Engine()
    result = run_workload(engine, events)
    assert result.passed, [f.detail for f in result.assert_failures]
    assert result.aborted == []

    answer = current_value(engine.state, "website-redesign", "Deadline")
    assert answer.value == "April 20"

    # same events through the append-only baseline: week-1 query already
    # surfaces the stale date, week-2 query has lost the fact entirely
    baseline = BaselineJournalAdapter(EngineConfig(), capacity=5)
    b_result = run_workload(baseline, events)
    week1 = [(r.field, r.value) for r in b_result.query_outputs[1].answers]
    week2 = [(r.field, r.value) for r in b_result.query_outputs[2].answers]
    assert ("Deadline", "March 15") in week1
    assert ("Deadline", "April 20") not in week2

    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nPASS scenario inversion: moved deadline honored, baseline stale+lost, {elapsed:.3f}s")


def test_baseline_exhibits_failure_modes_under_audit():
    events = load_workload(WORKLOADS / "deadline.workload")
    baseline = BaselineJournalAdapter(EngineConfig(), capacity=5)
    run_workload(baseline, events)
    report = audit(baseline.journal, [PROBE])
    n_queries = sum(1 for e in events if e.op == "query")

    assert len(report.c1) >= 1, "append-only store must answer with stale values"
    assert len(report.c5) >= 1, "eviction must be flagged as unrecoverable"
    assert len(report.c6) == n_queries, "every static read must be flagged"

    engine = Engine()
    run_workload(engine, events)
    assert audit(engine.journal, [PROBE]).passed
    print(
        f"\nPASS baseline failure modes: c1={len(report.c1)} c5={len(report.c5)} "
        f"c6={len(report.c6)}=={n_queries} queries; governed engine clean"
    )


def test_random_workloads_audit_clean():
    t0 = time.time()
    n_workloads, length = 200, 100
    probes = [Query(text="atlas deadline"), Query(text="harbor owner status")]
    for seed in range(n_workloads):
        engine = Engine()
        run_workload(engine, generate_workload(seed, length=length))
        report = audit(engine.journal, probes)
        assert report.passed, f"seed {seed}: {report.totals()}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS soak: {n_workloads} workloads x {length} events audit-clean in {elapsed:.1f}s")


def test_salience_closed_form_through_the_engine():
    """r accesses then d idle ticks must land on (s0 + r*delta) * decay^d
    exactly, and an access never worsens a unit's hide-ordering rank."""
    # tiny archive threshold keeps the topic live for the whole horizon
    params = SalienceParams(theta_archive=1e-9)
    cfg = EngineConfig(salience=params)
    worst = 0.0
    for rises in range(6):
        for idle in range(31):
            e = Engine(config=cfg)
            e.submit(EngineEvent.ingest(bundle("metric sample point", hint="m", Reading="42")))
            for _ in range(rises):
                out, _ = e.submit(EngineEvent.retrieve(Query(text="metric reading")))
                assert out.accessed_units == [("m", "Reading")]
            for _ in range(idle):
                e.submit(EngineEvent.tick())
            topic = e.state.topics["m"]
            got = e.state.salience(topic, topic.fields["Reading"], params.decay)
            expected = (params.s0 + rises * params.delta_access) * params.decay**idle
            worst = max(worst, abs(got - expected))
            assert abs(got - expected) <= 1e-9

    # rank check: the accessed unit moves later (or stays) in hide order
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("alpha reading one", hint="a", Alpha="1")))
    e.submit(EngineEvent.ingest(bundle("beta reading two", hint="b", Beta="2")))
    lam = e.config.salience.decay
    before = hide_order(e.state, lam).index(("b", "Beta"))
    e.submit(EngineEvent.retrieve(Query(text="beta reading")))
    after = hide_order(e.state, lam).index(("b", "Beta"))
    assert after >= before
    print(f"\nPASS salience closed form: max |error| {worst:.2e} over r in 0..5, d in 0..30")


def test_provenance_preserved_through_revise_and_forget():
    engine = Engine(
        genesis=build_state(
            [
                build_topic("plan", title="quarterly launch planning meeting notes", fields={"Deadline": "March 1"}),
                build_topic("plan-b", title="quarterly launch planning meeting notes", fields={"Deadline": "March 2"}),
            ]
        ),
        rules=RuleTable.empty(),
    )

    def reachable():
        out = set()
        for topic in engine.state.topics.values():
            for f in topic.fields.values():
                for entry in f.history:
                    out.update((p.source_id, p.event_id, p.excerpt) for p in entry.provenance)
        return out

    # enough updates to trigger compression once salience sags
    for i in range(8):
        engine.submit(EngineEvent.ingest(bundle(f"update {i}", hint="plan", Deadline=f"March {i + 3}")))
    ingested = reachable()
    engine.submit(EngineEvent.revise())  # merges the near-duplicate topics
    for _ in range(10):
        engine.submit(EngineEvent.tick())  # decay, compression, hiding
    engine.submit(EngineEvent.forget())

    assert ingested <= reachable(), "forget/revise dropped provenance records"
    report = audit(engine.journal, [])
    assert report.passed, report.totals()
    print(f"\nPASS provenance preservation: {len(ingested)} records intact through merge+compress+forget")


def test_footprint_bound_and_full_recoverability():
    """1000 ingests against beta=100: the active set stays bounded while
    every stored value remains reachable by explicit lookup."""
    cfg = EngineConfig(beta=BetaSpec(base=100))
    engine = Engine(config=cfg)
    max_fp = 0
    for i in range(1000):
        _, recs = engine.submit(
            EngineEvent.ingest(bundle(f"note {i} about item {i}", hint=f"topic-{i:04d}", **{f"F{i}": f"v{i}"}))
        )
        assert recs[0].committed
        max_fp = max(max_fp, active_footprint(engine.state))
        engine.submit(EngineEvent.tick())
        max_fp = max(max_fp, active_footprint(engine.state))
    assert max_fp <= 100

    recovered = sum(
        1
        for i in range(1000)
        if history(engine.state, f"topic-{i:04d}", f"F{i}")[-1].value == f"v{i}"
    )
    assert recovered == 1000

    # a burst with no idle time hits the bound and is refused, never exceeded
    burst = Engine(config=cfg)
    outcomes = []
    for i in range(120):
        _, recs = burst.submit(EngineEvent.ingest(bundle(f"burst {i}", hint=f"b{i}", **{f"B{i}": "x"})))
        outcomes.append(recs[0].outcome)
        assert active_footprint(burst.state) <= 100
    assert outcomes[:100] == ["committed"] * 100
    assert set(outcomes[100:]) == {"aborted"}
    print(f"\nPASS bounded footprint: max active {max_fp} <= 100, 1000/1000 recoverable, burst refused at bound")


def test_determinism_and_crash_recovery(tmp_path):
    events = generate_workload(42, length=80)

    def run(path):
        engine = Engine()
        run_workload(engine, events)
        write_journal(path, engine.journal)
        return engine

    p1, p2 = tmp_path / "run1.journal", tmp_path / "run2.journal"
    e1, e2 = run(p1), run(p2)
    assert e1.digest() == e2.digest()
    assert p1.read_bytes() == p2.read_bytes()

    snap = tmp_path / "state.snap"
    assert snapshot_from_journal(p1, snap) == e1.digest()
    snapshot = read_journal(snap)
    state = replay(snapshot)
    assert state_digest(state) == e1.digest()

    resumed = Engine(config=snapshot.config, genesis=state)
    resumed.submit(EngineEvent.tick())
    e1.submit(EngineEvent.tick())
    assert resumed.digest() == e1.digest()

    p1.write_bytes(p1.read_bytes()[:-5])
    with pytest.raises(CorruptJournalError):
        read_journal(p1)
    print("\nPASS determinism: byte-identical journals, digest-exact resume, truncation detected")


def test_policy_dsl_round_trip_and_diagnostics():
    p = parse_policy(
        "POLICY propagate-on-change\n"
        "  ON   field_updated\n"
        "  WHEN EXISTS dependent_topic\n"
        "  DO   flag_for_revision(dependent_topic)\n"
        "  WITH evidence = {updated_field, timestamp}\n"
    )
    assert p.on_event is EventKind.FIELD_UPDATED
    assert p.condition == Exists("dependent_topic")
    assert p.action == ActionSpec("flag_for_revision", target="dependent_topic")
    assert p.evidence == ("updated_field", "timestamp")

    rng = random.Random(2024)

    def random_condition(depth=0):
        atoms = [
            lambda: Exists(rng.choice(["updated_field", "updated_topic", "dependent_topic"])),
            lambda: SalienceLt(rng.choice(["updated_topic", "accessed_topic", "some-topic"]), rng.randrange(1, 1000) / 1000.0),
            lambda: FootprintGt(rng.choice([rng.randrange(0, 500), "beta"])),
            lambda: FieldIs(rng.choice(["Deadline", "Owner", "Status"])),
            lambda: TopicArchived(rng.choice(["updated_topic", "plan"])),
            lambda: StaleCurrentExists(),
        ]
        if depth >= 3 or rng.random() < 0.5:
            return rng.choice(atoms)()
        combiner = rng.choice(["not", "and", "or"])
        if combiner == "not":
            return Not(random_condition(depth + 1))
        node = And if combiner == "and" else Or
        return node(random_condition(depth + 1), random_condition(depth + 1))

    def random_action():
        kind = rng.choice(["noop", "flag_for_revision", "reject_transition", "attenuate", "archive"])
        if kind == "noop":
            return ActionSpec("noop")
        if kind == "flag_for_revision":
            return ActionSpec(kind, target="dependent_topic")
        if kind == "reject_transition":
            return ActionSpec(kind, message=rng.choice(["stop", "bound hit", "no"]))
        # archive needs a target; attenuate may go without one
        targets = [None, "updated_topic", "some-topic"] if kind == "attenuate" else ["updated_topic", "some-topic"]
        return ActionSpec(kind, target=rng.choice(targets))

    for i in range(1000):
        policy = Policy(
            name=f"p{i}",
            on_event=rng.choice(list(EventKind)),
            condition=random_condition(),
            action=random_action(),
            evidence=tuple(rng.sample(["updated_field", "timestamp", "cause"], rng.randrange(0, 3))),
        )
        assert parse_policy(render_policy(policy)) == policy

    with pytest.raises(PolicyParseError) as exc:
        parse_policy("POLICY p\n  ON tick\n  WHEN salience(x) < DO noop")
    assert exc.value.line == 3 and exc.value.col > 0

    with pytest.raises(PolicyParseError) as exc:
        parse_policy("POLICY p ON bogus WHEN stale_current_exists DO noop")
    assert exc.value.line == 1 and exc.value.col == 13
    print("\nPASS policy dsl: canonical example parsed, 1000 round trips, positioned diagnostics")


def test_dependency_gating_over_three_topic_chain():
    genesis = build_state(
        [
            build_topic("plan", title="launch plan", fields={"Deadline": "March 15"}),
            build_topic("checklist", title="launch checklist", fields={"Status": "on track"}),
            build_topic("press", title="press release", fields={"Draft": "v1"}),
            build_topic("lunch", title="team lunch", fields={"Venue": "cafe"}),
        ],
        edges=[
            ("plan", "checklist", "Extension"),
            ("checklist", "press", "Extension"),
            ("plan", "lunch", "Association"),
        ],
    )
    rules = RuleTable.parse(
        "plan.Deadline -> checklist.Status : shift-annotation\n"
        "checklist.Status -> press.Draft : shift-annotation\n"
    )
    engine = Engine(genesis=genesis, rules=rules)
    engine.submit(EngineEvent.ingest(bundle("deadline moved", hint="plan", Deadline="April 20")))
    out, records = engine.submit(EngineEvent.retrieve(Query(text="press release draft")))

    # both successors revised, in order, strictly before the read commits
    assert [r.operator for r in records] == ["revise", "revise", "retrieve"]
    revised = [r.input["target"] for r in records[:2]]
    assert revised == ["checklist", "press"]
    assert "needs review" in out.answers[0].value

    # the association neighbor was never revised or traversed for propagation
    assert "lunch" not in revised
    assert all(t != "lunch" for t, _ in engine.state.revision_queue)
    assert current_value(engine.state, "lunch", "Venue").value == "cafe"

    assert audit(engine.journal, []).passed
    print("\nPASS dependency gating: 2-hop extension chain revised before read, 0 association traversals")
