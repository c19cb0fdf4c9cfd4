import pytest

from conftest import build_state, build_topic
from gemstore.audit import audit
from gemstore.config import BetaSpec, EngineConfig
from gemstore.embedding import embed
from gemstore.engine import Engine, EngineEvent, replay
from gemstore.model import (
    Field,
    Provenance,
    Timestamp,
    ValueEntry,
    canonical_json,
    current_value,
    fresh_embedding_for,
    state_digest,
    state_to_dict,
)
from gemstore.operators import EvidenceItem, Fact, FactBundle, Query, RuleTable
from gemstore.policy import PolicyParseError, default_policy_set, parse_policy
from gemstore.workload import run_workload
from gemstore.workload_gen import generate_workload


def bundle(text, hint=None, **facts):
    return FactBundle(tuple(Fact(k, v) for k, v in facts.items()), text, topic_hint=hint)


def test_commit_consumes_one_tick_and_appends_record():
    e = Engine()
    assert e.state.clock == 0
    _, records = e.submit(EngineEvent.ingest(bundle("hello", hint="t", A="1")))
    assert [r.outcome for r in records] == ["committed"]
    assert e.state.clock == 1
    assert records[0].tick == 1
    assert records[0].digest_after == e.digest()


def test_abort_is_journaled_without_consuming_a_tick():
    e = Engine()
    before = e.digest()
    _, records = e.submit(EngineEvent.ingest(FactBundle((), "empty")))
    record = records[0]
    assert record.outcome == "aborted"
    assert record.reason == "empty-bundle"
    assert record.deltas == []
    assert e.state.clock == 0
    assert e.digest() == before
    assert e.journal.records[-1] is record


def test_footprint_policy_rejects_oversized_ingest():
    e = Engine(config=EngineConfig(beta=BetaSpec(base=3)))
    for i in range(3):
        _, records = e.submit(EngineEvent.ingest(bundle(f"topic {i}", hint=f"t{i}", **{f"F{i}": "x"})))
        assert records[0].committed
    before = e.digest()
    _, records = e.submit(EngineEvent.ingest(bundle("one too many", hint="t3", F3="x")))
    assert records[0].outcome == "aborted"
    assert records[0].reason == "bounded-active-state"
    assert e.digest() == before
    # decay frees space: after enough ticks the oldest fields attenuate away
    for _ in range(20):
        e.submit(EngineEvent.tick())
    _, records = e.submit(EngineEvent.ingest(bundle("fits now", hint="t3", F3="x")))
    assert records[0].committed


def _salience(e, topic_id, field_name):
    topic = e.state.topics[topic_id]
    return e.state.salience(topic, topic.fields[field_name], e.config.salience.decay)


def test_tick_decays_salience_and_runs_attenuation():
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("a thing", hint="t", A="1")))
    s0 = _salience(e, "t", "A")
    e.submit(EngineEvent.tick())
    assert _salience(e, "t", "A") == pytest.approx(s0 * 0.9)
    for _ in range(30):
        e.submit(EngineEvent.tick())
    # 0.9^31 is below the archive threshold; the whole topic goes dormant
    assert e.state.topics["t"].archived


def test_archived_topics_stop_decaying():
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("a thing", hint="t", A="1")))
    for _ in range(31):
        e.submit(EngineEvent.tick())
    assert e.state.topics["t"].archived
    frozen = _salience(e, "t", "A")
    topic = e.state.topics["t"]
    for _ in range(5):
        _, records = e.submit(EngineEvent.tick())
        assert records[0].deltas == [{"kind": "epoch_advanced"}]
    assert _salience(e, "t", "A") == frozen
    # a tick leaves an archived topic untouched
    assert e.state.topics["t"] is topic
    # an explicit lookup bumps the archived unit from its frozen value,
    # and the bumped value stays frozen
    _, records = e.submit(EngineEvent.retrieve(Query(mode="explicit", explicit=("t", "A"))))
    assert [r.outcome for r in records] == ["committed"]
    bumped = frozen + e.config.salience.delta_access
    assert _salience(e, "t", "A") == bumped
    e.submit(EngineEvent.tick())
    assert _salience(e, "t", "A") == bumped
    assert state_digest(replay(e.journal)) == e.digest()


def test_a_genesis_edge_to_a_missing_topic_is_refused():
    state = build_state([build_topic("a")], edges=[("a", "ghost", "Association")])
    with pytest.raises(ValueError, match="edge endpoint missing: a -> ghost"):
        Engine(genesis=state)


def test_replay_reproduces_digest_exactly():
    e = Engine()
    e.submit(EngineEvent.ingest(bundle("website redesign deadline March 15", hint="web", Deadline="March 15")))
    e.submit(EngineEvent.retrieve(Query(text="website deadline")))
    e.submit(EngineEvent.tick())
    e.submit(EngineEvent.ingest(bundle("moved", hint="web", Deadline="April 20")))
    e.submit(EngineEvent.forget())
    state = replay(e.journal)
    assert state_digest(state) == e.digest()
    assert canonical_json(state_to_dict(state)) == canonical_json(state_to_dict(e.state))


def test_identical_runs_produce_identical_journals():
    def run():
        e = Engine()
        e.submit(EngineEvent.ingest(bundle("alpha fact", hint="a", X="1")))
        e.submit(EngineEvent.tick())
        e.submit(EngineEvent.retrieve(Query(text="a x")))
        return e

    r1 = [r.to_dict() for r in run().journal.records]
    r2 = [r.to_dict() for r in run().journal.records]
    assert canonical_json(r1) == canonical_json(r2)


def chain_fixture():
    """plan -> checklist -> press (extension), plan -- lunch (association)."""
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
        tick=0,
    )
    rules = RuleTable.parse(
        "plan.Deadline -> checklist.Status : shift-annotation\n"
        "checklist.Status -> press.Draft : shift-annotation\n"
    )
    return Engine(genesis=genesis, rules=rules)


def test_update_flags_extension_successors_only():
    e = chain_fixture()
    e.submit(EngineEvent.ingest(bundle("deadline moved", hint="plan", Deadline="April 20")))
    flagged = {t for t, _ in e.state.revision_queue}
    assert flagged == {"checklist"}  # association neighbor stays untouched


def test_retrieve_drains_revisions_through_the_chain():
    e = chain_fixture()
    e.submit(EngineEvent.ingest(bundle("deadline moved", hint="plan", Deadline="April 20")))
    out, records = e.submit(EngineEvent.retrieve(Query(text="press release draft")))

    # revision transitions committed before the retrieve itself
    assert [r.operator for r in records] == ["revise", "revise", "retrieve"]
    assert all(r.committed for r in records)
    assert e.state.revision_queue == set()

    status = current_value(e.state, "checklist", "Status").value
    draft = current_value(e.state, "press", "Draft").value
    assert "needs review: plan.Deadline changed to April 20" in status
    assert "needs review: checklist.Status changed" in draft
    # the answer the caller sees is the revised value
    assert [a.value for a in out.answers] == [draft]


def test_association_neighbor_never_revised():
    e = chain_fixture()
    before = canonical_json(e.state.topics["lunch"].to_dict())
    e.submit(EngineEvent.ingest(bundle("deadline moved", hint="plan", Deadline="April 20")))
    e.submit(EngineEvent.retrieve(Query(text="press release draft")))
    assert canonical_json(e.state.topics["lunch"].to_dict()) == before


def test_retrieval_context_includes_association_neighbors():
    e = chain_fixture()
    out, _ = e.submit(EngineEvent.retrieve(Query(text="launch plan deadline")))
    assert ("lunch", "team lunch") in out.context


def test_committed_records_journal_only_the_policies_that_fired():
    e = chain_fixture()
    _, records = e.submit(EngineEvent.ingest(bundle("deadline moved", hint="plan", Deadline="April 20")))
    assert records[0].committed
    # the two pre_commit policies were evaluated too, and did not fire
    assert records[0].policy_log == [{"policy": "propagate-on-change", "fired": True, "action": "flag_for_revision"}]


def test_aborted_records_keep_every_policy_evaluation():
    e = Engine(config=EngineConfig(beta=BetaSpec(base=1)))
    e.submit(EngineEvent.ingest(bundle("first", hint="t0", F0="x")))
    _, records = e.submit(EngineEvent.ingest(bundle("second", hint="t1", F1="x")))
    assert records[0].outcome == "aborted"
    assert records[0].policy_log == [
        {"policy": "propagate-on-change", "fired": False, "action": "flag_for_revision"},
        {"policy": "reject-stale-current", "fired": False, "action": "reject_transition"},
        {"policy": "bounded-active-state", "fired": True, "action": "reject_transition"},
    ]


def test_a_fired_reject_transition_is_inert_outside_pre_commit():
    never = parse_policy('POLICY never ON field_updated WHEN active_footprint > 0 DO reject_transition("never")')
    e = Engine(policies=default_policy_set() + [never])
    _, records = e.submit(EngineEvent.ingest(bundle("a thing", hint="t", A="1")))
    assert records[0].committed
    assert {"policy": "never", "fired": True, "action": "reject_transition"} in records[0].policy_log


def test_a_fired_pre_commit_action_is_applied():
    park = parse_policy("POLICY park ON pre_commit WHEN active_footprint > 1 DO archive(old)")
    genesis = build_state([build_topic("old", fields={"A": "1"})], policies=default_policy_set() + [park])
    e = Engine(genesis=genesis)
    _, records = e.submit(EngineEvent.ingest(bundle("a new thing", hint="new", B="2")))
    assert records[0].committed
    assert {"kind": "topic_archived", "id": "old", "merged_into": None} in records[0].deltas
    assert e.state.topics["old"].archived and not e.state.topics["new"].archived


# -- policy atoms and actions, through Engine.submit --------------------------


def _policy_engine(text, salience=1.0):
    """An engine whose genesis holds live topics `old` and `dim`, each with one
    field at `salience`, and archived topic `gone`, under the default policies
    plus `text`."""
    old, dim, gone = (build_topic(tid, fields={"A": "1"}) for tid in ("old", "dim", "gone"))
    old.fields["A"].salience = dim.fields["A"].salience = salience
    gone.archived, gone.archived_at = True, 0
    return Engine(genesis=build_state([old, dim, gone], policies=default_policy_set() + [parse_policy(text)]))


@pytest.mark.parametrize(
    "condition, fires",
    [
        ("NOT stale_current_exists", True),
        ("NOT active_footprint > 0", False),
        ("active_footprint > 0 AND topic_archived(gone)", True),
        ("active_footprint > 0 AND topic_archived(old)", False),
        ("stale_current_exists OR topic_archived(gone)", True),
        ("stale_current_exists OR topic_archived(ghost)", False),
        ("salience(old) < 1.5", True),
        ("salience(old) < 0.5", False),
    ],
)
def test_a_pre_commit_condition_decides_the_commit(condition, fires):
    e = _policy_engine(f'POLICY p ON pre_commit WHEN {condition} DO reject_transition("fired")')
    _, records = e.submit(EngineEvent.ingest(bundle("a new thing", hint="new", B="2")))
    assert (records[0].outcome, records[0].reason) == (("aborted", "fired") if fires else ("committed", None))


def test_a_salience_condition_resolves_a_context_variable():
    e = _policy_engine("POLICY p ON field_updated WHEN salience(updated_topic) < 1.5 DO archive(old)")
    _, records = e.submit(EngineEvent.ingest(bundle("a new thing", hint="new", B="2")))
    assert records[0].committed and e.state.topics["old"].archived


def test_archive_resolves_its_target_from_the_context():
    e = _policy_engine("POLICY p ON field_updated WHEN EXISTS updated_topic DO archive(updated_topic)")
    _, records = e.submit(EngineEvent.ingest(bundle("a new thing", hint="new", B="2")))
    assert records[0].committed
    assert e.state.topics["new"].archived and not e.state.topics["old"].archived


def test_archive_without_a_target_is_refused_before_it_can_abort_every_ingest():
    with pytest.raises(PolicyParseError, match=r"line 1, column 63"):
        _policy_engine("POLICY p ON field_updated WHEN EXISTS updated_topic DO archive")


@pytest.mark.parametrize("action, attenuated", [("attenuate(old)", {"old"}), ("attenuate", {"old", "dim"})])
def test_attenuate_runs_the_ladder_on_its_target_or_the_store(action, attenuated):
    e = _policy_engine(f"POLICY p ON field_updated WHEN EXISTS updated_topic DO {action}", salience=0.3)
    _, records = e.submit(EngineEvent.ingest(bundle("a new thing", hint="new", B="2")))
    assert records[0].committed
    assert {d["topic"] for d in records[0].deltas if d["kind"] == "tier_set"} == attenuated


def test_flag_for_revision_of_a_missing_topic_aborts_with_its_reason():
    e = _policy_engine("POLICY p ON field_updated WHEN EXISTS updated_topic DO flag_for_revision(ghost)")
    before = e.digest()
    _, records = e.submit(EngineEvent.ingest(bundle("a new thing", hint="new", B="2")))
    assert records[0].outcome == "aborted"
    assert records[0].reason == "flag_for_revision of unknown topic: ghost"
    assert e.journal.records[-1] is records[0] and e.digest() == before


def test_flag_for_revision_of_a_literal_topic_flags_it():
    e = _policy_engine("POLICY p ON field_updated WHEN EXISTS updated_topic DO flag_for_revision(old)")
    _, records = e.submit(EngineEvent.ingest(bundle("a new thing", hint="new", B="2")))
    assert records[0].committed and e.state.revision_queue == {("old", "new")}


def test_a_structural_read_stops_where_the_graph_ends():
    genesis = build_state([build_topic("a"), build_topic("b")], edges=[("a", "b", "Extension")])
    e = Engine(genesis=genesis)
    out, records = e.submit(EngineEvent.retrieve(Query(mode="structural", root="a", depth=10**12)))
    assert records[-1].committed and [tid for tid, _ in out.context] == ["a", "b"]
    assert audit(e.journal, []).passed  # the audit reads it again


# -- derived embeddings -----------------------------------------------------


class CoherenceCheckingEngine(Engine):
    """After every committed transition, each topic's embedding must equal
    the embedding of its current content text, term for term."""

    def _apply_once(self, event):
        output, record = super()._apply_once(event)
        if record.committed:
            for topic in self.state.topics.values():
                derived = embed(topic.content_text())
                vector = topic.vector()
                assert (vector.terms, vector.norm) == (derived.terms, derived.norm), (record.tick, topic.id)
        return output, record


def test_embeddings_follow_content_through_random_workloads():
    for seed in range(20):
        run_workload(CoherenceCheckingEngine(), generate_workload(seed, length=100))


def _revise_checked(genesis, item):
    engine = CoherenceCheckingEngine(genesis=genesis)
    _, records = engine.submit(EngineEvent.revise([item]))
    assert [r.outcome for r in records] == ["committed"]
    return engine.state


def test_embeddings_follow_content_through_merge_and_promotion():
    title = "quarterly release planning"
    a = build_topic("a", title=title, fields={"Deadline": "May 1"})
    b = build_topic("b", title=title, fields={"Owner": "kim"})
    merged = _revise_checked(build_state([a, b]), EvidenceItem("duplicate_topics", "a", other="b"))
    assert merged.topics["a"].fields["Owner"].current_entry().value == "kim"

    meetings = build_topic("meetings", fields={f"Budget{i}": f"v{i}" for i in range(5)})
    for name in ("Budget0", "Budget1", "Budget2"):
        meetings.fields[name].entity_tag = "budget-review"
    promote = EvidenceItem("promotion_candidate", "meetings", other="budget-review")
    promoted = _revise_checked(build_state([meetings]), promote)
    assert set(promoted.topics["budget-review"].fields) == {"Budget0", "Budget1", "Budget2"}


def _conflicting_plan():
    # the later-dated value sits first, so resolving the conflict changes
    # the current value
    topic = build_topic("plan")
    history = [
        ValueEntry("June 9", Timestamp(5), (Provenance("seed", 5),)),
        ValueEntry("May 1", Timestamp(1), (Provenance("seed", 1),)),
    ]
    topic.fields["Deadline"] = Field(name="Deadline", history=history)
    topic.embedding = fresh_embedding_for(topic)  # memo of the pre-revise text
    return topic


def test_embedding_follows_content_through_conflict_resolution():
    topic = _conflicting_plan()
    before = topic.content_text()
    conflict = EvidenceItem("conflicting_values", "plan", field="Deadline")
    state = _revise_checked(build_state([topic], tick=5), conflict)
    assert state.topics["plan"].fields["Deadline"].current_entry().value == "June 9"
    assert state.topics["plan"].content_text() != before


def test_auto_detected_conflict_keeps_the_latest_dated_value():
    checklist = build_topic("checklist", fields={"Status": "on track"})
    genesis = build_state([_conflicting_plan(), checklist], edges=[("plan", "checklist", "Extension")], tick=5)
    e = Engine(genesis=genesis)
    _, records = e.submit(EngineEvent.revise())
    assert [r.outcome for r in records] == ["committed"], records[0].reason
    history = e.state.topics["plan"].fields["Deadline"].history
    assert [(h.value, h.at, h.superseded) for h in history] == [
        ("June 9", 5, True),
        ("May 1", 1, True),
        ("June 9", 6, False),
    ]
    assert history[-1].provenance == (Provenance("seed", 5),)
    # the current value changed, so its dependents are flagged and drained
    assert e.state.revision_queue == {("checklist", "plan.Deadline")}
    e.submit(EngineEvent.retrieve(Query(text="checklist status")))
    assert e.state.revision_queue == set()
    assert audit(e.journal, []).passed


def test_drain_repairs_a_topic_after_every_pending_topic_that_reaches_it():
    # b sorts before z, but z -> b: repairing z flags b again, so b must wait
    topics = [
        build_topic("c", title="cause topic", fields={"c-deadline": "May 1"}),
        build_topic("z", title="middle topic", fields={"z-status": "on track"}),
        build_topic("b", title="bottom topic", fields={"b-status": "on track"}),
    ]
    edges = [("c", "b", "Extension"), ("c", "z", "Extension"), ("z", "b", "Extension")]
    rules = RuleTable.parse(
        "c.c-deadline -> b.b-status: shift-annotation\n"
        "c.c-deadline -> z.z-status: shift-annotation\n"
        "z.z-status -> b.b-status: shift-annotation\n"
    )
    e = Engine(genesis=build_state(topics, edges=edges), rules=rules)
    e.submit(EngineEvent.ingest(bundle("deadline moved", hint="c", **{"c-deadline": "June 9"})))
    _, records = e.submit(EngineEvent.retrieve(Query(text="bottom topic status")))
    assert [(r.operator, r.input["target"]) for r in records] == [("revise", "z"), ("revise", "b"), ("retrieve", None)]
    assert e.state.revision_queue == set()
    assert "z.z-status changed" in current_value(e.state, "b", "b-status").value
    assert audit(e.journal, []).passed



def _two_topic_engine(edges, rules, policies=None):
    topics = [build_topic("a", fields={"fa": "0"}), build_topic("b", fields={"fb": "0"})]
    genesis = build_state(topics, edges=edges, policies=policies)
    e = Engine(genesis=genesis, rules=RuleTable.parse(rules))
    e.submit(EngineEvent.ingest(bundle("a moved", hint="a", fa="v1")))
    return e


def test_a_drain_whose_repair_aborts_still_ends(monkeypatch):
    # b's repair fires `broken`, which aborts it and leaves b queued: the
    # drain ends because it visits each topic once, not because the queue empties
    broken = parse_policy("POLICY broken ON field_updated WHEN field == fb DO flag_for_revision(ghost)")
    e = _two_topic_engine([("a", "b", "Extension")], "a.fa -> b.fb : shift-annotation",
                          policies=default_policy_set() + [broken])
    assert e.state.revision_queue == {("b", "a.fa")}
    calls = []
    real = Engine._apply_once

    def apply_once(self, event):
        calls.append(event.kind)
        assert len(calls) <= 3, f"the drain does not end: {calls}"
        return real(self, event)

    monkeypatch.setattr(Engine, "_apply_once", apply_once)
    _, records = e.submit(EngineEvent.retrieve(Query(text="b fb")))
    assert [(r.operator, r.outcome) for r in records] == [("revise", "aborted"), ("retrieve", "committed")]
    assert records[0].reason == "flag_for_revision of unknown topic: ghost"
    assert e.state.revision_queue == {("b", "a.fa")}


@pytest.mark.xfail(strict=True, reason="an Extension cycle grows its values on every drain (ROADMAP item 1)")
def test_a_dependency_cycle_stops_growing_after_the_first_drain():
    # today a.fa grows to 71, 244 and 694 characters and b.fb to 36, 140
    # and 417, and the audit reports C3 = 3
    e = _two_topic_engine([("a", "b", "Extension"), ("b", "a", "Extension")],
                          "a.fa -> b.fb : shift-annotation\nb.fb -> a.fa : shift-annotation")
    lengths = []
    for _ in range(3):
        e.submit(EngineEvent.retrieve(Query(text="b fb")))
        lengths.append((len(current_value(e.state, "a", "fa").value), len(current_value(e.state, "b", "fb").value)))
    assert lengths == lengths[:1] * 3
    report = audit(e.journal, [])
    assert report.passed, report.totals()

@pytest.mark.parametrize(
    "edit, error",
    [
        ({"kind": "bogus"}, ValueError),
        ({"kind": 5}, TypeError),
        ({"target": 5}, TypeError),
        ({"target": ["plan"]}, TypeError),
    ],
)
def test_an_event_of_no_known_kind_or_with_a_bad_target_does_not_decode(edit, error):
    event = EngineEvent.revise(evidence=[EvidenceItem("dependency_flag", "plan", other="src.A")], target="plan")
    assert EngineEvent.from_dict(event.to_dict()) == event
    with pytest.raises(error):
        EngineEvent.from_dict({**event.to_dict(), **edit})


@pytest.mark.parametrize(
    "edit", [{"topic": []}, {"kind": None}, {"other": 5}, {"field": ["A"]}, {"similarity": "0.9"}, {"similarity": True}]
)
def test_an_evidence_item_of_another_type_does_not_decode(edit):
    item = EvidenceItem("duplicate_topics", "a", other="b", similarity=0.9)
    assert EvidenceItem.from_dict(item.to_dict()) == item
    with pytest.raises(TypeError):
        EvidenceItem.from_dict({**item.to_dict(), **edit})
