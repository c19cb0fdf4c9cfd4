import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_state, build_topic
from gemstore.config import EngineConfig
from gemstore.embedding import cosine, embed, tokenize
from gemstore.model import EdgeKind, Provenance, Tier, current_value
from gemstore.operators import (
    Fact,
    FactBundle,
    EvidenceItem,
    OperatorError,
    Query,
    RuleTable,
    detect_evidence,
    forget,
    hide_order,
    ingest,
    retrieve,
    retrieve_read,
    revise,
    slugify,
)
from gemstore.salience import SalienceParams
from gemstore.transaction import Txn

CFG = EngineConfig()


def bundle(text, hint=None, **facts):
    return FactBundle(
        facts=tuple(Fact(k, v) for k, v in facts.items()),
        text=text,
        topic_hint=hint,
    )


# -- ingestion --------------------------------------------------------------


def test_ingest_creates_topic_under_hint():
    txn = Txn(build_state())
    events = ingest(txn, bundle("website redesign deadline March 15", hint="web", Deadline="March 15"), CFG)
    assert "web" in txn.state.topics
    assert current_value(txn.state, "web", "Deadline").value == "March 15"
    assert ("topic_created", {"updated_topic": "web"}) in events


def test_ingest_update_supersedes_previous_current():
    state = build_state([build_topic("web", fields={"Deadline": "March 15"})])
    txn = Txn(state)
    ingest(txn, bundle("deadline moved", hint="web", Deadline="April 20"), CFG)
    f = txn.state.topics["web"].fields["Deadline"]
    assert [e.value for e in f.history] == ["March 15", "April 20"]
    assert f.history[0].superseded and not f.history[1].superseded
    assert f.current_entry().value == "April 20"


def test_ingest_exact_duplicate_only_bumps_salience():
    state = build_state([build_topic("web", fields={"Deadline": "March 15"})])
    before = state.topics["web"].fields["Deadline"].salience
    txn = Txn(state)
    ingest(txn, bundle("same again", hint="web", Deadline="March 15"), CFG)
    f = txn.state.topics["web"].fields["Deadline"]
    assert len(f.history) == 1
    assert f.salience == before + CFG.salience.delta_access


def test_ingest_unhinted_routes_by_similarity():
    state = build_state([build_topic("web", title="website redesign deadline", fields={"Deadline": "March 15"})])
    txn = Txn(state)
    ingest(txn, bundle("website redesign deadline moved to April 20", Deadline="April 20"), CFG)
    assert current_value(txn.state, "web", "Deadline").value == "April 20"


def test_ingest_unhinted_below_threshold_creates_slug_topic():
    state = build_state([build_topic("web", title="website redesign deadline", fields={"Deadline": "March 15"})])
    txn = Txn(state)
    ingest(txn, bundle("favorite tea is oolong", Tea="oolong"), CFG)
    assert "favorite-tea-is-oolong" in txn.state.topics


def test_ingest_rejects_empty_bundle():
    with pytest.raises(OperatorError):
        ingest(Txn(build_state()), FactBundle((), "x"), CFG)


def _split_slug(text: str) -> str:
    """The slug by a split on runs of characters other than a-z and 0-9,
    as `slugify` once took it."""
    tokens = [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t][:6]
    return "-".join(tokens) or "topic"


@given(st.text(max_size=60) | st.text(alphabet="aZ9 -_:!ÄéİßΣK\u212a\u0130\n", max_size=60))
@settings(max_examples=500, derandomize=True, database=None)
def test_slugify(text):
    assert slugify("Website Redesign: Deadline!") == "website-redesign-deadline"
    assert slugify("   ") == "topic"
    assert slugify(text) == _split_slug(text)


# -- retrieval --------------------------------------------------------------


def test_default_retrieval_returns_current_and_skips_hidden():
    state = build_state([build_topic("web", title="website redesign", fields={"Deadline": "April 20", "Owner": "dana"})])
    out = retrieve_read(state, Query(text="website redesign deadline"), CFG)
    assert [(a.field, a.value) for a in out.answers] == [("Deadline", "April 20")]

    state.topics["web"].fields["Deadline"].tier = Tier.HIDDEN
    out = retrieve_read(state, Query(text="website redesign deadline"), CFG)
    assert out.answers == []


def test_historical_retrieval_includes_superseded_up_to_as_of():
    state = build_state([build_topic("web", title="website redesign", fields={"Deadline": "March 15"})], tick=4)
    txn = Txn(state)
    ingest(txn, bundle("moved", hint="web", Deadline="April 20"), CFG)
    state = txn.state
    state.clock = txn.tick  # committed, as the engine commits it

    out = retrieve_read(state, Query(text="website deadline", mode="historical", as_of=5), CFG)
    assert [a.value for a in out.answers] == ["March 15", "April 20"]
    out = retrieve_read(state, Query(text="website deadline", mode="historical", as_of=1), CFG)
    assert [a.value for a in out.answers] == ["March 15"]


def test_explicit_retrieval_bypasses_archival():
    state = build_state([build_topic("web", fields={"Deadline": "March 15"})])
    state.topics["web"].archived = True
    out = retrieve_read(state, Query(mode="explicit", explicit=("web", "Deadline")), CFG)
    assert [a.value for a in out.answers] == ["March 15"]
    with pytest.raises(OperatorError, match="unknown-unit"):
        retrieve_read(state, Query(mode="explicit", explicit=("web", "nope")), CFG)


def test_structural_retrieval_walks_edges_without_access():
    state = build_state(
        [build_topic("a"), build_topic("b"), build_topic("c")],
        edges=[("a", "b", "Extension"), ("b", "c", "Association")],
    )
    out = retrieve_read(state, Query(mode="structural", root="a", depth=2), CFG)
    assert [tid for tid, _ in out.context] == ["a", "b", "c"]
    assert out.accessed_units == []


def test_retrieve_bumps_salience_and_last_access():
    state = build_state([build_topic("web", title="website redesign", fields={"Deadline": "April 20"})], tick=8)
    before = state.topics["web"].fields["Deadline"].salience
    txn = Txn(state)
    out, events = retrieve(txn, Query(text="website deadline"), CFG)
    f = txn.state.topics["web"].fields["Deadline"]
    assert f.salience == before + CFG.salience.delta_access
    assert f.last_access == 9
    assert events == [("retrieval_performed", {"accessed_topic": "web"})]
    assert out.accessed_units == [("web", "Deadline")]


# -- revision ---------------------------------------------------------------


def test_dependency_repair_annotates_dependent_field():
    state = build_state(
        [
            build_topic("plan", fields={"Deadline": "April 20"}),
            build_topic("checklist", fields={"Status": "on track"}),
        ],
        edges=[("plan", "checklist", "Extension")],
    )
    state.revision_queue.add(("checklist", "plan.Deadline"))
    rules = RuleTable.parse("plan.Deadline -> checklist.Status : shift-annotation")
    txn = Txn(state)
    evidence = [e for e in detect_evidence(state, CFG) if e.kind == "dependency_flag"]
    events = revise(txn, evidence, CFG, rules)

    value = current_value(txn.state, "checklist", "Status").value
    assert value == "on track (needs review: plan.Deadline changed to April 20)"
    assert txn.state.revision_queue == set()
    assert ("field_updated", {"updated_topic": "checklist", "updated_field": "Status"}) in events


def test_dependency_repair_is_idempotent():
    annotated = "on track (needs review: plan.Deadline changed to April 20)"
    state = build_state(
        [
            build_topic("plan", fields={"Deadline": "April 20"}),
            build_topic("checklist", fields={"Status": annotated}),
        ],
        edges=[("plan", "checklist", "Extension")],
    )
    state.revision_queue.add(("checklist", "plan.Deadline"))
    rules = RuleTable.parse("plan.Deadline -> checklist.Status : shift-annotation")
    txn = Txn(state)
    events = revise(txn, [e for e in detect_evidence(state, CFG) if e.kind == "dependency_flag"], CFG, rules)
    assert current_value(txn.state, "checklist", "Status").value == annotated
    assert events == []  # no change, no re-flagging


def test_merge_keeps_loser_recoverable():
    title = "quarterly release planning meeting with the platform team and stakeholders"
    a = build_topic("proj-a", title=title, fields={"Deadline": "May 1"})
    b = build_topic("proj-b", title=title, fields={"Deadline": "May 2", "Owner": "kim"})
    state = build_state([a, b])
    txn = Txn(state)
    evidence = [e for e in detect_evidence(state, CFG) if e.kind == "duplicate_topics"]
    assert evidence, "duplicate detection should fire for near-identical topics"
    revise(txn, evidence, CFG, RuleTable.empty())

    winner = txn.state.topics["proj-a"]
    loser = txn.state.topics["proj-b"]
    assert loser.archived and loser.merged_into == "proj-a"
    assert winner.fields["Owner"].current_entry().value == "kim"
    # both deadline values survive in the winner's history
    assert {e.value for e in winner.fields["Deadline"].history} == {"May 1", "May 2"}
    assert loser.fields["Deadline"].history  # archived copy intact


def test_promotion_moves_tagged_fields_behind_extension_edge():
    topic = build_topic("meetings", fields={})
    state = build_state([topic])
    txn = Txn(state)
    for i, name in enumerate(["BudgetQ1", "BudgetQ2", "BudgetQ3", "Agenda", "Notes"]):
        tag = "budget-review" if name.startswith("Budget") else None
        txn.create_field("meetings", name, tag, 1.0)
        txn.append_entry("meetings", name, f"v{i}", (Provenance("s", 1),))
    state = txn.state

    evidence = [e for e in detect_evidence(state, CFG) if e.kind == "promotion_candidate"]
    assert evidence and evidence[0].other == "budget-review"
    txn = Txn(state)
    revise(txn, evidence, CFG, RuleTable.empty())
    assert "budget-review" in txn.state.topics
    assert set(txn.state.topics["budget-review"].fields) == {"BudgetQ1", "BudgetQ2", "BudgetQ3"}
    assert "BudgetQ1" not in txn.state.topics["meetings"].fields
    assert ("meetings", "budget-review", EdgeKind.EXTENSION.value) in txn.state.edges


def test_merge_rejects_archived_target():
    a = build_topic("a", title="same thing here")
    b = build_topic("b", title="same thing here")
    b.archived = True
    state = build_state([a, b])
    from gemstore.operators import EvidenceItem

    with pytest.raises(OperatorError, match="merge-archived:b"):
        revise(Txn(state), [EvidenceItem("duplicate_topics", "a", other="b")], CFG, RuleTable.empty())


# -- forgetting -------------------------------------------------------------


def test_attenuation_ladder_compress_hide_archive():
    topic = build_topic("t", fields={"A": "x", "B": "y", "C": "z"})
    topic.fields["A"].salience = 0.3   # compress band
    topic.fields["B"].salience = 0.1   # hide band
    topic.fields["C"].salience = 0.6   # stays current
    state = build_state([topic])
    txn = Txn(state)
    forget(txn, CFG)
    fields = txn.state.topics["t"].fields
    assert fields["A"].tier is Tier.COMPRESSED
    assert fields["B"].tier is Tier.HIDDEN
    assert fields["C"].tier is Tier.ACTIVE
    assert not txn.state.topics["t"].archived


def test_whole_topic_archives_when_everything_is_negligible():
    topic = build_topic("t", fields={"A": "x", "B": "y"})
    topic.fields["A"].salience = 0.01
    topic.fields["B"].salience = 0.02
    state = build_state([topic])
    txn = Txn(state)
    forget(txn, CFG)
    assert txn.state.topics["t"].archived


@pytest.mark.parametrize("below", [False, True])
def test_a_topic_archives_only_below_theta_archive(below):
    theta = CFG.salience.theta_archive
    topic = build_topic("t", fields={"A": "x"})
    topic.fields["A"].salience = math.nextafter(theta, 0.0) if below else theta
    txn = Txn(build_state([topic]))
    forget(txn, CFG)
    # a field at or below theta_archive is hidden; only below it does its topic archive
    assert txn.state.topics["t"].fields["A"].tier is Tier.HIDDEN
    assert txn.state.topics["t"].archived is below


def test_compression_summarizes_old_history_and_keeps_provenance():
    topic = build_topic("t", fields={"A": "v0"})
    state = build_state([topic])
    txn = Txn(state)
    for i in range(1, 8):
        ingest(txn, bundle(f"update {i}", hint="t", A=f"v{i}"), CFG)
    txn.state.topics["t"].fields["A"].salience = 0.3
    before = {
        (p.source_id, p.event_id, p.excerpt)
        for e in txn.state.topics["t"].fields["A"].history
        for p in e.provenance
    }
    forget(txn, CFG)
    f = txn.state.topics["t"].fields["A"]
    assert f.history[0].compressed
    assert "earlier values" in f.history[0].value
    # current value plus the recency window survive verbatim
    assert f.current_entry().value == "v7"
    assert len(f.history) <= 1 + CFG.salience.k_recent + 1
    after = {(p.source_id, p.event_id, p.excerpt) for e in f.history for p in e.provenance}
    assert before <= after


def test_footprint_enforcement_hides_lowest_salience_first():
    topics = [build_topic(f"t{i}", fields={f"F{i}": "x"}) for i in range(6)]
    for i, topic in enumerate(topics):
        topic.fields[f"F{i}"].salience = 1.0 + i
    state = build_state(topics)
    from gemstore.config import BetaSpec

    cfg = EngineConfig(beta=BetaSpec(base=4))
    txn = Txn(state)
    forget(txn, cfg)
    hidden = [tid for tid in txn.state.topics if txn.state.topics[tid].fields[f"F{tid[1]}"].tier is Tier.HIDDEN]
    assert hidden == ["t0", "t1"]


def test_hide_order_sorts_by_salience_then_recency():
    a = build_topic("a", fields={"X": "1"})
    b = build_topic("b", fields={"Y": "2"})
    a.fields["X"].salience = 0.4
    b.fields["Y"].salience = 0.9
    state = build_state([a, b])
    assert hide_order(state, CFG.salience.decay) == [("a", "X"), ("b", "Y")]


# -- rule table -------------------------------------------------------------


def test_rule_table_parse_and_errors():
    table = RuleTable.parse("# comment\nplan.Deadline -> press.Draft : shift-annotation\n")
    assert len(table.rules) == 1
    with pytest.raises(ValueError, match="line 1"):
        RuleTable.parse("not a rule")
    with pytest.raises(ValueError, match="unknown transform"):
        RuleTable.parse("a.b -> c.d : frobnicate")


# -- duplicate detection: the evidence part against the pairwise scan -------

_TITLE_WORDS = ["project", "is", "about", "the", "update", "plan", "alpha", "beta", "gamma", "delta", "kim", "q3"]
_EMBED_WORDS = ["red", "green", "blue", "dark"]


def _duplicates_oracle(state, cfg):
    """The pairwise scan, kept as the reference for `detect_evidence`."""
    live = [state.topics[tid] for tid in sorted(state.topics) if not state.topics[tid].archived]
    items = []
    for i, a in enumerate(live):
        for b in live[i + 1 :]:
            sim = cosine(a.embedding, b.embedding)
            if sim < cfg.tau_dup:
                continue
            ta, tb = set(tokenize(a.title)), set(tokenize(b.title))
            if not ta or not tb:
                continue
            if len(ta & tb) / min(len(ta), len(tb)) >= 0.5:
                items.append(EvidenceItem("duplicate_topics", a.id, other=b.id, similarity=sim))
    return items


def _random_topic_state(rng):
    topics = []
    for i in range(rng.randint(0, 40)):
        title = " ".join(rng.choice(_TITLE_WORDS[:4] if rng.random() < 0.5 else _TITLE_WORDS)
                         for _ in range(rng.randint(0, 6)))
        topic = build_topic(f"t{i:02d}", title=title or "-")
        # a small embedding vocabulary makes exact ties and zero norms common
        topic.embedding = embed(" ".join(rng.choices(_EMBED_WORDS, k=rng.randint(0, 2))))
        topic.archived = rng.random() < 0.1
        topics.append(topic)
    return build_state(topics)


@pytest.mark.parametrize("tau_dup", [0.0, 0.5, 0.9, 1.0])
def test_duplicate_detection_matches_pairwise_scan(tau_dup):
    cfg = EngineConfig(tau_dup=tau_dup)
    rng = random.Random(f"dup-{tau_dup}")
    overlaps = set()
    for _ in range(250):
        state = _random_topic_state(rng)
        found = [e for e in detect_evidence(state, cfg) if e.kind == "duplicate_topics"]
        assert found == _duplicates_oracle(state, cfg)
        overlaps.add(bool(state.part("evidence").pairs))
    assert overlaps == {False, True}  # stores with and without overlapping titles
