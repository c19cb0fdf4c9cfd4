"""Differential test of the derived parts that `apply_delta` marks: after
every committed and aborted transition each part equals a build on a fresh
decoding of the state and a full recomputation, the evidence read from the
parts equals a full scan, and an aborted or discarded transaction leaves its
parent's parts as they were."""

import copy

import pytest

from conftest import build_state, build_topic
from gemstore.baseline import BaselineJournalAdapter
from gemstore.config import BetaSpec, EngineConfig
from gemstore.embedding import EmbeddingVector, cosine, rank_topics, tokenize
from gemstore.engine import Engine, EngineEvent
from gemstore.model import (
    _ROUTES,
    PARTS,
    TEXT_KINDS,
    EdgeKind,
    Field,
    Hashes,
    MemoryState,
    Part,
    Provenance,
    Ranking,
    Tier,
    Topic,
    ValueEntry,
    active_footprint,
    stale_current_exists,
    state_digest,
    state_from_dict,
    state_to_dict,
)
from gemstore.operators import EvidenceItem, Fact, FactBundle, Query, RuleTable, detect_evidence, slugify
from gemstore import policy
from gemstore.policy import default_policy_set, parse_policy
from gemstore.salience import due_epoch
from gemstore.transaction import DELTA_KINDS, Txn, apply_delta
from gemstore.workload import run_workload
from gemstore.workload_gen import generate_workload


def assert_aggregates_exact(state: MemoryState) -> None:
    """Every part of the state, settled, equals its build on a fresh
    decoding of `state`, and every value the parts serve equals a full scan.
    The parts are settled on a fork, so that the state's own marks stay
    pending and its unbuilt parts unbuilt."""
    fresh = state_from_dict(state_to_dict(state))
    assert state_digest(state) == state_digest(fresh)
    fork = state.shallow_clone()
    for name in state.parts:
        settled = fork.part(name)
        # the ladder is built for the parameters it was read with last
        built = fresh.ladder(settled.params) if name == "ladder" else fresh.part(name)
        assert _plain(settled) == _plain(built), name
    # the per-topic tables a build settles too, against independent scans
    hashes = [(tid, state.topics[tid].content_hash()) for tid in sorted(state.topics)]
    assert list(fork.part("hashes").values.items()) == hashes
    ladder = fork.parts["ladder"]
    dues = {tid: due_epoch(topic, ladder.params, state.epoch) for tid, topic in state.topics.items()}
    assert ladder.values == {tid: due for tid, due in dues.items() if due is not None}
    assert fork.footprint() == active_footprint(state)
    counts = {}
    for tid, t in state.topics.items():
        alone = MemoryState(topics={tid: t})
        value = (active_footprint(alone), stale_current_exists(alone))
        if any(value):
            counts[tid] = value
    assert fork.part("counts").values == counts
    assert fork.part("counts").stale == sum(stale for _, stale in counts.values())
    edges = list(state.edges.values())
    for tid in state.topics:
        successors = sorted(e.dst for e in edges if e.kind is EdgeKind.EXTENSION and e.src == tid)
        neighbors = {e.dst for e in edges if e.kind is EdgeKind.ASSOCIATION and e.src == tid}
        neighbors |= {e.src for e in edges if e.kind is EdgeKind.ASSOCIATION and e.dst == tid}
        assert fork.extension_successors(tid) == successors
        assert fork.association_neighbors(tid) == sorted(neighbors)
    assert_ranking_exact(fork, state)
    for cfg in (EngineConfig(), PERMISSIVE):
        assert detect_evidence(fork, cfg) == _evidence_oracle(fork, cfg)


# a config under which duplicates and promotions are found, not only conflicts
PERMISSIVE = EngineConfig(tau_dup=0.0, m_promote=1, n_promote=1)


def _evidence_oracle(state: MemoryState, cfg: EngineConfig) -> list[EvidenceItem]:
    """`detect_evidence` by a full scan of the state, kept as its reference:
    the revision flags, then every pair of live topics compared, then each
    live topic's fields, in id and name order."""
    items = [EvidenceItem("dependency_flag", tid, other=cause) for tid, cause in sorted(state.revision_queue)]
    live = [state.topics[tid] for tid in sorted(state.topics) if not state.topics[tid].archived]
    for i, a in enumerate(live):
        for b in live[i + 1 :]:
            sim = cosine(a.vector(), b.vector())
            if sim < cfg.tau_dup:
                continue
            ta, tb = set(tokenize(a.title)), set(tokenize(b.title))
            if not ta or not tb:
                continue
            if len(ta & tb) / min(len(ta), len(tb)) >= 0.5:
                items.append(EvidenceItem("duplicate_topics", a.id, other=b.id, similarity=sim))
    for topic in live:
        for name in sorted(topic.fields):
            currents = [e for e in topic.fields[name].history if not e.superseded and not e.compressed]
            if len(currents) > 1:
                items.append(EvidenceItem("conflicting_values", topic.id, field=name))
    for topic in live:
        if sum(len(f.history) for f in topic.fields.values()) < cfg.m_promote:
            continue
        tags: dict[str, int] = {}
        for f in topic.fields.values():
            if f.entity_tag:
                tags[f.entity_tag] = tags.get(f.entity_tag, 0) + 1
        for tag in sorted(tags):
            if tags[tag] >= cfg.n_promote and slugify(tag) not in state.topics:
                items.append(EvidenceItem("promotion_candidate", topic.id, other=tag))
    return items


def _table_names(part: Part) -> list[str]:
    """A part's tables: its public attributes other than its methods, `kinds` and `built`."""
    return [name for name in dir(part) if not name.startswith("_") and name not in ("kinds", "built")
            and not callable(getattr(part, name))]


def _plain(value):
    """A part's tables, with each vector as its terms and norm, since vectors
    compare by identity."""
    if isinstance(value, EmbeddingVector):
        return value.terms, value.norm
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, Part):
        return {name: _plain(getattr(value, name)) for name in _table_names(value)}
    return value


def assert_ranking_exact(ranked: MemoryState, state: MemoryState) -> None:
    """The ranking part of `ranked` equals a rebuild of `state`'s, from each
    live topic's `vector()`: archived and removed topics have no postings."""
    ranking = ranked.part("ranking")
    postings, vectors = ranking.postings, ranking.values
    live = {tid: t.vector() for tid, t in state.topics.items() if not t.archived}
    rebuilt = {}
    for tid, vec in live.items():
        for bucket, term in vec.terms.items():
            rebuilt.setdefault(bucket, {})[tid] = term
    assert {bucket: plist for bucket, plist in postings.items() if plist} == rebuilt
    assert vectors.keys() == live.keys()
    assert all(vectors[tid] is vec for tid, vec in live.items())


@pytest.fixture
def checked_transitions(monkeypatch):
    """Check the parts after every transition an engine makes; return
    the outcomes seen."""
    outcomes = []
    real = Engine._apply_once

    def apply_once(self, event):
        before = state_digest(self.state)
        output, record = real(self, event)
        if not record.committed:
            assert record.digest_after == before == state_digest(self.state)
        assert_aggregates_exact(self.state)
        outcomes.append(record.outcome)
        return output, record

    monkeypatch.setattr(Engine, "_apply_once", apply_once)
    return outcomes


@pytest.mark.parametrize("seed", range(20))
def test_generated_workloads_keep_aggregates_exact(checked_transitions, seed):
    engine = Engine()
    assert_aggregates_exact(engine.state)
    run_workload(engine, generate_workload(seed))
    assert len(checked_transitions) == len(engine.journal.records)


def _ingest(hint, text, **facts):
    return EngineEvent.ingest(FactBundle(tuple(Fact(k, v) for k, v in facts.items()), text, topic_hint=hint))


def _graph_engine() -> Engine:
    plan = build_topic("plan", title="project plan", fields={"Deadline": "March 15"})
    copy = build_topic("plan-copy", title="project plan", fields={"Owner": "dana"})
    people = build_topic("people", fields={"Lead": "kim", "Backup": "lee"})
    for f in people.fields.values():
        f.entity_tag = "staff"
    genesis = build_state(
        [plan, copy, people, build_topic("checklist", fields={"Deadline": "March 15"}), build_topic("notes")],
        edges=[
            ("plan", "checklist", "Extension"),
            ("plan-copy", "notes", "Extension"),
            ("plan-copy", "checklist", "Association"),
            ("notes", "plan", "Association"),
        ],
    )
    rules = RuleTable.parse("plan.Deadline -> checklist.Deadline : shift-annotation")
    return Engine(genesis=genesis, rules=rules)


def test_graph_operations_keep_aggregates_exact(checked_transitions):
    engine = _graph_engine()
    assert_aggregates_exact(engine.state)
    events = [
        _ingest("plan", "plan deadline moved", Deadline="April 20"),  # flags checklist
        EngineEvent.retrieve(Query(text="plan deadline")),  # drains the flag first
        EngineEvent.revise([EvidenceItem("duplicate_topics", "plan", other="plan-copy")]),  # merge, re-point, archive
        EngineEvent.revise([EvidenceItem("promotion_candidate", "people", other="staff")]),  # promotion, new edge
        EngineEvent.tick(),
        EngineEvent.retrieve(Query(mode="structural", root="plan", depth=2)),
        _ingest("plan-copy", "archived hint", Owner="kim"),  # follows the merge marker
        EngineEvent.forget(),
        EngineEvent.revise(),
    ]
    for event in events:
        engine.submit(event)
    assert engine.state.topics["plan-copy"].archived
    assert "staff" in engine.state.topics
    assert engine.state.association_neighbors("plan") == ["checklist", "notes"]
    assert checked_transitions.count("committed") == len(checked_transitions) == len(events) + 1

    # topic_removed has no engine operator; drive it through a transaction
    parent_digest = engine.digest()
    txn = Txn(engine.state)
    txn.remove_topic("notes")
    assert_aggregates_exact(txn.state)
    assert "notes" not in txn.state.extension_successors("plan")
    txn.create_topic("notes", "plan notes", "created again under another title")
    assert_aggregates_exact(txn.state)
    assert ("notes", "plan") in txn.state.part("evidence").pairs
    txn.create_field("notes", "Lead", "staff", 1.0)  # a tag, before any entry
    assert_aggregates_exact(txn.state)
    assert engine.digest() == parent_digest
    assert_aggregates_exact(engine.state)


def test_a_hand_built_state_keeps_its_aggregates_after_the_first_read():
    state = build_state([build_topic("a", fields={"A": "1"}), build_topic("b")])
    assert not any(part.built for part in state.parts.values())
    digest = state_digest(state)
    parts = state.parts
    assert parts["hashes"].built and parts["edges"].built
    assert state.footprint() == 1 and state_digest(state) == digest
    assert state.parts is parts
    assert_aggregates_exact(state)


def test_a_baseline_commit_hashes_only_the_topic_it_touched(monkeypatch):
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=5)
    for i in range(5):
        adapter.submit(_ingest(None, f"fact {i}", F=str(i)))
    hashed, cloned = [], []
    real_hash, real_clone = Topic.content_hash, Topic.clone
    monkeypatch.setattr(Topic, "content_hash", lambda topic: hashed.append(topic.id) or real_hash(topic))
    monkeypatch.setattr(Topic, "clone", lambda topic: cloned.append(topic.id) or real_clone(topic))
    _, records = adapter.submit(_ingest(None, "one more", F="5"))
    # the put creates rec-0005 and evicts rec-0000, which is removed without a copy
    kinds = [d["kind"] for d in records[0].deltas]
    assert kinds == ["topic_created", "field_created", "entry_appended", "topic_removed"]
    assert hashed == ["rec-0005"] and cloned == []
    assert_aggregates_exact(adapter.state)


def test_a_commit_after_the_genesis_renders_no_policy(monkeypatch):
    engine = Engine()
    rendered = []
    real_render = policy.render_policy
    monkeypatch.setattr(policy, "render_policy", lambda p: rendered.append(p.name) or real_render(p))
    engine.submit(_ingest("t", "t gets A", A="1"))
    engine.submit(EngineEvent.retrieve(Query(text="t A")))
    assert [r.committed for r in engine.journal.records] == [True, True]
    assert rendered == []
    # a state whose policies are other objects renders its own section
    state = engine.state
    state.policies = default_policy_set()[:1]
    state_digest(state)
    assert rendered == [state.policies[0].name]


def test_rejected_commit_leaves_the_parent_aggregates(checked_transitions):
    cap = parse_policy('POLICY cap ON pre_commit WHEN active_footprint > 2 DO reject_transition("cap")')
    genesis = build_state([build_topic("t", fields={"A": "1", "B": "2"})], policies=default_policy_set() + [cap])
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=100)), genesis=genesis)
    _, records = engine.submit(_ingest("t", "t gets C", C="3"))
    assert records[-1].reason == "cap"
    _, records = engine.submit(_ingest("t", "t changes A", A="4"))
    assert records[-1].committed
    assert checked_transitions == ["aborted", "committed"]
    # a child that writes every routed kind and reads every part leaves each
    # part of its parent the same object, with the same tables
    parent = engine.state
    parts = dict(parent.parts)
    tables = {name: copy.deepcopy(_plain(part)) for name, part in parts.items()}
    entry = ValueEntry("x", 1, (Provenance("test", 1),))
    txn = Txn(parent)
    txn.create_topic("u", "u", "u")
    txn.create_field("u", "X", None, 1.0)
    txn.append_entry("u", "X", entry.value, entry.provenance)
    txn.append_entry("u", "X", entry.value, entry.provenance)
    txn.supersede_entry("u", "X", 0)
    txn.compress_history("u", "X", 1)
    txn.install_field("t", Field("D", history=[entry]))
    txn.remove_field("t", "D")
    txn.set_salience("t", "A", 0.5)
    txn.access_unit("t", "A", 1.5)
    txn.set_tier("t", "B", Tier.HIDDEN)
    txn.add_edge("t", "u", EdgeKind.EXTENSION, 1)
    txn.add_edge("u", "t", EdgeKind.ASSOCIATION, 1)
    txn.remove_edge("u", "t", EdgeKind.ASSOCIATION)
    txn.archive_topic("u")
    txn.remove_topic("t")
    assert {d["kind"] for d in txn.deltas} == set(_ROUTES)
    txn.state.policies = default_policy_set()[:1]
    for name in parts:
        assert txn.state.part(name) is not parts[name], name
    assert_aggregates_exact(txn.state)
    for name, part in parts.items():
        assert parent.parts[name] is part, name
        assert _plain(part) == tables[name], name
    assert_aggregates_exact(parent)


def test_a_due_topic_that_the_ladder_leaves_as_it_is_is_read_again(checked_transitions):
    topic = build_topic("t", fields={"A": "x"})
    f = topic.fields["A"]
    f.salience, f.tier = 0.52, Tier.COMPRESSED  # Active at the genesis epoch, Compressed from the next one
    engine = Engine(genesis=build_state([topic]))
    assert engine.state.parts["ladder"].values == {"t": 0}
    for _ in range(2):
        _, records = engine.submit(EngineEvent.tick())
        assert records[-1].deltas == [{"kind": "epoch_advanced"}]
    assert engine.state.part("ladder").values == {"t": 10}  # 0.52 * 0.9 ** 10 < theta_remove <= 0.52 * 0.9 ** 9
    assert checked_transitions == ["committed"] * 2


# -- fork safety of the ranking part -----------------------------------------


def _ranked_engine(policies=None, saliences=()) -> Engine:
    """An engine whose state has been ranked once, so its ranking part is
    built; topic `a`'s value words change its buckets on every ingest, and
    `z` is archived without a merge marker.  `saliences` sets the salience
    of the genesis notes of the topics it names."""
    topics = [build_topic(tid, title=f"{tid} notes", fields={"Note": f"alpha {tid}"}) for tid in "abcdefz"]
    topics[-1].archived = True
    for topic in topics:
        topic.fields["Note"].salience = dict(saliences).get(topic.id, 1.0)
    genesis = build_state(topics, policies=policies)
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=100)), genesis=genesis)
    rank_topics(engine.state, "notes alpha", 3)
    return engine


def _tables(state: MemoryState):
    """A deep copy of the state's ranking tables, as they stand."""
    ranking = state.parts["ranking"]
    return copy.deepcopy(ranking.postings), dict(ranking.values)


def test_a_discarded_transaction_that_ranked_leaves_its_parent_exact():
    engine = _ranked_engine()
    parent = engine.state
    before = _tables(parent)
    txn = Txn(parent)
    txn.append_entry("a", "Note", "gamma delta", (Provenance("test", 1),))
    txn.create_topic("g", "g notes", "gamma delta notes")
    txn.archive_topic("b")
    assert rank_topics(txn.state, "gamma delta", 2)[0][1] in ("a", "g")
    assert_ranking_exact(txn.state, txn.state)
    assert _tables(parent) == before  # nothing written into a shared table
    assert_ranking_exact(parent, parent)


def test_aborted_ingests_leave_the_engine_state_exact(checked_transitions):
    cap = parse_policy('POLICY cap ON pre_commit WHEN active_footprint > 6 DO reject_transition("cap")')
    engine = _ranked_engine(default_policy_set() + [cap])
    engine.submit(_ingest("a", "a moves", Note="beta"))  # leaves a ranking mark for a pending
    before = _tables(engine.state)
    # ranked to route, which settles the mark on copies, then refused by the cap
    _, records = engine.submit(_ingest(None, "zeta unrelated words", Extra="1"))
    assert records[-1].reason == "cap"
    _, records = engine.submit(_ingest("z", "z again", Note="x"))
    assert records[-1].outcome == "aborted" and "archived topic" in records[-1].reason
    assert _tables(engine.state) == before
    assert checked_transitions == ["committed", "aborted", "aborted"]
    assert [tid for _, tid, _ in rank_topics(engine.state, "beta", 6)][:1] == ["a"]
    assert_ranking_exact(engine.state, engine.state)


def test_a_parent_ranked_after_its_child_committed_leaves_the_child_exact():
    engine = _ranked_engine()
    engine.submit(_ingest("a", "a moves", Note="beta"))
    # routed by ranking, which moves a's postings from alpha to beta on
    # copies this state then owns; a moves back, pending until a ranking read
    _, records = engine.submit(_ingest(None, "a notes beta", Note="alpha"))
    assert {d["topic"] for d in records[-1].deltas} == {"a"}
    parent = engine.state
    engine.submit(_ingest("a", "a moves again", Note="gamma"))
    engine.submit(EngineEvent.retrieve(Query(text="notes gamma")))  # the child ranks
    child = engine.state
    child_tables = _tables(child)
    # the parent settles its own mark for a, which writes the alpha list the
    # child shares
    assert_ranking_exact(parent, parent)
    assert _tables(child) == child_tables
    assert_ranking_exact(child, child)
    assert rank_topics(parent, "alpha", 1)[0][1] == "a"
    assert rank_topics(child, "gamma", 1)[0][1] == "a"


def test_the_engine_builds_the_ranking_part_once_for_aborted_rankings(monkeypatch):
    builds = []
    real_build = Ranking.build
    monkeypatch.setattr(Ranking, "build", lambda part, state: builds.append(1) or real_build(part, state))
    cap = parse_policy('POLICY cap ON pre_commit WHEN active_footprint > 6 DO reject_transition("cap")')
    engine = _ranked_engine(default_policy_set() + [cap])
    assert builds == [1]  # at construction, on the committed state
    for _ in range(2):  # ranked to route, then refused
        _, records = engine.submit(_ingest(None, "zeta unrelated words", Extra="1"))
        assert records[-1].reason == "cap"
    _, records = engine.submit(EngineEvent.retrieve(Query(text="alpha notes")))
    assert records[-1].committed
    assert builds == [1]


# -- the one protocol: routing, unbuilt parts and forks ------------------------


def test_each_part_names_delta_kinds_that_exist_and_the_text_kinds_mark_the_ranking():
    kinds = {kind for part in PARTS.values() for kind in part.kinds}
    assert kinds <= set(DELTA_KINDS)
    assert TEXT_KINDS <= Ranking.kinds
    # every delta that changes a topic marks its hash
    assert Hashes.kinds == {kind for kind, spec in DELTA_KINDS.items() if spec.subject in ("id", "topic")} - {
        "flag_added", "flag_removed"}


def test_reads_and_a_tier_only_tick_leave_the_ranking_marks_as_they_were():
    engine = _ranked_engine(saliences={"b": 0.52})  # below theta_summary after one decay step
    engine.submit(_ingest("a", "a moves", Note="beta"))  # a hinted ingest leaves a ranking mark for a
    ranking = engine.state.parts["ranking"]
    pending = set(ranking._pending)
    assert pending == {"a"}
    events = [
        EngineEvent.retrieve(Query(mode="explicit", explicit=("c", "Note"))),
        EngineEvent.retrieve(Query(mode="structural", root="c", depth=1)),
        EngineEvent.tick(),
    ]
    for event in events:
        _, records = engine.submit(event)
        assert [r.committed for r in records] == [True]
        ranking = engine.state.parts["ranking"]
        assert ranking._pending == pending, event.kind
    assert {d["kind"] for d in records[-1].deltas} == {"epoch_advanced", "tier_set"}
    assert_ranking_exact(engine.state, engine.state)


def test_a_hand_built_state_takes_deltas_before_its_first_read_and_is_then_exact():
    state = build_state([build_topic("a", fields={"A": "1"}), build_topic("b", fields={"B": "2"})])
    apply_delta(state, {"kind": "topic_created", "id": "c", "title": "c", "summary": "c"})
    apply_delta(state, {"kind": "tier_set", "topic": "a", "field": "A", "tier": "Hidden"})
    apply_delta(state, {"kind": "edge_added", "src": "a", "dst": "c", "edge_kind": "Extension", "tick": 1})
    apply_delta(state, {"kind": "topic_removed", "id": "b"})
    assert not any(part.built for part in state.parts.values())  # an unbuilt part takes no marks
    assert state.footprint() == 0 and state.extension_successors("a") == ["c"]
    assert_aggregates_exact(state)


def test_a_fork_shares_every_table_until_it_writes():
    engine = _ranked_engine()
    parent = engine.state
    txn = Txn(parent)
    txn.add_flag("a", "test")
    state_digest(txn.state)  # a commit's reads settle nothing a flag touches
    txn.state.footprint(), txn.state.part("counts").stale, rank_topics(txn.state, "notes", 1)
    for name, part in parent.parts.items():
        forked = txn.state.parts[name]
        assert forked is part and _table_names(part)
        for table in _table_names(part):
            assert getattr(forked, table) is getattr(part, table), (name, table)


def test_the_baseline_neither_feeds_nor_derives_the_ranking(monkeypatch):
    vectors = []
    real_vector = Topic.vector
    monkeypatch.setattr(Topic, "vector", lambda topic: vectors.append(topic.id) or real_vector(topic))
    adapter = BaselineJournalAdapter(EngineConfig(), capacity=5)
    for i in range(2000):
        adapter.submit(_ingest(None, f"fact {i}", F=str(i)))
    adapter.submit(EngineEvent.retrieve(Query(text="fact 1999")))
    ranking = adapter.state.parts["ranking"]
    assert len(adapter.state.topics) == 5
    assert not ranking.built and ranking._pending is None
    assert vectors == []
