"""Deterministic scaling guards: the work a transition does is counted, not
timed, so these hold on any machine."""

import importlib
from collections import Counter

from conftest import build_state, build_topic
from gemstore import embedding, model, operators
from gemstore.config import BetaSpec, EngineConfig
from gemstore.engine import Engine, EngineEvent
from gemstore.embedding import EmbeddingVector, embed
from gemstore.model import Evidence, MemoryState, Provenance, Topic, ValueEntry, active_footprint
from gemstore.operators import Fact, FactBundle, Query
from gemstore.salience import decay

N_TOPICS = 1000

audit_module = importlib.import_module("gemstore.audit")  # `gemstore.audit` names the function


def _large_state(edges=()):
    topics = [
        build_topic(f"t{i:04d}", title=f"w{i}a w{i}b w{i}c", fields={"Status": f"s{i}"})
        for i in range(N_TOPICS)
    ]
    return build_state(topics, edges=edges)


class _CountingDict(dict):
    """A dict that appends `label` to `log` whenever it is scanned through
    values(), items() or keys().  Plain iteration stays uncounted, so that
    `dict(d)` still copies it without a scan."""

    def __init__(self, data, log, label):
        super().__init__(data)
        self.log = log
        self.label = label

    def values(self):
        self.log.append(self.label)
        return super().values()

    def items(self):
        self.log.append(self.label)
        return super().items()

    def keys(self):
        self.log.append(self.label)
        return super().keys()


class _IteratedDict(_CountingDict):
    """A `_CountingDict` that counts plain iteration too, by which the
    forget ladder lists a topic's fields."""

    def __iter__(self):
        self.log.append(self.label)
        return super().__iter__()


def _ticked_engine(genesis) -> tuple[Engine, list[str]]:
    """An engine on `genesis` whose every topic logs a scan of its fields
    into the list returned with it."""
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=genesis)
    scanned: list[str] = []
    for tid, topic in engine.state.topics.items():
        topic.fields = _IteratedDict(topic.fields, scanned, tid)
    return engine, scanned


def test_a_tick_that_crosses_no_threshold_scans_no_topics_fields():
    engine, scanned = _ticked_engine(_large_state())
    for _ in range(2):
        _, records = engine.submit(EngineEvent.tick())
        assert [r.outcome for r in records] == ["committed"]
        assert records[0].deltas == [{"kind": "epoch_advanced"}]
    assert scanned == []


def test_a_tick_scans_only_the_topics_whose_fields_cross_a_threshold():
    genesis = _large_state()
    crossing = ["t0100", "t0500", "t0900"]
    for tid in crossing:
        genesis.topics[tid].fields["Status"].salience = 0.52  # below theta_summary after one decay step
    engine, scanned = _ticked_engine(genesis)
    _, records = engine.submit(EngineEvent.tick())
    assert [r.outcome for r in records] == ["committed"]
    assert [d["topic"] for d in records[0].deltas if d["kind"] == "tier_set"] == crossing
    assert set(scanned) == set(crossing)


def test_duplicate_detection_skips_topics_with_disjoint_titles(monkeypatch):
    calls = []
    real = operators.cosine
    monkeypatch.setattr(operators, "cosine", lambda a, b: calls.append(1) or real(a, b))
    items = operators.detect_evidence(_large_state(), EngineConfig())
    assert [e for e in items if e.kind == "duplicate_topics"] == []
    assert calls == []


def test_an_auto_detect_revise_settles_only_the_topic_changed_since_the_last_read(monkeypatch):
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=_large_state())
    bundle = FactBundle((Fact("Status", "done"),), "status update", topic_hint="t0500")
    _, records = engine.submit(EngineEvent.ingest(bundle))
    assert [r.outcome for r in records] == ["committed"]
    pairs = engine.state.parts["evidence"].pairs
    valued, compared = [], []
    real_value, real_cosine = Evidence.value, operators.cosine
    monkeypatch.setattr(Evidence, "value", lambda part, state, topic: valued.append(topic.id)
                        or real_value(part, state, topic))
    monkeypatch.setattr(operators, "cosine", lambda a, b: compared.append(1) or real_cosine(a, b))
    _, records = engine.submit(EngineEvent.revise())
    assert [r.outcome for r in records] == ["committed"]
    assert valued == ["t0500"] and compared == []
    assert engine.state.parts["evidence"].pairs is pairs  # no title entered or left


def test_hinted_ingest_serialises_only_the_touched_topic(monkeypatch):
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=_large_state())
    serialised = []
    real = Topic.canonical_bytes
    monkeypatch.setattr(Topic, "canonical_bytes", lambda self: serialised.append(self.id) or real(self))
    bundle = FactBundle((Fact("Status", "done"),), "status update", topic_hint="t0500")
    _, records = engine.submit(EngineEvent.ingest(bundle))
    assert [r.outcome for r in records] == ["committed"]
    assert serialised == ["t0500"]


def test_an_ingest_into_a_long_history_encodes_only_the_entries_it_makes(monkeypatch):
    entries = [ValueEntry(f"d{i}", 0, (Provenance("genesis", i),), superseded=True) for i in range(999)]
    topic = build_topic("hot", title="hot deadline", fields={"Deadline": "d999"})
    topic.fields["Deadline"].history[:0] = entries
    engine = Engine(genesis=build_state([topic]))
    encoded = []
    real = model._entry_json
    monkeypatch.setattr(model, "_entry_json", lambda e: encoded.append(e.value) or real(e))
    bundle = FactBundle((Fact("Deadline", "d1000"),), "deadline moved", topic_hint="hot")
    _, records = engine.submit(EngineEvent.ingest(bundle))
    assert [r.outcome for r in records] == ["committed"]
    assert len(engine.state.topics["hot"].fields["Deadline"].history) == 1001
    # the superseded copy of the old current entry, and the new one
    assert encoded == ["d999", "d1000"]


def test_tick_derives_no_embeddings(monkeypatch):
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=_large_state())
    derived, cloned, hashed = [], [], []
    real = embedding._embed_tuple
    monkeypatch.setattr(embedding, "_embed_tuple", lambda text: derived.append(text) or real(text))
    real_clone, real_hash = Topic.clone, Topic.content_hash
    monkeypatch.setattr(Topic, "clone", lambda topic: cloned.append(topic.id) or real_clone(topic))
    monkeypatch.setattr(Topic, "content_hash", lambda topic: hashed.append(topic.id) or real_hash(topic))
    _, records = engine.submit(EngineEvent.tick())
    assert [r.outcome for r in records] == ["committed"]
    # no tier changes, so the tick journals the epoch alone and touches no topic
    assert records[0].deltas == [{"kind": "epoch_advanced"}]
    assert cloned == hashed == derived == []
    lam = engine.config.salience.decay
    state = engine.state
    assert [state.salience(t, t.fields["Status"], lam) for t in state.topics.values()] == [decay(1.0, 1, lam)] * N_TOPICS


def test_propagating_ingest_clones_only_the_ingested_topic(monkeypatch):
    genesis = _large_state([("t0100", "t0101", "Extension")])
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=genesis)
    cloned = []
    real_clone = Topic.clone
    monkeypatch.setattr(Topic, "clone", lambda topic: cloned.append(topic.id) or real_clone(topic))
    bundle = FactBundle((Fact("Status", "done"),), "status update", topic_hint="t0100")
    _, records = engine.submit(EngineEvent.ingest(bundle))
    assert [r.outcome for r in records] == ["committed"]
    # the flag on the dependent changes the revision queue, not the topic
    assert engine.state.revision_queue == {("t0101", "t0100.Status")}
    assert cloned == ["t0100"]


def test_hinted_ingest_scans_the_fields_of_the_touched_topic_only():
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=_large_state())
    scanned = []
    for tid, topic in engine.state.topics.items():
        topic.fields = _CountingDict(topic.fields, scanned, tid)
    bundle = FactBundle((Fact("Status", "done"),), "status update", topic_hint="t0500")
    _, records = engine.submit(EngineEvent.ingest(bundle))
    assert [r.outcome for r in records] == ["committed"]
    # the footprint and stale checks read per-topic contributions kept by
    # apply_delta instead of rescanning the 999 untouched topics
    assert set(scanned) <= {"t0500"}
    assert engine.state.footprint() == active_footprint(engine.state) == N_TOPICS


def test_structural_retrieve_and_propagating_ingest_scan_no_edges(monkeypatch):
    edges = [(f"t{i:04d}", f"t{i + 1:04d}", "Extension") for i in range(0, N_TOPICS - 1, 4)]
    edges += [(f"t{i:04d}", f"t{i + 2:04d}", "Association") for i in range(0, N_TOPICS - 2, 4)]
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=_large_state(edges))
    scans = []
    # follow the state through every transaction's working copy
    real_clone = MemoryState.shallow_clone

    def counting_clone(state):
        clone = real_clone(state)
        clone.edges = _CountingDict(clone.edges, scans, "edges")
        return clone

    monkeypatch.setattr(MemoryState, "shallow_clone", counting_clone)
    engine.state.edges = _CountingDict(engine.state.edges, scans, "edges")

    bundle = FactBundle((Fact("Status", "done"),), "status update", topic_hint="t0100")
    _, records = engine.submit(EngineEvent.ingest(bundle))
    assert [r.outcome for r in records] == ["committed"]
    assert engine.state.revision_queue == {("t0101", "t0100.Status")}  # propagate-on-change fired
    output, records = engine.submit(EngineEvent.retrieve(Query(mode="structural", root="t0102", depth=2)))
    assert [r.operator for r in records] == ["revise", "retrieve"]
    assert [tid for tid, _ in output.context] == ["t0102", "t0100", "t0101"]
    assert scans == []


class _LoggedVector(EmbeddingVector):
    """An embedding that appends `label` to `log` whenever its terms or its
    norm are read."""

    def __init__(self, vec, log, label):
        super().__init__(vec.terms, vec.norm)
        object.__setattr__(self, "_log", (log, label))

    def __getattribute__(self, name):
        if name in ("terms", "norm"):
            log, label = object.__getattribute__(self, "_log")
            log.append(label)
        return object.__getattribute__(self, name)


def test_ranking_scores_only_the_topics_that_share_a_bucket_with_the_query(monkeypatch):
    genesis = _large_state()
    query = "w500a w500b"
    disjoint = next(t for t in genesis.topics.values() if not t.vector().terms.keys() & embed(query).terms.keys())
    read = []
    for topic in (genesis.topics["t0500"], disjoint):
        topic.embedding = _LoggedVector(topic.vector(), read, topic.id)
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=genesis)
    embedding.rank_topics(engine.state, "warm up", 1)

    scans, compared = [], []
    real_clone = MemoryState.shallow_clone

    def counting_clone(state):  # follow the state through every working copy
        clone = real_clone(state)
        clone.topics = _CountingDict(clone.topics, scans, "topics")
        return clone

    monkeypatch.setattr(MemoryState, "shallow_clone", counting_clone)
    engine.state.topics = _CountingDict(engine.state.topics, scans, "topics")
    real_cosine = embedding.cosine
    for module in (embedding, operators):
        monkeypatch.setattr(module, "cosine", lambda a, b: compared.append(1) or real_cosine(a, b))

    read.clear()
    assert [tid for _, tid, _ in embedding.rank_topics(engine.state, query, 3)][0] == "t0500"
    assert "t0500" in read and disjoint.id not in read
    output, records = engine.submit(EngineEvent.retrieve(Query(text="w500a w500b status")))
    assert [r.outcome for r in records] == ["committed"]
    assert [(a.topic, a.value) for a in output.answers][0] == ("t0500", "s500")
    bundle = FactBundle((Fact("Status", "done"),), "w700a w700b w700c status")
    _, records = engine.submit(EngineEvent.ingest(bundle))
    assert [r.outcome for r in records] == ["committed"]
    assert engine.state.topics["t0700"].fields["Status"].current_entry().value == "done"  # routed, not created
    assert compared == [] and scans == []


def test_the_audit_of_ingests_and_retrieves_recounts_only_the_topics_their_deltas_name(monkeypatch):
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=_large_state())
    for i in (100, 500, 900):
        bundle = FactBundle((Fact("Status", "done"),), "status update", topic_hint=f"t{i:04d}")
        engine.submit(EngineEvent.ingest(bundle))
        engine.submit(EngineEvent.retrieve(Query(text=f"w{i}a w{i}b status")))
    records = engine.journal.records
    assert [r.operator for r in records] == ["ingest", "retrieve"] * 3 and all(r.committed for r in records)
    assert all(d["kind"] == "unit_accessed" for r in records[1::2] for d in r.deltas)

    tallied, ranked = [], []
    real_tally, real_ranks = audit_module._topic_tally, audit_module._hide_ranks
    monkeypatch.setattr(audit_module, "_topic_tally", lambda topic: tallied.append(topic.id) or real_tally(topic))
    monkeypatch.setattr(audit_module, "_hide_ranks", lambda *args: ranked.append(1) or real_ranks(*args))
    assert audit_module.audit(engine.journal, []).passed
    assert ranked == []
    # the genesis is counted once; then each record recounts the topics it names
    named = [tid for r in records for tid in {d["topic"] for d in r.deltas}]
    assert sorted(tallied[:N_TOPICS]) == sorted(engine.journal.genesis["topics"])
    assert Counter(tallied[N_TOPICS:]) == Counter(named)


def test_the_audit_rereads_probes_and_rescans_provenance_only_for_the_topics_a_record_names(monkeypatch):
    genesis = _large_state()
    status = genesis.topics["t0300"].fields["Status"]
    status.history = [ValueEntry(f"s{j}", j, (Provenance("seed", j),), superseded=True) for j in range(5)]
    status.history.append(ValueEntry("s300", 5, (Provenance("seed", 5),)))
    status.salience = 0.52  # below theta_summary after one decay step: the tick folds three entries
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=genesis)
    for i in (100, 500, 900):
        bundle = FactBundle((Fact("Status", "done"),), "status update", topic_hint=f"t{i:04d}")
        engine.submit(EngineEvent.ingest(bundle))
        engine.submit(EngineEvent.retrieve(Query(text=f"w{i}a w{i}b status")))
    engine.submit(EngineEvent.tick())
    records = engine.journal.records
    assert [r.operator for r in records] == ["ingest", "retrieve"] * 3 + ["tick"] and all(r.committed for r in records)
    assert {(d["kind"], d.get("topic")) for d in records[-1].deltas} == {
        ("epoch_advanced", None), ("history_compressed", "t0300"), ("tier_set", "t0300")}

    # the probes' top k holds none of the topics the records name
    probes = [Query(text="w7a w7b w7c"), Query(text="w20a w20b", mode="historical")]
    ranked, scanned = [], []
    real_rank, real_scan = operators.rank_topics, audit_module._reachable_provenance
    monkeypatch.setattr(operators, "rank_topics", lambda *args: ranked.append(1) or real_rank(*args))
    monkeypatch.setattr(audit_module, "_reachable_provenance",
                        lambda state, topic_ids=None: scanned.append(topic_ids) or real_scan(state, topic_ids))
    assert audit_module.audit(engine.journal, probes).passed
    # each probe is read once; each retrieve record once, for its read set
    assert len(ranked) == len(probes) + 3
    assert scanned == [{"t0300"}, {"t0300"}]
