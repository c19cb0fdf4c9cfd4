"""Deterministic scaling guards: the work a transition does is counted, not
timed, so these hold on any machine."""

from conftest import build_state, build_topic
from gemstore import embedding, operators
from gemstore.config import BetaSpec, EngineConfig
from gemstore.engine import Engine, EngineEvent
from gemstore.model import Topic
from gemstore.operators import Fact, FactBundle
from gemstore.salience import decay

N_TOPICS = 1000


def _large_state():
    topics = [
        build_topic(f"t{i:04d}", title=f"w{i}a w{i}b w{i}c", fields={"Status": f"s{i}"})
        for i in range(N_TOPICS)
    ]
    return build_state(topics)


def test_duplicate_detection_skips_topics_with_disjoint_titles(monkeypatch):
    calls = []
    real = operators.cosine
    monkeypatch.setattr(operators, "cosine", lambda a, b: calls.append(1) or real(a, b))
    items = operators.detect_evidence(_large_state(), EngineConfig())
    assert [e for e in items if e.kind == "duplicate_topics"] == []
    assert calls == []


def test_hinted_ingest_serialises_only_the_touched_topic(monkeypatch):
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=_large_state())
    serialised = []
    real = Topic.to_dict
    monkeypatch.setattr(Topic, "to_dict", lambda self: serialised.append(self.id) or real(self))
    bundle = FactBundle((Fact("Status", "done"),), "status update", topic_hint="t0500")
    _, records = engine.submit(EngineEvent.ingest(bundle))
    assert [r.outcome for r in records] == ["committed"]
    assert serialised == ["t0500"]


def test_tick_derives_no_embeddings(monkeypatch):
    engine = Engine(config=EngineConfig(beta=BetaSpec(base=2 * N_TOPICS)), genesis=_large_state())
    derived = []
    real = embedding._embed_tuple
    monkeypatch.setattr(embedding, "_embed_tuple", lambda text: derived.append(text) or real(text))
    before = {tid: topic.fields["Status"].salience for tid, topic in engine.state.topics.items()}
    _, records = engine.submit(EngineEvent.tick())
    assert [r.outcome for r in records] == ["committed"]
    lam = engine.config.salience.decay
    assert records[0].deltas == [{"kind": "salience_decayed", "factor": lam}]
    # the one delta decayed every live field, exactly as a per-field decay would
    after = {tid: topic.fields["Status"].salience for tid, topic in engine.state.topics.items()}
    assert len(after) == N_TOPICS
    assert after == {tid: decay(s, 1, lam) for tid, s in before.items()}
    assert derived == []
