import pytest

from gemstore.model import (
    Edge,
    EdgeKind,
    Field,
    MemoryState,
    Provenance,
    Tier,
    Timestamp,
    Topic,
    ValueEntry,
    active_footprint,
    canonical_json,
    current_value,
    fresh_embedding_for,
    history,
    stale_current_exists,
    state_digest,
    state_from_dict,
    state_to_dict,
    LookupError_,
)
from gemstore.transaction import apply_delta


def make_topic(tid, title="a title", **field_values):
    topic = Topic(id=tid, title=title, summary=title, embedding=None)
    topic.embedding = fresh_embedding_for(topic)
    for i, (name, value) in enumerate(field_values.items()):
        f = Field(name=name)
        f.history.append(ValueEntry(value, Timestamp(i + 1), (Provenance("s", i + 1),)))
        topic.fields[name] = f
    topic.embedding = fresh_embedding_for(topic)
    return topic


def test_current_entry_skips_superseded_and_compressed():
    f = Field(name="Deadline")
    f.history = [
        ValueEntry("old", Timestamp(1), (), superseded=True),
        ValueEntry("summary", Timestamp(2), (), superseded=True, compressed=True),
        ValueEntry("new", Timestamp(3), ()),
    ]
    assert f.current_entry().value == "new"
    f.history = [ValueEntry("only", Timestamp(1), (), superseded=True)]
    assert f.current_entry() is None


def test_current_value_respects_tier_and_archive():
    state = MemoryState()
    state.topics["t"] = make_topic("t", Deadline="March 15")
    assert current_value(state, "t", "Deadline").value == "March 15"

    state.topics["t"].fields["Deadline"].tier = Tier.HIDDEN
    assert current_value(state, "t", "Deadline") is None
    # explicit history access ignores tier
    assert [e.value for e in history(state, "t", "Deadline")] == ["March 15"]

    state.topics["t"].fields["Deadline"].tier = Tier.ACTIVE
    state.topics["t"].archived = True
    assert current_value(state, "t", "Deadline") is None
    assert history(state, "t", "Deadline")  # still recoverable


def test_history_unknown_unit_raises():
    state = MemoryState()
    with pytest.raises(LookupError_):
        history(state, "nope", "f")
    state.topics["t"] = make_topic("t", A="1")
    with pytest.raises(LookupError_):
        history(state, "t", "nope")


def test_active_footprint_counts_active_fields_of_live_topics():
    state = MemoryState()
    state.topics["a"] = make_topic("a", X="1", Y="2")
    state.topics["b"] = make_topic("b", Z="3")
    assert active_footprint(state) == 3
    state.topics["a"].fields["X"].tier = Tier.COMPRESSED
    assert active_footprint(state) == 2
    state.topics["b"].archived = True
    assert active_footprint(state) == 1


def test_stale_current_detection():
    state = MemoryState()
    state.topics["t"] = make_topic("t", A="1")
    assert not stale_current_exists(state)
    f = state.topics["t"].fields["A"]
    # latest non-compressed entry superseded while an older current remains
    f.history = [
        ValueEntry("keep", Timestamp(1), ()),
        ValueEntry("superseded-latest", Timestamp(2), (), superseded=True),
    ]
    assert stale_current_exists(state)


def test_state_round_trip_is_digest_exact():
    state = MemoryState()
    state.topics["t"] = make_topic("t", Deadline="March 15", Owner="dana")
    state.clock = Timestamp(7)
    state.revision_queue.add(("t", "x.y"))
    d = state_to_dict(state)
    restored = state_from_dict(d)
    assert state_digest(restored) == state_digest(state)
    assert canonical_json(state_to_dict(restored)) == canonical_json(d)


def test_digest_ignores_container_insertion_order():
    a = MemoryState()
    a.topics["p"] = make_topic("p", X="1")
    a.topics["q"] = make_topic("q", Y="2")
    b = MemoryState()
    b.topics["q"] = make_topic("q", Y="2")
    b.topics["p"] = make_topic("p", X="1")
    assert state_digest(a) == state_digest(b)


def test_digest_changes_on_content_change():
    state = MemoryState()
    state.topics["t"] = make_topic("t", A="1")
    before = state_digest(state)
    apply_delta(state, {"kind": "salience_set", "topic": "t", "field": "A", "value": 2.0})
    assert state_digest(state) != before


def _digest_sample():
    from gemstore.policy import default_policy_set

    state = MemoryState(policies=default_policy_set())
    for tid in ("p", "q", "r"):
        state.topics[tid] = make_topic(tid, A="1")
    for src, dst in (("p", "q"), ("q", "r")):
        e = Edge(src, dst, EdgeKind.EXTENSION, Timestamp(0))
        state.edges[e.key()] = e
    return state


def _mutations():
    def clock(s):
        s.clock += 1

    def policy(s):
        s.policies.pop()

    def edge_added(s):
        apply_delta(s, {"kind": "edge_added", "src": "r", "dst": "p", "edge_kind": "Association", "tick": 0})

    def edge_removed(s):
        apply_delta(s, {"kind": "edge_removed", "src": "p", "dst": "q", "edge_kind": "Extension"})

    def queue_entry(s):
        apply_delta(s, {"kind": "flag_added", "topic": "q", "cause": "p.A"})

    def field_value(s):
        apply_delta(s, {"kind": "salience_set", "topic": "r", "field": "A", "value": 0.5})

    return [clock, policy, edge_added, edge_removed, queue_entry, field_value]


@pytest.mark.parametrize("mutate", _mutations(), ids=lambda f: f.__name__)
def test_every_state_section_changes_the_digest(mutate):
    state = _digest_sample()
    before = state_digest(state)  # fills the per-topic hash cache
    mutate(state)
    assert state_digest(state) != before
    assert state_digest(state) == state_digest(state_from_dict(state_to_dict(state)))


def test_digest_ignores_edge_insertion_order():
    a, b = _digest_sample(), _digest_sample()
    b.edges = dict(reversed(list(b.edges.items())))
    assert list(a.edges) != list(b.edges)
    assert state_digest(a) == state_digest(b)


# each decoder of a state's parts, and where its input sits in a state's dict
_DECODERS = {
    "state": (state_from_dict, lambda d: d),
    "topic": (Topic.from_dict, lambda d: d["topics"]["p"]),
    "field": (Field.from_dict, lambda d: d["topics"]["p"]["fields"]["A"]),
    "entry": (ValueEntry.from_dict, lambda d: d["topics"]["p"]["fields"]["A"]["history"][0]),
    "provenance": (Provenance.from_dict, lambda d: d["topics"]["p"]["fields"]["A"]["history"][0]["provenance"][0]),
    "edge": (Edge.from_dict, lambda d: d["edges"][0]),
}


@pytest.mark.parametrize("what", sorted(_DECODERS))
def test_a_decoder_refuses_a_key_that_names_no_field(what):
    decode, part = _DECODERS[what]
    d = state_to_dict(_digest_sample())
    decode(part(d))
    part(d)["tag"] = "x"
    with pytest.raises(ValueError, match=f"^{what} has an unknown key 'tag'$"):
        decode(part(d))
    with pytest.raises(ValueError, match=f"^{what} has an unknown key 'tag'$"):
        state_from_dict(d)  # a genesis or snapshot carrying it
