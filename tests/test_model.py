import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from gemstore.embedding import embed
from gemstore.model import (
    Edge,
    EdgeKind,
    Field,
    MemoryState,
    Provenance,
    Tier,
    Topic,
    ValueEntry,
    active_footprint,
    canonical_json,
    current_value,
    history,
    stale_current_exists,
    state_digest,
    state_bytes,
    state_from_dict,
    state_to_dict,
    LookupError_,
)
from gemstore.policy import default_policy_set, parse_policy
from gemstore.transaction import apply_delta


def make_topic(tid, title="a title", **field_values):
    topic = Topic(id=tid, title=title, summary=title)
    for i, (name, value) in enumerate(field_values.items()):
        f = Field(name=name)
        f.history.append(ValueEntry(value, i + 1, (Provenance("s", i + 1),)))
        topic.fields[name] = f
    topic.embedding = embed(topic.content_text())
    return topic


def test_current_entry_skips_superseded_and_compressed():
    f = Field(name="Deadline")
    f.history = [
        ValueEntry("old", 1, (), superseded=True),
        ValueEntry("summary", 2, (), superseded=True, compressed=True),
        ValueEntry("new", 3, ()),
    ]
    assert f.current_entry().value == "new"
    f.history = [ValueEntry("only", 1, (), superseded=True)]
    assert f.current_entry() is None


# equal entries, as distinct objects, so that a history may hold copies
_EQUAL_ENTRIES = st.builds(
    lambda value, superseded, compressed: ValueEntry(value, 1, (), superseded=superseded, compressed=compressed),
    st.sampled_from("ab"), st.booleans(), st.booleans(),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(_EQUAL_ENTRIES, max_size=8))
def test_current_index_finds_the_current_entry_from_the_end(entries):
    f = Field(name="F", history=entries)
    i = f.current_index()
    current = f.current_entry()
    if current is None:
        assert i is None
        return
    assert f.history[i] is current
    assert all(e.superseded or e.compressed for e in f.history[i + 1:])
    # `history.index` finds the first entry equal to the current one, which
    # is an earlier copy when the history holds one
    first = f.history.index(current)
    assert f.history[first] == current
    assert (first == i) == (f.history.count(current) == 1)


_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)  # any code point, surrogates too
_NUMBERS = st.one_of(st.integers(), st.floats(), st.sampled_from([-0.0, 1e16, 5e-324, math.inf]))
_PROVENANCE = st.builds(Provenance, _TEXT, st.integers(), _TEXT)
_ENTRIES = st.builds(ValueEntry, _TEXT, st.integers(), st.lists(_PROVENANCE, max_size=3).map(tuple),
                     st.booleans(), st.booleans())
_FIELDS = st.builds(Field, _TEXT, st.none() | _TEXT, st.lists(_ENTRIES, max_size=3), _NUMBERS, st.integers(),
                    st.sampled_from(Tier), st.integers())
_TOPICS = st.builds(
    lambda tid, title, summary, fields, archived, archived_at, merged_into: Topic(
        tid, title, summary, fields={f.name: f for f in fields}, archived=archived, archived_at=archived_at,
        merged_into=merged_into),
    _TEXT, _TEXT, _TEXT, st.lists(_FIELDS, max_size=3), st.booleans(), st.none() | st.integers(),
    st.none() | _TEXT,
)


def _assert_encoded_as_json(topic: Topic) -> None:
    assert topic.canonical_bytes() == canonical_json(topic.to_dict()).encode()
    for f in topic.fields.values():
        assert b",".join(f.canonical_items()) == canonical_json(f.to_dict()).encode()
        for e in f.history:
            assert e.canonical_bytes == canonical_json(e.to_dict()).encode()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_TOPICS)
def test_canonical_bytes_equal_canonical_json(topic):
    _assert_encoded_as_json(topic)
    # a replaced entry encodes itself anew, so its bytes follow its flags
    for f in topic.fields.values():
        f.history = [replace(e, superseded=not e.superseded) for e in f.history]
    _assert_encoded_as_json(topic)


_POLICIES = default_policy_set() + [
    parse_policy('POLICY cap ON pre_commit WHEN active_footprint > 2 DO reject_transition("Grenze überschritten")')]
_EDGES = st.builds(Edge, _TEXT, _TEXT, st.sampled_from(EdgeKind), st.integers())
_STATES = st.builds(
    lambda topics, edges, policies, clock, epoch, queue: MemoryState(
        topics={t.id: t for t in topics}, edges={e.key(): e for e in edges}, policies=policies, clock=clock,
        epoch=epoch, revision_queue=queue),
    st.lists(_TOPICS, max_size=3), st.lists(_EDGES, max_size=3), st.lists(st.sampled_from(_POLICIES), max_size=4),
    st.integers(), st.integers(), st.sets(st.tuples(_TEXT, _TEXT), max_size=3),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_STATES)
@example(MemoryState())
@example(MemoryState(topics={"ü": Topic("ü", "", "", fields={"F": Field("F", salience=-0.0)})},
                     policies=_POLICIES, revision_queue={("ü", "Frist.März"), ("a", "\ud800")}))
@example(MemoryState(topics={"t": Topic("t", "", "", fields={"F": Field("F", salience=math.nan)})}))
def test_state_bytes_equal_canonical_json_of_state_to_dict(state):
    assert state_bytes(state) == canonical_json(state_to_dict(state)).encode()


def test_canonical_bytes_of_a_decoded_genesis_equal_canonical_json():
    state = MemoryState()
    state.topics["t"] = make_topic("t", Deadline="März 15\n\u0007", Owner="dana")
    state.topics["t"].fields["Owner"].entity_tag = "staff"
    state.topics["u"] = make_topic("u")  # no fields
    d = state_to_dict(state)
    d["topics"]["t"]["fields"]["Deadline"]["salience"] = 1  # an int, as JSON may hold it
    decoded = state_from_dict(d)
    assert type(decoded.topics["t"].fields["Deadline"].salience) is int
    for topic in decoded.topics.values():
        _assert_encoded_as_json(topic)
    assert decoded.topics["t"].canonical_bytes() == canonical_json(d["topics"]["t"]).encode()


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
        ValueEntry("keep", 1, ()),
        ValueEntry("superseded-latest", 2, (), superseded=True),
    ]
    assert stale_current_exists(state)


def test_state_round_trip_is_digest_exact():
    state = MemoryState()
    state.topics["t"] = make_topic("t", Deadline="March 15", Owner="dana")
    state.clock = 7
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
    state = MemoryState(policies=default_policy_set())
    for tid in ("p", "q", "r"):
        state.topics[tid] = make_topic(tid, A="1")
    for src, dst in (("p", "q"), ("q", "r")):
        e = Edge(src, dst, EdgeKind.EXTENSION, 0)
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


def _digest_by_canonical_json(state: MemoryState) -> str:
    """`state_digest` with its clock and epoch pair and its revision queue
    encoded by `canonical_json`."""
    hashes = state.part("hashes").values
    h = hashlib.sha256()
    h.update(canonical_json([state.clock, state.epoch]).encode())
    h.update(b"[" + b",".join([p.canonical_bytes for p in state.policies]) + b"]")
    h.update(state.part("edges").section)
    h.update(canonical_json(sorted(list(pair) for pair in state.revision_queue)).encode())
    h.update(b"%d:" % len(hashes))
    h.update(b"".join(hashes.values()))
    return h.hexdigest()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(), st.integers(), st.sets(st.tuples(st.sampled_from("pqr") | _TEXT, _TEXT), max_size=4))
@example(0, 0, set())
@example(7, 2, {("q", "p.A"), ("q", "r.A"), ("p", "Frist.März")})
def test_the_digest_writes_the_clock_epoch_and_queue_as_canonical_json(clock, epoch, queue):
    state = _digest_sample()
    state.clock, state.epoch, state.revision_queue = clock, epoch, queue
    assert state_digest(state) == _digest_by_canonical_json(state)


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
