import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import build_state, build_topic
from gemstore.model import TEXT_KINDS, EdgeKind, Field, Provenance, Tier, ValueEntry, state_digest
from gemstore.transaction import DELTA_KINDS, DeltaError, Txn, apply_delta


@pytest.mark.parametrize(
    "delta, match",
    [
        ({"kind": "bogus"}, "no known kind"),
        ({"topic": "t"}, "no known kind"),
        ({"kind": ["flag_removed"]}, "no known kind"),
        ({"kind": "flag_removed"}, "must carry"),
        ({"kind": "epoch_advanced", "extra": 1}, "must carry"),
        ({"kind": "flag_added", "topic": "t", "cause": 5}, "cause must be str"),
        ({"kind": "unit_accessed", "topic": "t", "field": "f", "value": True}, "value must be int or float"),
        ({"kind": "salience_set", "topic": "t", "field": "f", "value": "1"}, "value must be int or float"),
        ({"kind": "topic_archived", "id": "t", "merged_into": 3}, "merged_into must be str or null"),
        ({"kind": "entry_appended", "topic": "t", "field": "f", "value": "2", "provenance": {}},
         "provenance must be list"),
        ({"kind": "entry_appended", "topic": "t", "field": "f", "value": 2, "provenance": []}, "value must be str"),
        ({"kind": "entry_superseded", "topic": "t", "field": "f", "index": -1}, "out of range"),
        ({"kind": "entry_superseded", "topic": "t", "field": "f", "index": 1}, "out of range"),
        ({"kind": "history_compressed", "topic": "t", "field": "f", "count": 0}, "compression run"),
        ({"kind": "history_compressed", "topic": "t", "field": "f", "count": 2}, "compression run"),
        # a salience the forget ladder could not decay
        ({"kind": "salience_set", "topic": "t", "field": "f", "value": -1.0}, "finite and non-negative"),
        ({"kind": "salience_set", "topic": "t", "field": "f", "value": float("inf")}, "finite and non-negative"),
        ({"kind": "unit_accessed", "topic": "t", "field": "f", "value": -1.0}, "finite and non-negative"),
        ({"kind": "unit_accessed", "topic": "t", "field": "f", "value": float("inf")}, "finite and non-negative"),
        ({"kind": "field_created", "topic": "t", "field": "g", "entity_tag": None, "salience": -1.0},
         "finite and non-negative"),
        # the format v6 shapes and a dated entry: no delta carries the tick a transition derives
        ({"kind": "entry_appended", "topic": "t", "field": "f", "entry": ValueEntry("2", 1, ()).to_dict()},
         "must carry"),
        ({"kind": "entry_appended", "topic": "t", "field": "f", "value": "2", "provenance": [], "at": 1},
         "must carry"),
        ({"kind": "field_created", "topic": "t", "field": "g", "entity_tag": None, "salience": 1.0,
          "last_access": 1}, "must carry"),
        ({"kind": "unit_accessed", "topic": "t", "field": "f", "value": 2.0, "tick": 1}, "must carry"),
        ({"kind": "field_installed", "topic": "t", "payload": {**Field("h", salience=-0.5).to_dict()}},
         "finite and non-negative"),
        ({"kind": "field_installed", "topic": "t", "payload": {**Field("h", since=3).to_dict()}},
         "set at epoch 3, after epoch 0"),
    ],
)
def test_apply_delta_refuses_a_malformed_delta_and_changes_nothing(delta, match):
    state = build_state([build_topic("t", fields={"f": "1"})])  # one entry in t.f
    before = state_digest(state)
    with pytest.raises(DeltaError, match=match):
        apply_delta(state, delta)
    assert state_digest(state) == before


_BAD_ENTRY = {"value": 5, "at": "x", "provenance": [], "superseded": 0, "compressed": 0}
_FIELD = Field("h").to_dict()


@pytest.mark.parametrize(
    "delta, match",
    [
        ({"kind": "entry_appended", "topic": "t", "field": "f", "value": "2", "provenance": ["p"]}, "TypeError"),
        ({"kind": "entry_appended", "topic": "t", "field": "f", "value": "2",
          "provenance": [{"source_id": "s", "event_id": "1", "excerpt": ""}]}, "provenance event_id must be int"),
        ({"kind": "entry_appended", "topic": "t", "field": "f", "value": "2", "provenance": [{"source_id": "s"}]},
         "KeyError"),
        ({"kind": "field_installed", "topic": "t", "payload": {**_FIELD, "since": 1.5}}, "field since must be int"),
        ({"kind": "field_installed", "topic": "t", "payload": {**_FIELD, "history": ""}}, "field history must be list"),
        ({"kind": "field_installed", "topic": "t", "payload": {**_FIELD, "history": [_BAD_ENTRY]}},
         "entry value must be str"),
        ({"kind": "field_installed", "topic": "t", "payload": {**_FIELD, "tier": "Gone"}}, "is not a valid Tier"),
        ({"kind": "field_installed", "topic": "t", "payload": {**_FIELD, "tag": "x"}}, "field has an unknown key 'tag'"),
        ({"kind": "entry_appended", "topic": "t", "field": "f", "value": "2",
          "provenance": [{"source_id": "s", "event_id": 1, "excerpt": "", "at": 1}]}, "provenance has an unknown key 'at'"),
    ],
)
def test_apply_delta_refuses_a_malformed_nested_payload_and_changes_nothing(delta, match):
    state = build_state([build_topic("t", fields={"f": "1"})])
    before = state_digest(state)
    with pytest.raises(DeltaError, match=match):
        apply_delta(state, delta)
    assert state_digest(state) == before
    assert state.topics["t"].vector().norm > 0  # the content text still joins


# one call of a Txn recorder per delta kind, on topics t (field f) and u,
# joined by the Extension edge t -> u
RECORDER_CALLS = {
    "topic_created": ("create_topic", "n", "n", "n"),
    "topic_removed": ("remove_topic", "u"),
    "topic_archived": ("archive_topic", "t"),
    "field_created": ("create_field", "t", "g", None, 1.0),
    "field_removed": ("remove_field", "t", "f"),
    "field_installed": ("install_field", "t", Field("h")),
    "entry_appended": ("append_entry", "t", "f", "2", ()),
    "entry_superseded": ("supersede_entry", "t", "f", 0),
    "history_compressed": ("compress_history", "t", "f", 1),
    "salience_set": ("set_salience", "t", "f", 0.5),
    "epoch_advanced": ("advance_epoch",),
    "unit_accessed": ("access_unit", "t", "f", 2.0),
    "tier_set": ("set_tier", "t", "f", Tier.HIDDEN),
    "edge_added": ("add_edge", "t", "u", EdgeKind.EXTENSION, 1),
    "edge_removed": ("remove_edge", "t", "u", EdgeKind.EXTENSION),
    "flag_added": ("add_flag", "t", "u.f"),
    "flag_removed": ("remove_flag", "t"),
}


@pytest.mark.parametrize("kind", sorted(DELTA_KINDS))
def test_a_recorder_writes_its_kind_and_only_a_text_kind_clears_the_embedding(kind):
    txn = Txn(build_state([build_topic("t", fields={"f": "1"}), build_topic("u")], edges=[("t", "u", "Extension")]))
    recorder, *operands = RECORDER_CALLS[kind]
    getattr(txn, recorder)(*operands)
    assert [d["kind"] for d in txn.deltas] == [kind]
    assert (txn.state.topics["t"].embedding is None) == (kind in TEXT_KINDS)


# -- what apply_delta derives from the state ----------------------------------


def oracle_summary(run: list[ValueEntry]) -> ValueEntry:
    """The summary of a compressed run, spelled out as the forget ladder
    built it when its delta carried the summary whole: each provenance
    record once, keyed by (source_id, event_id, excerpt), in order of first
    appearance."""
    provs = []
    seen = set()
    for entry in run:
        for prov in entry.provenance:
            key = (prov.source_id, prov.event_id, prov.excerpt)
            if key not in seen:
                seen.add(key)
                provs.append(prov)
    return ValueEntry(
        value=f"{len(run)} earlier values ({run[0].value} ... {run[-1].value})",
        at=run[-1].at,
        provenance=tuple(provs),
        superseded=True,
        compressed=True,
    )


# few distinct records, so that entries often repeat one
_PROVENANCE = st.builds(Provenance, st.sampled_from(["s", "t"]), st.integers(1, 2), st.sampled_from(["", "x"]))
_ENTRIES = st.builds(ValueEntry, st.sampled_from("abc"), st.integers(0, 5),
                     st.lists(_PROVENANCE, max_size=3).map(tuple), st.booleans(), st.booleans())
_P1, _P2, _P3 = Provenance("s", 1, "x"), Provenance("s", 2, "x"), Provenance("t", 1, "x")


@settings(max_examples=200, derandomize=True, database=None)
@given(history=st.lists(_ENTRIES, min_size=1, max_size=6), count=st.integers(1, 6))
@example(history=[ValueEntry("a", 1, (_P1,)), ValueEntry("b", 2, (_P1, _P2)), ValueEntry("c", 3, (_P2, _P1, _P3)),
                  ValueEntry("d", 4, (_P1,))], count=3)
@example(history=[ValueEntry("a", 1, (_P1, _P2, _P1)), ValueEntry("b", 2, ())], count=1)
def test_a_compression_derives_the_summary_of_the_entries_it_folds(history, count):
    count = min(count, len(history))
    state = build_state([build_topic("t")])
    state.topics["t"].fields["f"] = Field("f", history=list(history))
    apply_delta(state, {"kind": "history_compressed", "topic": "t", "field": "f", "count": count})
    expected = [oracle_summary(history[:count]), *history[count:]]
    assert [e.to_dict() for e in state.topics["t"].fields["f"].history] == [e.to_dict() for e in expected]


@pytest.mark.parametrize("compressed", [False, True])
def test_a_supersede_keeps_the_entry_compressed_flag(compressed):
    state = build_state([build_topic("t")])
    entry = ValueEntry("1", 1, (Provenance("seed", 1),), compressed=compressed)
    state.topics["t"].fields["f"] = Field("f", history=[entry])
    apply_delta(state, {"kind": "entry_superseded", "topic": "t", "field": "f", "index": 0})
    (after,) = state.topics["t"].fields["f"].history
    assert (after.superseded, after.compressed) == (True, compressed)
    assert (after.value, after.at, after.provenance) == (entry.value, entry.at, entry.provenance)


def test_an_access_sets_the_salience_its_epoch_and_the_last_access_together():
    state = build_state([build_topic("t", fields={"f": "1"})], tick=8)
    state.epoch = 4
    apply_delta(state, {"kind": "unit_accessed", "topic": "t", "field": "f", "value": 1.5})
    f = state.topics["t"].fields["f"]
    assert (f.salience, f.since, f.last_access) == (1.5, 4, 9)


@pytest.mark.parametrize("clock", [0, 6])
def test_a_transition_dates_what_it_appends_creates_and_accesses_at_the_clock_plus_one(clock):
    state = build_state([build_topic("t", fields={"f": "1"})], tick=clock)
    prov = Provenance("s", 3, "x")
    apply_delta(state, {"kind": "entry_appended", "topic": "t", "field": "f", "value": "2",
                        "provenance": [prov.to_dict()]})
    apply_delta(state, {"kind": "field_created", "topic": "t", "field": "g", "entity_tag": None, "salience": 1.0})
    apply_delta(state, {"kind": "unit_accessed", "topic": "t", "field": "f", "value": 2.0})
    fields = state.topics["t"].fields
    assert fields["f"].history[-1] == ValueEntry("2", clock + 1, (prov,), superseded=False, compressed=False)
    assert fields["f"].last_access == fields["g"].last_access == clock + 1
    assert state.clock == clock
    assert Txn(state).tick == clock + 1
