import pytest

from conftest import build_state, build_topic
from gemstore.model import EdgeKind, Field, Tier, ValueEntry, state_digest
from gemstore.transaction import DELTA_KINDS, DeltaError, Txn, apply_delta

ENTRY = ValueEntry("2", 1, ()).to_dict()


@pytest.mark.parametrize(
    "delta, match",
    [
        ({"kind": "bogus"}, "no known kind"),
        ({"topic": "t"}, "no known kind"),
        ({"kind": ["flag_removed"]}, "no known kind"),
        ({"kind": "flag_removed"}, "must carry"),
        ({"kind": "epoch_advanced", "extra": 1}, "must carry"),
        ({"kind": "flag_added", "topic": "t", "cause": 5}, "cause must be str"),
        ({"kind": "last_access_set", "topic": "t", "field": "f", "tick": True}, "tick must be int"),
        ({"kind": "salience_set", "topic": "t", "field": "f", "value": "1"}, "value must be int or float"),
        ({"kind": "topic_archived", "id": "t", "merged_into": 3}, "merged_into must be str or null"),
        ({"kind": "entry_appended", "topic": "t", "field": "f", "entry": [ENTRY]}, "entry must be dict"),
        ({"kind": "entry_flags", "topic": "t", "field": "f", "index": -1, "superseded": True, "compressed": False},
         "out of range"),
        ({"kind": "entry_flags", "topic": "t", "field": "f", "index": 1, "superseded": True, "compressed": False},
         "out of range"),
        ({"kind": "entry_flags", "topic": "t", "field": "f", "index": 0, "superseded": 1, "compressed": False},
         "superseded must be bool"),
        ({"kind": "history_compressed", "topic": "t", "field": "f", "count": 0, "summary": ENTRY}, "compression run"),
        ({"kind": "history_compressed", "topic": "t", "field": "f", "count": 2, "summary": ENTRY}, "compression run"),
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
        ({"kind": "entry_appended", "topic": "t", "field": "f", "entry": _BAD_ENTRY}, "entry value must be str"),
        ({"kind": "entry_appended", "topic": "t", "field": "f", "entry": {**ENTRY, "provenance": "p"}},
         "entry provenance must be list"),
        ({"kind": "entry_appended", "topic": "t", "field": "f",
          "entry": {**ENTRY, "provenance": [{"source_id": "s", "event_id": "1", "excerpt": ""}]}},
         "provenance event_id must be int"),
        ({"kind": "entry_appended", "topic": "t", "field": "f", "entry": {"value": "2"}}, "KeyError"),
        ({"kind": "history_compressed", "topic": "t", "field": "f", "count": 1, "summary": {**ENTRY, "superseded": 0}},
         "entry superseded must be bool"),
        ({"kind": "field_installed", "topic": "t", "payload": {**_FIELD, "since": 1.5}}, "field since must be int"),
        ({"kind": "field_installed", "topic": "t", "payload": {**_FIELD, "history": ""}}, "field history must be list"),
        ({"kind": "field_installed", "topic": "t", "payload": {**_FIELD, "history": [_BAD_ENTRY]}},
         "entry value must be str"),
        ({"kind": "field_installed", "topic": "t", "payload": {**_FIELD, "tier": "Gone"}}, "is not a valid Tier"),
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
    "field_created": ("create_field", "t", "g", None, 1.0, 1),
    "field_removed": ("remove_field", "t", "f"),
    "field_installed": ("install_field", "t", Field("h")),
    "entry_appended": ("append_entry", "t", "f", ValueEntry("2", 1, ())),
    "entry_flags": ("set_entry_flags", "t", "f", 0, True, False),
    "history_compressed": ("compress_history", "t", "f", 1, ValueEntry("s", 1, ())),
    "salience_set": ("set_salience", "t", "f", 0.5),
    "epoch_advanced": ("advance_epoch",),
    "last_access_set": ("set_last_access", "t", "f", 2),
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
    assert (txn.state.topics["t"].embedding is None) == DELTA_KINDS[kind].text
