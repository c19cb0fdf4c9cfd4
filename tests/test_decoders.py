"""The contract every decoder of outside input keeps (`model.decode`): for
each key of a value the program writes, dropping the key raises KeyError
unless the key has a default, which then decodes as if written out; a value
of a type the key does not allow raises TypeError naming the key; and one
key more raises ValueError naming it."""

import json

import pytest

from conftest import build_state, build_topic
from gemstore.engine import Engine, EngineEvent, TransitionRecord
from gemstore.model import Edge, Field, Provenance, Topic, ValueEntry, state_from_dict, state_to_dict
from gemstore.operators import EvidenceItem, Fact, FactBundle, Query
from gemstore.storage import header_bytes, journal_from_header


def _examples():
    """(name, decoder, value the program writes, the defaults of its keys)."""
    bundle = FactBundle((Fact("Deadline", "May 1"),), "plan deadline May 1", topic_hint="plan")
    query = Query(text="plan deadline", mode="explicit", explicit=("plan", "Deadline"))
    evidence = EvidenceItem("duplicate_topics", "plan", other="plans", similarity=0.9)
    state = build_state([build_topic("plan", fields={"Deadline": "May 1"}), build_topic("plans")],
                        edges=[("plan", "plans", "Extension")])
    engine = Engine(genesis=state)
    _, records = engine.submit(EngineEvent.ingest(bundle))
    d = state_to_dict(state)
    field = d["topics"]["plan"]["fields"]["Deadline"]
    event_defaults = {"bundle": None, "query": None, "evidence": None, "target": None}
    return [
        ("provenance", Provenance.from_dict, field["history"][0]["provenance"][0], {}),
        ("entry", ValueEntry.from_dict, field["history"][0], {}),
        ("field", Field.from_dict, field, {}),
        ("topic", Topic.from_dict, d["topics"]["plan"], {}),
        ("edge", Edge.from_dict, d["edges"][0], {}),
        ("state", state_from_dict, d, {}),
        ("fact", Fact.from_dict, bundle.to_dict()["facts"][0], {"entity_tag": None, "excerpt": ""}),
        ("bundle", FactBundle.from_dict, bundle.to_dict(), {"source_id": "session", "topic_hint": None}),
        ("query", Query.from_dict, query.to_dict(),
         {"text": "", "mode": "default", "as_of": None, "root": None, "depth": 1, "explicit": None}),
        ("evidence", EvidenceItem.from_dict, evidence.to_dict(), {}),
        ("event", EngineEvent.from_dict, EngineEvent.ingest(bundle).to_dict(), event_defaults),
        ("event", EngineEvent.from_dict, EngineEvent.retrieve(query).to_dict(), event_defaults),
        ("event", EngineEvent.from_dict, EngineEvent.revise([evidence], target="plan").to_dict(), event_defaults),
        ("record", TransitionRecord.from_dict, records[-1].to_dict(), {}),
        ("journal header", journal_from_header, json.loads(header_bytes(engine.journal)), {}),
    ]


CASES = [(name, decoder, value, defaults, key) for name, decoder, value, defaults in _examples() for key in value]


def _ids(case):
    name, _, value, _, key = case
    return f"{name}-{value.get('kind', '')}-{key}" if name == "event" else f"{name}-{key}"


def _foreign(value):
    """A value of a type that no key holding `value` allows: a bool for a
    null, a string for a number and an integer for anything else."""
    if value is None:
        return True
    if type(value) in (int, float):
        return "7"
    return 7


@pytest.mark.parametrize("case", CASES, ids=[_ids(case) for case in CASES])
def test_a_decoder_refuses_a_missing_key_a_foreign_type_and_an_added_key(case):
    name, decoder, value, defaults, key = case
    decoder(value)
    dropped = {k: v for k, v in value.items() if k != key}
    if key in defaults:
        assert decoder(dropped) == decoder({**dropped, key: defaults[key]})
    else:
        with pytest.raises(KeyError, match=key):
            decoder(dropped)
    with pytest.raises(TypeError, match=f"^{name} {key} must be "):
        decoder({**value, key: _foreign(value[key])})
    with pytest.raises(ValueError, match=f"^{name} has an unknown key 'note'$"):
        decoder({**value, "note": "x"})
