"""Decoder fuzz.  Valid inputs (the deltas generated from `DELTA_KINDS` and
their nested payloads, journal frames, a snapshot's one frame, and the text
inputs of `gem`) are mutated: a key dropped, a key added, a value's type
swapped, an integer negated, or a byte of text changed.  Each mutant must
either raise its decoder's typed error or decode, and `gem` must answer it
with an exit code (2 for a usage error, 1 for corrupt input or a failed
check), never with an exception.  The runs are derandomized, so every run
tries the same cases."""

import copy
import json
import struct
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_state, build_topic
from gemstore.cli import _load_probes, main
from gemstore.config import EngineConfig
from gemstore.engine import CorruptJournalError, Engine, replay
from gemstore.model import (
    BOOL,
    INT,
    NUMBER,
    STR,
    STR_OR_NULL,
    EdgeKind,
    Field,
    Provenance,
    Tier,
    ValueEntry,
    canonical_json,
    state_digest,
    state_to_dict,
)
from gemstore.operators import RuleTable
from gemstore.policy import DEFAULT_POLICY_TEXT, PolicyParseError, parse_policies, parse_policy, render_policy
from gemstore.storage import read_journal, snapshot_from_journal, write_journal
from gemstore.transaction import DELTA_KINDS, DeltaError, apply_delta
from gemstore.workload import ASSERT_CHECKS, WorkloadError, parse_workload, run_workload

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=25)
WORKLOADS = Path(__file__).resolve().parent.parent / "workloads"

# what a swapped value becomes: one of these, of another type than it had
SWAPS = (None, True, 7, -3, 1.5, "x", [], {})


# -- JSON mutation ----------------------------------------------------------


def _paths(node, path=()):
    """The path of every value inside a JSON value, the value itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def json_mutants(draw, value):
    """`value` with one change: a key or item dropped, a key or item added,
    a value swapped for one of another type, or an integer negated."""
    value = copy.deepcopy(value)
    paths = list(_paths(value))
    op = draw(st.sampled_from(["drop", "add", "swap", "negate"]))
    if op == "add":
        target = reduce(getitem, draw(st.sampled_from(paths)), value)
        if isinstance(target, dict):
            target["extra"] = 1
            return value
        if isinstance(target, list):
            target.append(draw(st.sampled_from(SWAPS)))
            return value
        op = "swap"
    ints = [p for p in paths[1:] if type(reduce(getitem, p, value)) is int]
    if op == "negate" and not ints:
        op = "swap"
    path = draw(st.sampled_from(ints if op == "negate" else paths[1:]))
    parent, key = reduce(getitem, path[:-1], value), path[-1]
    if op == "drop":
        parent.pop(key)
    elif op == "negate":
        parent[key] = ~parent[key]  # -(n + 1): negative for every n >= 0
    else:
        parent[key] = draw(st.sampled_from([v for v in SWAPS if type(v) is not type(parent[key])]))
    return value


@st.composite
def text_mutants(draw, text):
    """`text` with one character deleted, replaced or inserted."""
    pos = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(["", "(", ")", "x", " ", "\n", "#", '"', "0", ".", ">", ":"]))
    cut = draw(st.integers(0, 1))
    return text[:pos] + ch + text[pos + cut :]


# -- deltas -----------------------------------------------------------------


def _delta_state():
    """Topics t and u, each with fields f and g of three entries, t -> u."""
    entries = [ValueEntry(v, 1, (Provenance("seed", 1),)) for v in "123"]
    state = build_state([build_topic("t"), build_topic("u")], edges=[("t", "u", "Extension")])
    for topic in state.topics.values():
        topic.fields = {name: Field(name, history=list(entries)) for name in "fg"}
    return state


DELTA_STATE = _delta_state()
_TOPIC, _NEW_TOPIC, _FIELD = st.sampled_from("tu"), st.sampled_from(["t", "u", "new"]), st.sampled_from("fgh")
_ENTRY = st.builds(lambda v, at: ValueEntry(v, at, (Provenance("s", at),)).to_dict(), _FIELD, st.integers(0, 4))
_PROVENANCE = st.lists(st.builds(lambda at: Provenance("s", at).to_dict(), st.integers(0, 4)), min_size=1, max_size=2)
_OPERAND_BY_NAME = {
    "topic": _TOPIC,
    "field": _FIELD,
    "tier": st.sampled_from([t.value for t in Tier]),
    "edge_kind": st.sampled_from([k.value for k in EdgeKind]),
    "provenance": _PROVENANCE,
    "payload": st.builds(lambda name, e: Field(name, history=[ValueEntry.from_dict(e)]).to_dict(), _FIELD, _ENTRY),
}
_OPERAND_BY_TYPES = {
    STR: _NEW_TOPIC,
    STR_OR_NULL: st.none() | _NEW_TOPIC,
    INT: st.integers(0, 4),
    NUMBER: st.integers(0, 3) | st.floats(0, 3),
    BOOL: st.booleans(),
}


@st.composite
def valid_deltas(draw, kind):
    delta = {"kind": kind}
    for name, types in DELTA_KINDS[kind].operands.items():
        delta[name] = draw(_OPERAND_BY_NAME[name] if name in _OPERAND_BY_NAME else _OPERAND_BY_TYPES[types])
    return delta


@pytest.mark.parametrize("op", ["none", "drop", "add", "swap", "negate"])
@pytest.mark.parametrize("kind", sorted(DELTA_KINDS))
@settings(FUZZ, max_examples=4)
@given(data=st.data())
def test_a_mutated_delta_raises_delta_error_or_applies(kind, op, data):
    delta = data.draw(valid_deltas(kind))
    operands = DELTA_KINDS[kind].operands
    ints = [k for k in operands if type(delta[k]) is int]
    refused = op in ("drop", "add")
    if op == "drop":
        del delta[data.draw(st.sampled_from(sorted(delta)))]
    elif op == "add":
        delta[data.draw(st.sampled_from(["extra", "kind_", "value_"]))] = 1
    elif op == "swap":
        key = data.draw(st.sampled_from(sorted(delta)))
        delta[key] = data.draw(st.sampled_from([v for v in SWAPS if type(v) is not type(delta[key])]))
        refused = key == "kind" or type(delta[key]) not in operands[key]
    elif op == "negate" and ints:
        key = data.draw(st.sampled_from(ints))
        delta[key] = ~delta[key]
        refused = key in ("index", "count")
    state = DELTA_STATE.shallow_clone()  # copies what a delta changes
    try:
        apply_delta(state, delta)
    except DeltaError:
        return
    assert not refused, f"{op} mutant applied: {delta}"
    # a delta that applies leaves a state that hashes and encodes
    state_digest(state)
    canonical_json(state_to_dict(state))


# the deltas that carry provenance records or a field, a nested payload of its own
NESTED = {"entry_appended": "provenance", "field_installed": "payload"}


@pytest.mark.parametrize("kind", sorted(NESTED))
@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_a_mutated_nested_payload_raises_delta_error_or_applies(kind, data):
    delta = data.draw(valid_deltas(kind))
    delta[NESTED[kind]] = data.draw(json_mutants(delta[NESTED[kind]]))
    state = DELTA_STATE.shallow_clone()
    try:
        apply_delta(state, delta)
    except DeltaError:
        return
    # a payload that applies leaves a state that hashes, encodes and embeds
    state_digest(state)
    canonical_json(state_to_dict(state))
    for topic in state.topics.values():
        topic.vector()


# -- journals, snapshots, workloads, probes, configs, policies, rules ---------


@pytest.fixture(scope="module")
def journal_frames(tmp_path_factory):
    """The frames of the deadline workload's journal, decoded."""
    engine = Engine()
    run_workload(engine, parse_workload((WORKLOADS / "deadline.workload").read_text(encoding="utf-8")))
    path = tmp_path_factory.mktemp("fuzz") / "deadline.journal"
    write_journal(path, engine.journal)
    data, frames, pos = path.read_bytes(), [], 4
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        frames.append(json.loads(data[pos + 4 : pos + 4 + length]))
        pos += 4 + length
    return path, frames


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


def _decodes(decode, error) -> bool:
    try:
        decode()
    except error:
        return False
    return True


@FUZZ
@given(data=st.data())
def test_a_mutated_journal_is_corrupt_or_replays(journal_frames, scratch, data):
    _, frames = journal_frames
    index = data.draw(st.integers(0, len(frames) - 1))
    encoded = [json.dumps(f).encode() for f in frames]
    encoded[index] = json.dumps(data.draw(json_mutants(frames[index]))).encode()
    path = scratch / "mutant.journal"
    path.write_bytes(b"GEMJ" + b"".join(struct.pack(">I", len(f)) + f for f in encoded))
    replays = _decodes(lambda: replay(read_journal(path)), CorruptJournalError)
    code = main(["audit", "--journal", str(path)])
    assert code in ((0, 1) if replays else (1,))


@pytest.mark.parametrize("op", ["drop", "add", "swap", "outcome"])
@settings(FUZZ, max_examples=10)
@given(data=st.data())
def test_a_mutated_record_frame_is_refused_when_read(journal_frames, scratch, op, data):
    _, frames = journal_frames
    index = data.draw(st.integers(1, len(frames) - 1))
    record = dict(frames[index])
    key = data.draw(st.sampled_from(sorted(record)))
    if op == "drop":
        del record[key]
    elif op == "add":
        record[key + "_"] = record[key]
    elif op == "swap":
        record[key] = data.draw(st.sampled_from([v for v in SWAPS if type(v) is not type(record[key])]))
    else:
        record["outcome"] = data.draw(st.sampled_from(["bogus", "Committed", "", "aborted "]))
    encoded = [json.dumps(f).encode() for f in frames[:index]] + [json.dumps(record).encode()]
    path = scratch / "record.journal"
    path.write_bytes(b"GEMJ" + b"".join(struct.pack(">I", len(f)) + f for f in encoded))
    try:
        read_journal(path)
    except CorruptJournalError:
        return
    # only the reason may be either a string or null
    assert op == "swap" and key == "reason" and type(record["reason"]) in (str, type(None)), record


@FUZZ
@given(data=st.data())
def test_a_flipped_journal_byte_is_corrupt_or_replays(journal_frames, scratch, data):
    source, _ = journal_frames
    raw = bytearray(source.read_bytes())
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    path = scratch / "flipped.journal"
    path.write_bytes(bytes(raw))
    assert main(["audit", "--journal", str(path)]) in (0, 1)


@pytest.fixture(scope="module")
def snapshot_payload(journal_frames, tmp_path_factory):
    """The one frame of a snapshot of the deadline workload's final state (a
    journal with no records, whose genesis is that state), decoded."""
    source, _ = journal_frames
    path = tmp_path_factory.mktemp("snapshot") / "deadline.snap"
    snapshot_from_journal(source, path)
    return json.loads(path.read_bytes()[8:])


@FUZZ
@given(data=st.data())
def test_a_mutated_snapshot_is_corrupt_or_restores(snapshot_payload, scratch, data):
    frame = json.dumps(data.draw(json_mutants(snapshot_payload))).encode()
    path = scratch / "mutant.snap"
    path.write_bytes(b"GEMJ" + struct.pack(">I", len(frame)) + frame)
    restores = _decodes(lambda: replay(read_journal(path)), CorruptJournalError)
    assert main(["restore", "--in", str(path)]) == (0 if restores else 1)


WORKLOAD_LINES = [
    {"op": "ingest", "hint": "t", "text": "plan deadline", "source": "s",
     "facts": [{"field": "Deadline", "value": "May", "entity_tag": "p", "excerpt": "e"}]},
    {"op": "query", "text": "plan deadline", "expected": {"field": "Deadline", "value": "May"}},
    {"op": "query", "mode": "historical", "text": "deadline", "as_of": 1},
    {"op": "query", "mode": "structural", "root": "t", "depth": 3},
    {"op": "query", "mode": "explicit", "explicit": ["t", "Deadline"]},
    {"op": "tick", "count": 2},
    {"op": "revise"},
    {"op": "forget"},
    {"op": "assert", "check": "current_value_equals", "topic": "t", "field": "Deadline", "value": "May"},
    {"op": "assert", "check": "footprint_le", "bound": 3},
    {"op": "assert", "check": "field_tier", "topic": "t", "field": "Deadline", "tier": "Active"},
    {"op": "assert", "check": "topic_archived", "topic": "t", "value": False},
]


def test_workload_lines_cover_every_assert_check():
    assert {line.get("check") for line in WORKLOAD_LINES} - {None} == set(ASSERT_CHECKS)


@FUZZ
@given(data=st.data())
def test_a_mutated_workload_line_is_refused_or_runs(scratch, data):
    line = data.draw(st.sampled_from(WORKLOAD_LINES))
    text = json.dumps(WORKLOAD_LINES[0]) + "\n" + json.dumps(data.draw(json_mutants(line))) + "\n"
    path = scratch / "mutant.workload"
    path.write_text(text, encoding="utf-8")
    parses = _decodes(lambda: parse_workload(text), WorkloadError)
    code = main(["replay", "--workload", str(path)])
    assert code in ((0, 1) if parses else (2,))


@FUZZ
@given(data=st.data())
def test_a_mutated_probe_is_refused_or_audits(journal_frames, scratch, data):
    journal, _ = journal_frames
    line = data.draw(st.sampled_from([line for line in WORKLOAD_LINES if line["op"] == "query"]))
    probe = {k: v for k, v in line.items() if k not in ("op", "expected")}
    path = scratch / "mutant.probes"
    path.write_text(json.dumps(data.draw(json_mutants(probe))) + "\n", encoding="utf-8")
    loads = _decodes(lambda: _load_probes(str(path)), WorkloadError)
    code = main(["audit", "--journal", str(journal), "--probes", str(path)])
    assert code in ((0, 1) if loads else (2,))


def _replay_with_config(scratch, config) -> int:
    path = scratch / "mutant-config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    workload = scratch / "small.workload"
    workload.write_text("\n".join(json.dumps(line) for line in WORKLOAD_LINES) + "\n", encoding="utf-8")
    return main(["replay", "--workload", str(workload), "--config", str(path)])


@FUZZ
@given(config=json_mutants(EngineConfig().to_dict()))
def test_a_mutated_config_is_refused_or_runs(scratch, config):
    decodes = _decodes(lambda: EngineConfig.from_dict(config), ValueError)
    # a decoded config may still name a file that does not exist (exit 2)
    assert _replay_with_config(scratch, config) in ((0, 1, 2) if decodes else (2,))


POLICY_TEXT = DEFAULT_POLICY_TEXT + """
POLICY guard ON pre_commit WHEN NOT (salience(t) < 0.5 AND topic_archived(t)) OR field == Deadline DO noop
POLICY calm ON field_updated WHEN salience(updated_field) < 9 DO attenuate(updated_topic)
POLICY park ON retrieval_performed WHEN EXISTS accessed_topic DO archive(t)
POLICY nudge ON tick WHEN active_footprint > 2 DO flag_for_revision(t)
"""


@FUZZ
@given(text=text_mutants(POLICY_TEXT))
def test_a_mutated_policy_text_is_refused_or_round_trips_and_runs(scratch, text):
    try:
        policies = parse_policies(text)
    except PolicyParseError:
        policies = None
    for p in policies or ():
        assert parse_policy(render_policy(p)) == p
    path = scratch / "mutant.gem"
    path.write_text(text, encoding="utf-8")
    code = _replay_with_config(scratch, {"policy_paths": [str(path)]})
    assert code in ((0, 1) if policies is not None else (2,))


RULE_TEXT = "# rules\nt.Deadline -> u.Status : shift-annotation\nt.Owner -> u.Draft : shift-annotation\n"


@FUZZ
@given(text=text_mutants(RULE_TEXT))
def test_a_mutated_rule_text_is_refused_or_runs(scratch, text):
    parses = _decodes(lambda: RuleTable.parse(text), ValueError)
    path = scratch / "mutant.rules"
    path.write_text(text, encoding="utf-8")
    assert _replay_with_config(scratch, {"rule_path": str(path)}) in ((0, 1) if parses else (2,))
