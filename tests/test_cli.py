import json
import struct
from pathlib import Path

import pytest

from conftest import build_state, build_topic
from test_storage import RETIRED_MAGIC
from test_workload import DEADLINE_CSV
from gemstore import cli
from gemstore.cli import main
from gemstore.config import EngineConfig
from gemstore.engine import Engine, EngineEvent, Journal
from gemstore.model import Edge, EdgeKind, state_digest, state_to_dict
from gemstore.operators import Fact, FactBundle, Query
from gemstore.storage import write_journal

WORKLOADS = Path(__file__).resolve().parent.parent / "workloads"
DEADLINE = str(WORKLOADS / "deadline.workload")
PROBES = str(WORKLOADS / "deadline.probes")
CONFIG = str(WORKLOADS / "default-config.json")


def test_replay_writes_journal_and_reports_digest(tmp_path, capsys):
    journal = tmp_path / "deadline.journal"
    code = main(["replay", "--workload", DEADLINE, "--config", CONFIG, "--journal-out", str(journal)])
    out = capsys.readouterr().out
    assert code == 0
    assert journal.exists()
    assert "final digest:" in out
    assert "assert failed" not in out


def test_audit_passes_on_engine_journal(tmp_path, capsys):
    journal = tmp_path / "deadline.journal"
    assert main(["replay", "--workload", DEADLINE, "--journal-out", str(journal)]) == 0
    capsys.readouterr()
    code = main(["audit", "--journal", str(journal), "--probes", PROBES])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS C1-C6")


def test_audit_fails_on_corrupt_journal(tmp_path, capsys):
    journal = tmp_path / "deadline.journal"
    assert main(["replay", "--workload", DEADLINE, "--journal-out", str(journal)]) == 0
    data = journal.read_bytes()
    journal.write_bytes(data[:-9])
    assert main(["audit", "--journal", str(journal)]) == 1


def test_compare_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code = main(["compare", "--workload", DEADLINE, "--csv-out", str(csv_path)])
    assert code == 0
    assert csv_path.read_text(encoding="utf-8") == DEADLINE_CSV


def test_snapshot_and_restore_round_trip(tmp_path, capsys):
    journal = tmp_path / "deadline.journal"
    snap = tmp_path / "deadline.snap"
    assert main(["replay", "--workload", DEADLINE, "--journal-out", str(journal)]) == 0
    replay_out = capsys.readouterr().out
    digest = [l.split(": ")[1] for l in replay_out.splitlines() if l.startswith("final digest")][0]

    assert main(["snapshot", "--journal", str(journal), "--out", str(snap)]) == 0
    snap_out = capsys.readouterr().out
    assert digest in snap_out

    # a snapshot is a journal with no records: it audits, and restores to
    # the state its journal replays to
    assert main(["audit", "--journal", str(snap)]) == 0
    assert capsys.readouterr().out.startswith("PASS C1-C6")
    assert main(["restore", "--in", str(snap)]) == 0
    restore_out = capsys.readouterr().out
    assert f"digest: {digest}" in restore_out.splitlines()
    assert main(["restore", "--in", str(journal)]) == 0
    assert capsys.readouterr().out == restore_out

    snap.write_bytes(RETIRED_MAGIC + snap.read_bytes()[4:])
    assert main(["restore", "--in", str(snap)]) == 1
    assert capsys.readouterr().err == "corrupt input: not a journal file\n"


def test_missing_file_is_a_usage_error(capsys):
    assert main(["replay", "--workload", "/does/not/exist"]) == 2
    assert main(["audit"]) == 2  # missing required argument


def _frames(data: bytes) -> list[bytes]:
    """The length-prefixed frames after a journal's magic."""
    frames, pos = [], 4
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        frames.append(data[pos + 4 : pos + 4 + length])
        pos += 4 + length
    return frames


def _edit_first_delta(frames: list[bytes], kind: str, edit) -> list[bytes]:
    """Apply `edit` to the first delta of `kind` in any record."""
    for i, frame in enumerate(frames[1:], 1):
        record = json.loads(frame)
        for delta in record["deltas"]:
            if delta["kind"] == kind:
                edit(delta)
                frames[i] = json.dumps(record).encode()
                return frames
    raise AssertionError(f"no {kind} delta in the journal")


def _edit_header(frames: list[bytes], edit) -> list[bytes]:
    header = json.loads(frames[0])
    edit(header)
    return [json.dumps(header).encode(), *frames[1:]]


def _edit_header_config(frames: list[bytes], edit) -> list[bytes]:
    return _edit_header(frames, lambda header: edit(header["config"]))


def _edit_first_query(frames: list[bytes], edit) -> list[bytes]:
    """Apply `edit` to the query of the first retrieve record."""
    for i, frame in enumerate(frames[1:], 1):
        record = json.loads(frame)
        if record["input"]["query"] is not None:
            edit(record["input"]["query"])
            frames[i] = json.dumps(record).encode()
            return frames
    raise AssertionError("no retrieve in the journal")


def _edit_first_bundle(frames: list[bytes], edit) -> list[bytes]:
    """Apply `edit` to the fact bundle of the first ingest record."""
    for i, frame in enumerate(frames[1:], 1):
        record = json.loads(frame)
        if record["input"]["bundle"] is not None:
            edit(record["input"]["bundle"])
            frames[i] = json.dumps(record).encode()
            return frames
    raise AssertionError("no ingest in the journal")


def _flag_one_topic_twice(frames, causes):
    """Add one flag_added delta per cause, all for the topic the first record
    creates; two pairs of the revision queue are then compared when sorted."""
    record = json.loads(frames[1])
    topic = record["deltas"][0]["id"]
    record["deltas"] += [{"kind": "flag_added", "topic": topic, "cause": cause} for cause in causes]
    return [frames[0], json.dumps(record).encode(), *frames[2:]]


def _drop_deltas(frames):
    record = json.loads(frames[1])
    del record["deltas"]
    return [frames[0], json.dumps(record).encode(), *frames[2:]]


JOURNAL_MUTANTS = {
    "record-without-deltas": _drop_deltas,
    "record-is-an-array": lambda frames: [frames[0], b"[1,2]", *frames[2:]],
    "header-is-an-array": lambda frames: [b"[]", *frames[1:]],
    "record-is-not-json": lambda frames: [frames[0], b"not json", *frames[2:]],
    "unknown-delta-kind": lambda frames: _edit_first_delta(
        frames, "entry_appended", lambda d: (d.clear(), d.update(kind="bogus"))),
    "entry-for-unknown-topic": lambda frames: _edit_first_delta(
        frames, "entry_appended", lambda d: d.update(topic="no-such-topic")),
    # every salience read takes the factor from the journalled config
    "decay-factor-not-a-number": lambda frames: _edit_header_config(
        frames, lambda config: config["salience"].update(decay="0.9")),
    "tick-delta-without-kind": lambda frames: _edit_first_delta(
        frames, "epoch_advanced", lambda d: d.pop("kind")),
    "query-depth-not-an-integer": lambda frames: _edit_first_query(
        frames, lambda q: q.update(depth="2")),
    "config-unknown-key": lambda frames: _edit_header_config(frames, lambda config: config.update(bogus=1)),
    "header-unknown-key": lambda frames: _edit_header(frames, lambda header: header.update(note="x")),
    "fact-value-not-a-string": lambda frames: _edit_first_bundle(
        frames, lambda b: b["facts"][0].update(value=5)),
    "delta-with-an-extra-operand": lambda frames: _edit_first_delta(
        frames, "entry_appended", lambda d: d.update(extra=1)),
    "entry-superseded-index-negative": lambda frames: _edit_first_delta(
        frames, "entry_superseded", lambda d: d.update(index=-100)),
    "flag-cause-not-a-string": lambda frames: _flag_one_topic_twice(frames, ["x", 5]),
}


def _assert_mutant_is_corrupt(journal, mutate, capsys):
    data = journal.read_bytes()
    frames = mutate(_frames(data))
    journal.write_bytes(data[:4] + b"".join(struct.pack(">I", len(f)) + f for f in frames))
    capsys.readouterr()
    assert main(["audit", "--journal", str(journal)]) == 1
    err = capsys.readouterr().err
    assert "corrupt input:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mutant", sorted(JOURNAL_MUTANTS))
def test_audit_reports_a_malformed_journal_as_corrupt(tmp_path, capsys, mutant):
    journal = tmp_path / "deadline.journal"
    assert main(["replay", "--workload", DEADLINE, "--journal-out", str(journal)]) == 0
    _assert_mutant_is_corrupt(journal, JOURNAL_MUTANTS[mutant], capsys)


def _edit_first_revise(frames: list[bytes], edit) -> list[bytes]:
    """Apply `edit` to the first committed revise record."""
    for i, frame in enumerate(frames[1:], 1):
        record = json.loads(frame)
        if record["operator"] == "revise" and record["outcome"] == "committed":
            edit(record)
            frames[i] = json.dumps(record).encode()
            return frames
    raise AssertionError("no committed revise in the journal")


# mutants of a journal in which a retrieve first drains a dependency revise
EXTENSION_MUTANTS = {
    "evidence-topic-not-a-string": lambda frames: _edit_first_revise(
        frames, lambda r: r["input"]["evidence"][0].update(topic=[])),
    "input-kind-differs-from-operator": lambda frames: _edit_first_revise(
        frames, lambda r: r["input"].update(kind="ingest")),
    "input-with-an-unknown-key": lambda frames: _edit_first_revise(
        frames, lambda r: r["input"].update(trgt="plan")),
}


@pytest.mark.parametrize("mutant", sorted(EXTENSION_MUTANTS))
def test_audit_reports_a_malformed_revise_as_corrupt(tmp_path, capsys, mutant):
    genesis = build_state(
        [build_topic("plan", fields={"Deadline": "March 15"}), build_topic("checklist", fields={"Status": "ok"})],
        edges=[("plan", "checklist", "Extension")],
    )
    engine = Engine(genesis=genesis)
    engine.submit(EngineEvent.ingest(FactBundle((Fact("Deadline", "April 20"),), "moved", topic_hint="plan")))
    engine.submit(EngineEvent.retrieve(Query(text="checklist status")))
    assert [(r.operator, r.committed) for r in engine.journal.records] == [
        ("ingest", True), ("revise", True), ("retrieve", True)
    ]
    journal = tmp_path / "extension.journal"
    write_journal(journal, engine.journal)
    assert main(["audit", "--journal", str(journal)]) == 0
    _assert_mutant_is_corrupt(journal, EXTENSION_MUTANTS[mutant], capsys)


def _set_title(state):
    state.topics["a"].title = 5


def _set_archived(state):
    state.topics["a"].archived = "yes"


def _set_edge_created_at(state):
    state.edges = {("a", "b", "Extension"): Edge("a", "b", EdgeKind.EXTENSION, "x")}


def _rekey_topic(state):
    state.topics["z"] = state.topics.pop("c")


def _rekey_field(state):
    state.topics["a"].fields["Other"] = state.topics["a"].fields.pop("Note")


def _flag_ghost(state):
    state.revision_queue.add(("ghost", "a.Note"))


GENESIS_MUTANTS = [_set_title, _set_archived, _set_edge_created_at, _rekey_topic, _rekey_field, _flag_ghost]


@pytest.mark.parametrize("mutate", GENESIS_MUTANTS, ids=lambda f: f.__name__.lstrip("_"))
def test_a_malformed_genesis_or_snapshot_topic_or_edge_is_corrupt(tmp_path, capsys, mutate):
    state = build_state(
        [build_topic("a", fields={"Note": "x"}), build_topic("b"), build_topic("c")],
        edges=[("a", "b", "Extension")],
    )
    mutate(state)
    journal = tmp_path / "genesis.journal"  # with no records, it is also a snapshot
    write_journal(journal, Journal(EngineConfig(), state_to_dict(state), state_digest(state)))
    capsys.readouterr()
    assert main(["audit", "--journal", str(journal)]) == 1
    assert main(["restore", "--in", str(journal)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ", 2)[:2] for line in err] == [["corrupt input", "malformed genesis"]] * 2


def test_a_genesis_topic_without_merged_into_is_corrupt(tmp_path, capsys):
    state = build_state([build_topic("a")])
    genesis = state_to_dict(state)
    del genesis["topics"]["a"]["merged_into"]
    journal = tmp_path / "genesis.journal"
    write_journal(journal, Journal(EngineConfig(), genesis, state_digest(state)))
    assert main(["audit", "--journal", str(journal)]) == 1
    assert "corrupt input: malformed genesis: KeyError('merged_into')" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"salience": {"decay": "0.9"}},
        {"tau_topic": "x"},
        {"n_promote": "x"},
        {"bogus": 1},
        {"salience": {"bogus": 1}},
        {"salience": {"delta_access": -2.0}},
        # json reads NaN and Infinity, which no footprint bound can be
        {"beta": {"per_tick": float("nan")}},
        {"beta": {"per_tick": float("inf")}},
        # a negative slope takes beta below the footprint, after which nothing commits
        {"beta": {"per_tick": -1.0}},
        {"tau_topic": 2.0},
        {"k_topics": 0},
        [1],
    ],
)
def test_replay_reports_a_malformed_config_as_a_usage_error(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["replay", "--workload", DEADLINE, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "line",
    [
        '{"op": "assert", "check": "current_value_equals"}',
        '{"op": "assert", "check": "footprint_le", "bound": "x"}',
    ],
)
def test_replay_reports_a_malformed_assert_as_a_usage_error(tmp_path, capsys, line):
    workload = tmp_path / "bad.workload"
    workload.write_text('{"op": "tick"}\n' + line + "\n", encoding="utf-8")
    assert main(["replay", "--workload", str(workload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: assert ")
    assert "Traceback" not in err


def test_gem_config_names_the_config_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    policies, rules = tmp_path / "bad.gem", tmp_path / "bad.rules"
    policies.write_text("POLICY p ON bogus WHEN stale_current_exists DO noop", encoding="utf-8")
    rules.write_text("not a rule", encoding="utf-8")
    monkeypatch.setenv("GEM_CONFIG", str(path))
    # each error names the file it is in: the config, or a file the config names
    cases = [
        ('{"bogus": 1}', path, "unexpected keyword argument 'bogus'"),
        ('{"tau_topic": 2.0}', path, "router thresholds must lie in [0, 1]"),
        (json.dumps({"policy_paths": [str(policies)]}), policies, "unknown event 'bogus' (line 1, column 13)"),
        (json.dumps({"rule_path": str(rules)}), rules, "bad dependency rule on line 1"),
    ]
    for text, named, message in cases:
        path.write_text(text, encoding="utf-8")
        assert main(["compare", "--workload", DEADLINE]) == 2
        err = capsys.readouterr().err
        assert f"{named}" in err and message in err, err
    path.write_text(Path(CONFIG).read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["replay", "--workload", DEADLINE]) == 0


@pytest.mark.parametrize(
    "line", ["[1]", '{"text": "a", "explicit": 5}', "not json", '{"text": "a", "mdoe": "explicit"}']
)
def test_audit_reports_a_malformed_probe_with_its_line(tmp_path, capsys, line):
    journal = tmp_path / "deadline.journal"
    assert main(["replay", "--workload", DEADLINE, "--journal-out", str(journal)]) == 0
    probes = tmp_path / "bad.probes"
    probes.write_text('# a comment\n{"text": "website redesign deadline"}\n' + line + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["audit", "--journal", str(journal), "--probes", str(probes)]) == 2
    assert "probes line 3" in capsys.readouterr().err


def test_a_dangling_genesis_or_snapshot_edge_is_corrupt(tmp_path, capsys):
    state = build_state([build_topic("a")], edges=[("a", "ghost", "Association")])
    journal = tmp_path / "dangling.journal"  # with no records, it is also a snapshot
    write_journal(journal, Journal(EngineConfig(), state_to_dict(state), state_digest(state)))
    capsys.readouterr()
    assert main(["audit", "--journal", str(journal)]) == 1
    assert main(["restore", "--in", str(journal)]) == 1
    err = capsys.readouterr().err
    assert err.count("edge endpoint missing: a -> ghost") == 2
    assert "Traceback" not in err


def test_a_committed_record_whose_outcome_is_bogus_is_corrupt(tmp_path, capsys):
    journal = tmp_path / "deadline.journal"
    assert main(["replay", "--workload", DEADLINE, "--journal-out", str(journal)]) == 0
    data = journal.read_bytes()
    frames = _frames(data)
    last = max(i for i, frame in enumerate(frames[1:], 1) if json.loads(frame)["outcome"] == "committed")
    record = json.loads(frames[last])
    record["outcome"] = "bogus"
    frames[last] = json.dumps(record).encode()
    journal.write_bytes(data[:4] + b"".join(struct.pack(">I", len(f)) + f for f in frames))
    capsys.readouterr()
    assert main(["audit", "--journal", str(journal)]) == 1
    assert f"corrupt input: malformed record {last}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, key, message",
    [
        ("c.json", "{not json", None, "error: config {path}: "),
        ("p.gem", "POLICY p ON field_updated WHEN EXISTS updated_topic DO archive", "policy_paths",
         "error: {path}: expected '(', got 'end of input' (line 1, column 63)"),
        ("r.rules", "t.A -> u.B : no-such-transform", "rule_path", "error: {path}: unknown transform on line 1"),
    ],
)
def test_a_malformed_config_policy_or_rule_file_is_a_usage_error(tmp_path, capsys, name, text, key, message):
    path = config = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if key is not None:  # a config that names the file
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: [str(path)] if key == "policy_paths" else str(path)}), encoding="utf-8")
    assert main(["replay", "--workload", DEADLINE, "--config", str(config)]) == 2
    assert message.format(path=path) in capsys.readouterr().err


def test_a_workload_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    workload = tmp_path / "bad.workload"
    workload.write_bytes(b'{"op": "tick"}\n\xff\n')
    assert main(["replay", "--workload", str(workload)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("capacity", ["-1", "x"])
def test_a_compare_capacity_must_be_a_non_negative_integer(capsys, capacity):
    assert main(["compare", "--workload", DEADLINE, "--capacity", capacity]) == 2
    assert "capacity must be a non-negative integer" in capsys.readouterr().err


def test_an_internal_value_error_is_not_reported_as_a_usage_error(monkeypatch, capsys):
    def fault(engine, events):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "run_workload", fault)
    with pytest.raises(ValueError, match="an internal fault"):
        main(["replay", "--workload", DEADLINE])
    assert "error:" not in capsys.readouterr().err
