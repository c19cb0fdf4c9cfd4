import os
import resource
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from gemstore import storage
from gemstore.config import EngineConfig
from gemstore.engine import CorruptJournalError, Engine, EngineEvent, Journal, replay
from gemstore.model import canonical_json, state_bytes, state_digest, state_to_dict
from gemstore.operators import Fact, FactBundle, Query
from gemstore.storage import read_journal, snapshot_from_journal, write_journal


def sample_engine():
    e = Engine()
    e.submit(EngineEvent.ingest(FactBundle((Fact("Deadline", "March 15"),), "website deadline", topic_hint="web")))
    e.submit(EngineEvent.retrieve(Query(text="website deadline")))
    e.submit(EngineEvent.tick())
    e.submit(EngineEvent.ingest(FactBundle((Fact("Deadline", "April 20"),), "moved", topic_hint="web")))
    return e


def test_journal_round_trip_is_byte_identical(tmp_path):
    e = sample_engine()
    p1, p2 = tmp_path / "a.journal", tmp_path / "b.journal"
    write_journal(p1, e.journal)
    loaded = read_journal(p1)
    write_journal(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert state_digest(replay(loaded)) == e.digest()


def test_truncated_journal_is_detected(tmp_path):
    e = sample_engine()
    path = tmp_path / "x.journal"
    write_journal(path, e.journal)
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(CorruptJournalError, match="truncated"):
        read_journal(path)


def test_bitflip_in_journal_payload_is_detected(tmp_path):
    e = sample_engine()
    path = tmp_path / "x.journal"
    write_journal(path, e.journal)
    data = bytearray(path.read_bytes())
    # corrupt a byte inside the delta payload (deltas sort before input in
    # the canonical record JSON, so the first occurrence is the delta's)
    idx = bytes(data).index(b"April 20")
    data[idx] = ord("X")
    path.write_bytes(bytes(data))
    journal = read_journal(path)
    with pytest.raises(CorruptJournalError, match="digest mismatch"):
        replay(journal)


# the magic of the separate snapshot format that a snapshot no longer has
RETIRED_MAGIC = bytes.fromhex("47454d53")


@pytest.mark.parametrize("magic", [b"NOPE", RETIRED_MAGIC])
def test_wrong_magic_rejected(tmp_path, magic):
    path = tmp_path / "x.journal"
    path.write_bytes(magic + b"\x00" * 16)
    with pytest.raises(CorruptJournalError, match="not a journal"):
        read_journal(path)


def snapshot(tmp_path, e: Engine):
    """A snapshot of the engine's state: a journal with no records."""
    jpath, spath = tmp_path / "x.journal", tmp_path / "x.snap"
    write_journal(jpath, e.journal)
    assert snapshot_from_journal(jpath, spath) == e.digest()
    return spath


def test_snapshot_round_trip(tmp_path):
    e = sample_engine()
    path = snapshot(tmp_path, e)
    journal = read_journal(path)
    assert journal.records == []
    assert state_digest(replay(journal)) == e.digest()
    assert canonical_json(journal.config.to_dict()) == canonical_json(e.config.to_dict())
    again = tmp_path / "again.snap"
    write_journal(again, journal)
    assert again.read_bytes() == path.read_bytes()


def test_snapshot_digest_mismatch_detected(tmp_path):
    e = sample_engine()
    path = snapshot(tmp_path, e)
    data = bytearray(path.read_bytes())
    idx = bytes(data).rindex(b"April 20")
    data[idx] = ord("X")
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptJournalError, match="genesis digest mismatch"):
        replay(read_journal(path))


def test_snapshot_from_journal_matches_live_state(tmp_path):
    e = sample_engine()
    path = snapshot(tmp_path, e)
    assert canonical_json(read_journal(path).genesis) == canonical_json(state_to_dict(e.state))
    # byte for byte the journal of an engine started from that state
    fresh = tmp_path / "fresh.journal"
    write_journal(fresh, Engine(config=e.config, genesis=e.state).journal)
    assert path.read_bytes() == fresh.read_bytes()


def test_resume_from_snapshot_continues_deterministically(tmp_path):
    e = sample_engine()
    journal = read_journal(snapshot(tmp_path, e))

    resumed = Engine(config=journal.config, genesis=replay(journal))
    e.submit(EngineEvent.tick())
    resumed.submit(EngineEvent.tick())
    assert resumed.digest() == e.digest()


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
def test_older_journal_and_snapshot_versions_are_refused(tmp_path, monkeypatch, version):
    e = sample_engine()
    jpath, spath = tmp_path / "old.journal", tmp_path / "old.snap"
    monkeypatch.setattr(storage, "FORMAT_VERSION", version)
    write_journal(jpath, e.journal)
    write_journal(spath, Journal(e.config, state_to_dict(e.state), e.digest()))
    monkeypatch.undo()
    for path in (jpath, spath):
        with pytest.raises(CorruptJournalError, match=f"unsupported journal version: {version}"):
            read_journal(path)


def _write_frames(path, header: dict, frames=()) -> None:
    """A journal of the given header object and record payloads."""
    payloads = [canonical_json(header).encode(), *frames]
    path.write_bytes(storage.JOURNAL_MAGIC + b"".join(struct.pack(">I", len(p)) + p for p in payloads))


def _header(journal: Journal) -> dict:
    return {"version": storage.FORMAT_VERSION, "config": journal.config.to_dict(), "genesis": journal.genesis,
            "genesis_digest": journal.genesis_digest}


@pytest.mark.parametrize("config", [
    EngineConfig(),
    EngineConfig(rule_path="regeln/Fristen-ü✓.rules", policy_paths=["politik/λ.policy", "p/\ud800\U0001f600"]),
])
def test_the_spliced_header_equals_canonical_json_of_the_header_object(config):
    e = sample_engine()
    e.submit(EngineEvent.ingest(FactBundle((Fact("Frist", "15. März – \ud800"),), "Frist", topic_hint="web")))
    for journal in (Journal.of_state(config, e.state), Journal(config, state_to_dict(e.state), e.digest())):
        assert storage.header_bytes(journal) == canonical_json(_header(journal)).encode()


def test_a_journal_of_bytes_and_one_of_the_decoded_object_give_equal_genesis_forms():
    e = sample_engine()
    of_bytes = Journal.of_state(e.config, e.state)
    of_object = Journal(e.config, state_to_dict(e.state), e.digest())
    assert of_bytes.genesis_digest == of_object.genesis_digest == e.digest()
    assert of_bytes.genesis == of_object.genesis
    assert of_bytes.genesis_bytes == of_object.genesis_bytes == state_bytes(e.state)
    # each form is derived once, on its first use
    assert of_bytes.genesis is of_bytes.genesis and of_object.genesis_bytes is of_object.genesis_bytes


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(note="x"), "journal header has an unknown key 'note'"),
    (lambda h: h.update(genesis_digest=5), "journal header genesis_digest must be str, got 5"),
    (lambda h: h.pop("genesis"), "KeyError('genesis')"),
    (lambda h: h.update(config=[]), "journal header config must be dict, got []"),
], ids=["unknown-key", "digest-not-a-string", "no-genesis", "config-not-an-object"])
def test_a_header_with_a_wrong_key_or_type_is_malformed(tmp_path, edit, message):
    header = _header(sample_engine().journal)
    edit(header)
    path = tmp_path / "x.journal"
    _write_frames(path, header)
    with pytest.raises(CorruptJournalError) as info:
        read_journal(path)
    assert str(info.value).startswith("malformed journal header: ") and message in str(info.value)


@pytest.mark.parametrize("version", [6, "7", None])
def test_a_header_of_another_version_is_refused_before_it_is_decoded(tmp_path, version):
    header = {**_header(sample_engine().journal), "version": version, "note": "x"}
    path = tmp_path / "x.journal"
    _write_frames(path, header)
    with pytest.raises(CorruptJournalError, match=f"^unsupported journal version: {version}$"):
        read_journal(path)


class _SizedReads:
    """A file that records the size of each read and refuses one of more
    bytes than the file holds, which would allocate that many."""

    def __init__(self, fh, sizes):
        self._fh, self._sizes = fh, sizes

    def read(self, n=-1):
        self._sizes.append(n)
        assert n <= os.fstat(self._fh.fileno()).st_size, f"read of {n} bytes"
        return self._fh.read(n)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_a_frame_longer_than_the_bytes_left_is_refused_before_it_is_read(tmp_path, monkeypatch):
    path = tmp_path / "x.journal"
    write_journal(path, sample_engine().journal)
    path.write_bytes(path.read_bytes() + struct.pack(">I", 4_000_000_000) + b"{}")
    sizes = []
    monkeypatch.setattr(storage, "open", lambda *args: _SizedReads(open(*args), sizes), raising=False)
    with pytest.raises(CorruptJournalError, match="^truncated frame payload$"):
        read_journal(path)
    assert sizes and max(sizes) <= path.stat().st_size


def test_reading_a_journal_costs_one_fstat_however_many_frames(tmp_path, monkeypatch):
    path = tmp_path / "x.journal"
    journal = sample_engine().journal
    write_journal(path, journal)
    stats = []
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: stats.append(fd) or real_fstat(fd))
    assert len(read_journal(path).records) == len(journal.records) > 1
    assert len(stats) == 1


def test_a_journal_is_read_from_a_pipe(tmp_path):
    journal = sample_engine().journal
    path, fifo = tmp_path / "x.journal", tmp_path / "x.fifo"
    write_journal(path, journal)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        read = read_journal(fifo)
    finally:
        writer.join()
    assert read.records == journal.records and read.genesis_bytes == journal.genesis_bytes


def test_audit_of_a_frame_claiming_4_gb_is_corrupt_input_under_a_1_gib_address_space(tmp_path):
    path = tmp_path / "x.journal"
    write_journal(path, sample_engine().journal)
    path.write_bytes(path.read_bytes() + struct.pack(">I", 4_000_000_000) + b"{}")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = subprocess.run(
        [sys.executable, "-m", "gemstore.cli", "audit", "--journal", str(path)],
        env=dict(os.environ, PYTHONPATH=str(Path(storage.__file__).parent.parent)),
        preexec_fn=limit, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stderr) == (1, "corrupt input: truncated frame payload\n")
