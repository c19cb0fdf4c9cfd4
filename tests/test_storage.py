import pytest

from gemstore import storage
from gemstore.engine import CorruptJournalError, Engine, EngineEvent, Journal, replay
from gemstore.model import canonical_json, state_digest, state_to_dict
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
