"""On-disk format: length-prefixed journal files.

A snapshot is a journal with no records whose genesis is another journal's
final state.  The version header and content digests make truncation or
bit-rot surface as a corruption error instead of silent divergence.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from .config import EngineConfig
from .engine import CorruptJournalError, Journal, TransitionRecord, replay
from .model import canonical_json, decoding, state_digest, state_to_dict

JOURNAL_MAGIC = b"GEMJ"
# 2: one SHA-256 per topic in the digest; 3: embeddings derived, not stored;
# 4: ticks are plain integers; 5: a field stores its salience with the decay
# epoch it was set at, the state counts epochs, and a tick journals one
# epoch_advanced delta in place of decaying every field; 6: a delta journals
# only what its operator chose: an access is one unit_accessed, a supersede
# names an entry by index, a compression its count, and a new field no tier;
# 7: an appended entry, a new field and an access journal no tick, which is
# the base state's clock plus one: an entry_appended delta carries only the
# entry's value and provenance
FORMAT_VERSION = 7


def _write_frame(fh, payload: bytes) -> None:
    fh.write(struct.pack(">I", len(payload)))
    fh.write(payload)


def _read_frame(fh) -> bytes:
    header = fh.read(4)
    if len(header) != 4:
        raise CorruptJournalError("truncated frame header")
    (length,) = struct.unpack(">I", header)
    payload = fh.read(length)
    if len(payload) != length:
        raise CorruptJournalError("truncated frame payload")
    return payload


def _read_object(fh) -> dict:
    """One frame that holds a JSON object."""
    payload = _read_frame(fh)
    with decoding(CorruptJournalError, "frame is not JSON"):
        obj = json.loads(payload)
    if not isinstance(obj, dict):
        raise CorruptJournalError("frame is not a JSON object")
    return obj


def write_journal(path: str | Path, journal: Journal) -> None:
    with open(path, "wb") as fh:
        fh.write(JOURNAL_MAGIC)
        header = {
            "version": FORMAT_VERSION,
            "config": journal.config.to_dict(),
            "genesis": journal.genesis,
            "genesis_digest": journal.genesis_digest,
        }
        _write_frame(fh, canonical_json(header).encode("utf-8"))
        for record in journal.records:
            _write_frame(fh, canonical_json(record.to_dict()).encode("utf-8"))


def read_journal(path: str | Path) -> Journal:
    with open(path, "rb") as fh:
        if fh.read(4) != JOURNAL_MAGIC:
            raise CorruptJournalError("not a journal file")
        header = _read_object(fh)
        if header.get("version") != FORMAT_VERSION:
            raise CorruptJournalError(f"unsupported journal version: {header.get('version')}")
        with decoding(CorruptJournalError, "malformed journal header"):
            journal = Journal(
                config=EngineConfig.from_dict(header["config"]),
                genesis=header["genesis"],
                genesis_digest=header["genesis_digest"],
            )
        while fh.peek(1):  # a clean end of file ends the records
            obj = _read_object(fh)
            with decoding(CorruptJournalError, f"malformed record {len(journal.records) + 1}"):
                journal.records.append(TransitionRecord.from_dict(obj))
    return journal


def snapshot_from_journal(journal_path: str | Path, snapshot_path: str | Path) -> str:
    """Write the final state of a journal as a journal with no records whose
    genesis is that state, and return its digest."""
    journal = read_journal(journal_path)
    state = replay(journal)
    digest = state_digest(state)
    write_journal(snapshot_path, Journal(journal.config, state_to_dict(state), digest))
    return digest
