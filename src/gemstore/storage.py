"""On-disk format: length-prefixed journal files.

A journal is the magic `GEMJ`, then frames, each a 4-byte big-endian length
and that many bytes of canonical JSON: one header object with exactly the
keys `config`, `genesis`, `genesis_digest` and `version`, then one object
per transition record.  The header is spliced from the config's canonical
JSON and the journal's genesis bytes, which an engine's journal holds from
`model.state_bytes` (the encodings its topics, edges and policies already
keep), so no genesis is built as a dict tree and encoded again to be
written.  A snapshot is a journal with no records whose genesis is another
journal's final state.  The version header and content digests make
truncation or bit-rot surface as a corruption error instead of silent
divergence, and no frame is read past the end of its file.
"""

from __future__ import annotations

import io
import json
import os
import stat
import struct
from pathlib import Path

from .config import EngineConfig
from .engine import CorruptJournalError, Journal, TransitionRecord, replay
from .model import INT, OBJECT, STR, canonical_json, decode, decoding

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


class _Frames:
    """The frames of a journal file open for reading.  One `os.fstat` gives
    the bytes left in the file, which each read counts down, so that a
    length prefix larger than what is left is refused before its payload is
    read rather than allocated.  A file that is not a regular one, a pipe,
    has no size until it is read, so it is read whole first."""

    def __init__(self, fh):
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            self.fh, self.left = fh, st.st_size - fh.tell()
        else:
            rest = fh.read()
            self.fh, self.left = io.BytesIO(rest), len(rest)

    def read(self) -> bytes:
        header = self.fh.read(4)
        if len(header) != 4:
            raise CorruptJournalError("truncated frame header")
        (length,) = struct.unpack(">I", header)
        self.left -= 4 + length
        if self.left < 0:
            raise CorruptJournalError("truncated frame payload")
        return self.fh.read(length)

    def read_object(self) -> dict:
        """One frame that holds a JSON object."""
        payload = self.read()
        with decoding(CorruptJournalError, "frame is not JSON"):
            obj = json.loads(payload)
        if not isinstance(obj, dict):
            raise CorruptJournalError("frame is not a JSON object")
        return obj


def header_bytes(journal: Journal) -> bytes:
    """The header frame's payload, `canonical_json` of the object
    `{"config", "genesis", "genesis_digest", "version"}`, spliced from the
    config's canonical JSON and the journal's `genesis_bytes`."""
    config, digest = canonical_json(journal.config.to_dict()), canonical_json(journal.genesis_digest)
    return b'{"config":%s,"genesis":%s,"genesis_digest":%s,"version":%d}' % (
        config.encode(), journal.genesis_bytes, digest.encode(), FORMAT_VERSION)


def journal_from_header(header: dict) -> Journal:
    """Decode a header frame of the current version, which must carry
    exactly its keys, each with its type; any other header raises KeyError,
    TypeError or ValueError."""
    header = decode("journal header", header, _HEADER_TYPES)
    return Journal(EngineConfig.from_dict(header["config"]), header["genesis"], header["genesis_digest"])


_HEADER_TYPES = {"version": INT, "config": OBJECT, "genesis": OBJECT, "genesis_digest": STR}


def write_journal(path: str | Path, journal: Journal) -> None:
    with open(path, "wb") as fh:
        fh.write(JOURNAL_MAGIC)
        _write_frame(fh, header_bytes(journal))
        for record in journal.records:
            _write_frame(fh, canonical_json(record.to_dict()).encode("utf-8"))


def read_journal(path: str | Path) -> Journal:
    with open(path, "rb") as fh:
        if fh.read(4) != JOURNAL_MAGIC:
            raise CorruptJournalError("not a journal file")
        frames = _Frames(fh)
        header = frames.read_object()
        if header.get("version") != FORMAT_VERSION:
            raise CorruptJournalError(f"unsupported journal version: {header.get('version')}")
        with decoding(CorruptJournalError, "malformed journal header"):
            journal = journal_from_header(header)
        while frames.left:  # a clean end of file ends the records
            obj = frames.read_object()
            with decoding(CorruptJournalError, f"malformed record {len(journal.records) + 1}"):
                journal.records.append(TransitionRecord.from_dict(obj))
    return journal


def snapshot_from_journal(journal_path: str | Path, snapshot_path: str | Path) -> str:
    """Write the final state of a journal as a journal with no records whose
    genesis is that state, and return its digest."""
    journal = read_journal(journal_path)
    snapshot = Journal.of_state(journal.config, replay(journal))
    write_journal(snapshot_path, snapshot)
    return snapshot.genesis_digest
