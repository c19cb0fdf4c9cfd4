"""Append-only CRUD baseline: unconditional puts, age-based eviction and
read-only retrieval.  Exists to reproduce the four failure modes of naive
record stores in differential tests against the governed engine.

The baseline is an `Engine` without policies whose operators are the record
store, so every put, eviction and read commits and journals through the
engine's one commit path, and the trajectory auditor scores it with the same
machinery.
"""

from __future__ import annotations

from typing import Optional

from .config import EngineConfig
from .embedding import cosine, embed
from .engine import Engine, EngineEvent, TransitionRecord
from .model import MemoryState, Provenance
from .operators import Answer, FactBundle, Query, RetrievalOutput
from .transaction import Txn


def _record_id(topic_id: str) -> int:
    return int(topic_id[len("rec-"):])


class BaselineJournalAdapter(Engine):
    """A capacity-bounded record store kept as journalled state.  Each fact
    is stored again as a single-field topic named rec-<id>, whose title is
    the record text "field: value"; eviction removes the oldest topic
    outright, which is exactly the unrecoverable deletion the auditor is
    meant to flag."""

    def __init__(self, config: EngineConfig, capacity: int = 5):
        super().__init__(config=config, policies=[])
        self.capacity = capacity
        self.next_id = 0

    def _build_parts(self) -> None:
        """None: the baseline reads only the digest's parts, which the genesis
        digest builds; the others stay unbuilt and take no marks."""

    def submit(self, event: EngineEvent) -> tuple[Optional[RetrievalOutput], list[TransitionRecord]]:
        """Revise and forget have no baseline counterpart and journal nothing."""
        if event.kind not in ("ingest", "retrieve", "tick"):
            return None, []
        return super().submit(event)

    def _dispatch(self, txn: Txn, event: EngineEvent):
        """A put, a pure cosine read, or a tick that changes nothing."""
        if event.kind == "ingest":
            self._put(txn, event.bundle)
        elif event.kind == "retrieve":
            return self._read(txn.state, event.query), []
        return None, []

    def _put(self, txn: Txn, bundle: FactBundle) -> None:
        """One record per fact, duplicates included; evict oldest beyond capacity."""
        for fact in bundle.facts:
            topic_id = f"rec-{self.next_id:04d}"
            self.next_id += 1
            txn.create_topic(topic_id, title=f"{fact.field}: {fact.value}", summary=bundle.text)
            txn.create_field(topic_id, fact.field, None, self.config.salience.s0)
            prov = Provenance(bundle.source_id, txn.tick, fact.excerpt or bundle.text)
            txn.append_entry(topic_id, fact.field, fact.value, (prov,))
            while len(txn.state.topics) > self.capacity:
                txn.remove_topic(min(txn.state.topics, key=_record_id))

    def _read(self, state: MemoryState, q: Query) -> RetrievalOutput:
        """Top-k records by cosine to their title; changes nothing."""
        query_vec = embed(q.text)
        ranked = sorted(
            state.topics.values(),
            key=lambda t: (-cosine(query_vec, embed(t.title)), _record_id(t.id)),
        )[: self.config.k_topics]
        out = RetrievalOutput()
        for topic in ranked:
            (f,) = topic.fields.values()
            (entry,) = f.history
            out.answers.append(Answer(topic.id, f.name, entry.value, entry.at, entry.provenance))
        return out
