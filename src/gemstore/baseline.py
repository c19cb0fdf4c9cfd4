"""Append-only CRUD baseline: unconditional puts, age-based eviction and
read-only retrieval.  Exists to reproduce the four failure modes of naive
record stores in differential tests against the governed engine.

The baseline takes the engine's events through the engine's `submit`
interface and journals every put, eviction and read as a transition record,
so the trajectory auditor can score it with the same machinery.
"""

from __future__ import annotations

from typing import Optional

from .config import EngineConfig
from .embedding import cosine, embed
from .engine import EngineEvent, Journal, TransitionRecord
from .model import MemoryState, Provenance, ValueEntry, state_digest, state_to_dict
from .operators import Answer, FactBundle, Query, RetrievalOutput
from .transaction import Txn


def _record_id(topic_id: str) -> int:
    return int(topic_id[len("rec-"):])


class BaselineJournalAdapter:
    """A capacity-bounded record store kept as journalled state.  Each fact
    is stored again as a single-field topic named rec-<id>, whose title is
    the record text "field: value"; eviction removes the oldest topic
    outright, which is exactly the unrecoverable deletion the auditor is
    meant to flag."""

    def __init__(self, config: EngineConfig, capacity: int = 5):
        config.validate()  # a read needs k_topics >= 1
        self.config = config
        self.capacity = capacity
        self.next_id = 0
        self.state = MemoryState(policies=[])
        self.journal = Journal(
            config=config,
            genesis=state_to_dict(self.state),
            genesis_digest=state_digest(self.state),
        )

    def submit(self, event: EngineEvent) -> tuple[Optional[RetrievalOutput], list[TransitionRecord]]:
        """Same signature as `Engine.submit`.  A read is a pure cosine
        ranking and a tick is a no-op; revise and forget have no baseline
        counterpart and journal nothing."""
        if event.kind not in ("ingest", "retrieve", "tick"):
            return None, []
        txn = Txn(self.state)
        if event.kind == "ingest":
            self._put(txn, event.bundle)
        output = self._read(event.query) if event.kind == "retrieve" else None
        return output, [self._commit(event, txn)]

    def _put(self, txn: Txn, bundle: FactBundle) -> None:
        """One record per fact, duplicates included; evict oldest beyond capacity."""
        next_tick = self.state.clock + 1
        for fact in bundle.facts:
            topic_id = f"rec-{self.next_id:04d}"
            self.next_id += 1
            txn.create_topic(topic_id, title=f"{fact.field}: {fact.value}", summary=bundle.text)
            txn.create_field(topic_id, fact.field, None, self.config.salience.s0, last_access=next_tick)
            prov = Provenance(bundle.source_id, next_tick, fact.excerpt or bundle.text)
            txn.append_entry(topic_id, fact.field, ValueEntry(fact.value, next_tick, (prov,)))
            while len(txn.state.topics) > self.capacity:
                txn.remove_topic(min(txn.state.topics, key=_record_id))

    def _read(self, q: Query) -> RetrievalOutput:
        """Top-k records by cosine to their text; changes nothing."""
        query_vec = embed(q.text)
        ranked = sorted(
            self.state.topics.values(),
            key=lambda t: (-cosine(query_vec, embed(t.title)), _record_id(t.id)),
        )[: self.config.k_topics]
        out = RetrievalOutput()
        for topic in ranked:
            (f,) = topic.fields.values()
            (entry,) = f.history
            out.answers.append(Answer(topic.id, f.name, entry.value, entry.at, entry.provenance))
        return out

    def _commit(self, event: EngineEvent, txn: Txn) -> TransitionRecord:
        next_tick = self.state.clock + 1
        txn.state.clock = next_tick
        record = TransitionRecord(
            tick=next_tick,
            operator=event.kind,
            input=event.to_dict(),
            deltas=txn.deltas,
            policy_log=[],
            outcome="committed",
            digest_after=state_digest(txn.state),
        )
        self.state = txn.state
        self.journal.records.append(record)
        return record
