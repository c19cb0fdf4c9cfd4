"""Core state model: topics, field histories, typed edges, and digests.

A memory state bundles stored topics, the typed edges between them, the
active policy list and a logical clock.  States are treated as immutable
snapshots once committed; all mutation goes through the transaction layer.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional

from .embedding import EmbeddingVector, embed

if TYPE_CHECKING:  # pragma: no cover
    from .policy import Policy


class Tier(str, Enum):
    ACTIVE = "Active"
    COMPRESSED = "Compressed"
    HIDDEN = "Hidden"


class EdgeKind(str, Enum):
    EXTENSION = "Extension"
    ASSOCIATION = "Association"


class LookupError_(KeyError):
    """Unknown topic or field in an explicit lookup."""


Timestamp = int  # a logical tick; kept as a name for callers that build states


@dataclass(frozen=True)
class Provenance:
    source_id: str
    event_id: int
    excerpt: str = ""

    def to_dict(self) -> dict:
        return {"source_id": self.source_id, "event_id": self.event_id, "excerpt": self.excerpt}

    @staticmethod
    def from_dict(d: dict) -> "Provenance":
        return Provenance(d["source_id"], d["event_id"], d.get("excerpt", ""))


@dataclass(frozen=True)
class ValueEntry:
    value: str
    at: int
    provenance: tuple[Provenance, ...]
    superseded: bool = False
    compressed: bool = False

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "at": self.at,
            "provenance": [p.to_dict() for p in self.provenance],
            "superseded": self.superseded,
            "compressed": self.compressed,
        }

    @staticmethod
    def from_dict(d: dict) -> "ValueEntry":
        return ValueEntry(
            value=d["value"],
            at=d["at"],
            provenance=tuple(Provenance.from_dict(p) for p in d["provenance"]),
            superseded=d["superseded"],
            compressed=d["compressed"],
        )


@dataclass
class Field:
    name: str
    entity_tag: Optional[str] = None
    history: list[ValueEntry] = dc_field(default_factory=list)
    salience: float = 1.0
    tier: Tier = Tier.ACTIVE
    last_access: int = 0

    def clone(self) -> "Field":
        return Field(
            name=self.name,
            entity_tag=self.entity_tag,
            history=list(self.history),
            salience=self.salience,
            tier=self.tier,
            last_access=self.last_access,
        )

    def current_entry(self) -> Optional[ValueEntry]:
        """Last non-compressed, non-superseded entry, ignoring tier."""
        for entry in reversed(self.history):
            if not entry.superseded and not entry.compressed:
                return entry
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "entity_tag": self.entity_tag,
            "history": [e.to_dict() for e in self.history],
            "salience": self.salience,
            "tier": self.tier.value,
            "last_access": self.last_access,
        }

    @staticmethod
    def from_dict(d: dict) -> "Field":
        return Field(
            name=d["name"],
            entity_tag=d.get("entity_tag"),
            history=[ValueEntry.from_dict(e) for e in d["history"]],
            salience=d["salience"],
            tier=Tier(d["tier"]),
            last_access=d["last_access"],
        )


@dataclass
class Topic:
    """A stored topic.  Its embedding is derived state: `vector()` computes it
    from `content_text()`, and it is never serialised, hashed or journalled."""

    id: str
    title: str
    summary: str
    # memo of embed(content_text()); apply_delta clears it when the text may change
    embedding: Optional[EmbeddingVector] = dc_field(default=None, repr=False, compare=False)
    fields: dict[str, Field] = dc_field(default_factory=dict)
    archived: bool = False
    merged_into: Optional[str] = None
    # (canonical bytes, their SHA-256); cleared by the transaction layer
    # before any delta touches the topic
    _canonical_cache: Optional[tuple[bytes, bytes]] = dc_field(default=None, repr=False, compare=False)

    def clone(self) -> "Topic":
        return Topic(
            id=self.id,
            title=self.title,
            summary=self.summary,
            embedding=self.embedding,
            fields={name: f.clone() for name, f in self.fields.items()},
            archived=self.archived,
            merged_into=self.merged_into,
        )

    def content_text(self) -> str:
        """Deterministic text the topic embedding is derived from: the title,
        the summary and each field's name and current value, by field name."""
        parts = [self.title, self.summary]
        for name in sorted(self.fields):
            entry = self.fields[name].current_entry()
            if entry is not None:
                parts.append(name)
                parts.append(entry.value)
        return " ".join(parts)

    def vector(self) -> EmbeddingVector:
        """The topic embedding, derived on a miss of the memo."""
        if self.embedding is None:
            self.embedding = embed(self.content_text())
        return self.embedding

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "summary": self.summary,
            "fields": {name: f.to_dict() for name, f in sorted(self.fields.items())},
            "archived": self.archived,
            "merged_into": self.merged_into,
        }

    @staticmethod
    def from_dict(d: dict) -> "Topic":
        return Topic(
            id=d["id"],
            title=d["title"],
            summary=d["summary"],
            fields={name: Field.from_dict(f) for name, f in d["fields"].items()},
            archived=d["archived"],
            merged_into=d.get("merged_into"),
        )

    def canonical_bytes(self) -> bytes:
        if self._canonical_cache is None:
            data = canonical_json(self.to_dict()).encode("utf-8")
            self._canonical_cache = (data, hashlib.sha256(data).digest())
        return self._canonical_cache[0]

    def content_hash(self) -> bytes:
        """SHA-256 of `canonical_bytes()`, memoised with them."""
        self.canonical_bytes()  # fills the cache on a miss
        return self._canonical_cache[1]


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: EdgeKind
    created_at: int

    def key(self) -> tuple[str, str, str]:
        return (self.src, self.dst, self.kind.value)

    @cached_property
    def canonical_bytes(self) -> bytes:
        return canonical_json(self.to_dict()).encode("utf-8")

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind.value,
            "created_at": self.created_at,
        }

    @staticmethod
    def from_dict(d: dict) -> "Edge":
        return Edge(d["src"], d["dst"], EdgeKind(d["kind"]), d["created_at"])


@dataclass
class MemoryState:
    topics: dict[str, Topic] = dc_field(default_factory=dict)
    edges: dict[tuple[str, str, str], Edge] = dc_field(default_factory=dict)
    policies: list["Policy"] = dc_field(default_factory=list)
    clock: int = 0
    revision_queue: set[tuple[str, str]] = dc_field(default_factory=set)

    def shallow_clone(self) -> "MemoryState":
        """Copy containers; topics are shared until a transaction touches them."""
        return MemoryState(
            topics=dict(self.topics),
            edges=dict(self.edges),
            policies=list(self.policies),
            clock=self.clock,
            revision_queue=set(self.revision_queue),
        )

    def extension_successors(self, topic_id: str) -> list[str]:
        return sorted(
            e.dst
            for e in self.edges.values()
            if e.src == topic_id and e.kind is EdgeKind.EXTENSION
        )

    def association_neighbors(self, topic_id: str) -> list[str]:
        out = set()
        for e in self.edges.values():
            if e.kind is not EdgeKind.ASSOCIATION:
                continue
            if e.src == topic_id:
                out.add(e.dst)
            elif e.dst == topic_id:
                out.add(e.src)
        return sorted(out)


def current_value(state: MemoryState, topic_id: str, field_name: str) -> Optional[ValueEntry]:
    """Default-visibility current value; absence is a value, not an error."""
    topic = state.topics.get(topic_id)
    if topic is None or topic.archived:
        return None
    f = topic.fields.get(field_name)
    if f is None or f.tier is Tier.HIDDEN:
        return None
    return f.current_entry()


def history(state: MemoryState, topic_id: str, field_name: str) -> list[ValueEntry]:
    """Full history in insertion order; explicit lookup bypasses tier/archival."""
    topic = state.topics.get(topic_id)
    if topic is None:
        raise LookupError_(f"unknown topic: {topic_id}")
    f = topic.fields.get(field_name)
    if f is None:
        raise LookupError_(f"unknown field: {topic_id}.{field_name}")
    return list(f.history)


def active_footprint(state: MemoryState) -> int:
    count = 0
    for topic in state.topics.values():
        if topic.archived:
            continue
        for f in topic.fields.values():
            if f.tier is Tier.ACTIVE:
                count += 1
    return count


def stale_current_exists(state: MemoryState) -> bool:
    """True if some field's current entry is not its latest non-compressed entry."""
    for topic in state.topics.values():
        for f in topic.fields.values():
            latest = None
            for entry in reversed(f.history):
                if not entry.compressed:
                    latest = entry
                    break
            if latest is not None and latest.superseded and f.current_entry() is not None:
                return True
    return False


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@contextmanager
def decoding(error: type[ValueError], what: str):
    """Raise `error` naming `what` for any KeyError, TypeError or ValueError
    that decoding outside input raises in the block, so that a malformed
    input fails with one typed error rather than a traceback."""
    try:
        yield
    except error:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"{what}: {exc!r}") from exc


def state_to_dict(state: MemoryState) -> dict:
    from .policy import render_policy

    return {
        "topics": {tid: t.to_dict() for tid, t in sorted(state.topics.items())},
        "edges": [e.to_dict() for _, e in sorted(state.edges.items())],
        "policies": [render_policy(p) for p in state.policies],
        "clock": state.clock,
        "revision_queue": sorted(list(pair) for pair in state.revision_queue),
    }


def state_from_dict(d: dict) -> MemoryState:
    from .policy import parse_policy

    edges = {}
    for ed in d["edges"]:
        e = Edge.from_dict(ed)
        edges[e.key()] = e
    return MemoryState(
        topics={tid: Topic.from_dict(td) for tid, td in d["topics"].items()},
        edges=edges,
        policies=[parse_policy(text) for text in d["policies"]],
        clock=d["clock"],
        revision_queue={(a, b) for a, b in d["revision_queue"]},
    )


def state_digest(state: MemoryState) -> str:
    """Content digest independent of container iteration order.

    Two levels: each topic contributes the SHA-256 of its canonical JSON, so
    a commit re-serialises only the topics it touched.  Every section is
    self-delimiting: the clock, policies and revision queue are JSON values,
    the edges a JSON list of their memoised encodings in byte order, and the
    topic hashes, in topic id order, are fixed-width and preceded by their
    count.
    """
    from .policy import render_policy

    h = hashlib.sha256()
    h.update(canonical_json(state.clock).encode())
    h.update(canonical_json([render_policy(p) for p in state.policies]).encode())
    h.update(b"[" + b",".join(sorted(e.canonical_bytes for e in state.edges.values())) + b"]")
    h.update(canonical_json(sorted(list(pair) for pair in state.revision_queue)).encode())
    topics = state.topics
    h.update(b"%d:" % len(topics))
    h.update(b"".join(topics[tid].content_hash() for tid in sorted(topics)))
    return h.hexdigest()


def fresh_embedding_for(topic: Topic) -> EmbeddingVector:
    return embed(topic.content_text())
