"""Core state model: topics, field histories, typed edges, and digests.

A memory state bundles stored topics, the typed edges between them, the
active policy list and a logical clock.  States are treated as immutable
snapshots once committed; all mutation goes through the transaction layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Optional

from .embedding import EmbeddingVector, embed
from .salience import SalienceParams, Tier, decay, due_epoch

if TYPE_CHECKING:  # pragma: no cover
    from .policy import Policy


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
        check_types(TypeError, "provenance", d, _PROVENANCE_TYPES)
        return Provenance(d["source_id"], d["event_id"], d["excerpt"])


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
        check_types(TypeError, "entry", d, _ENTRY_TYPES)
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
    # salience as set at decay epoch `since`; read it through MemoryState.salience
    salience: float = 1.0
    since: int = 0
    tier: Tier = Tier.ACTIVE
    last_access: int = 0

    def clone(self) -> "Field":
        return Field(
            name=self.name,
            entity_tag=self.entity_tag,
            history=list(self.history),
            salience=self.salience,
            since=self.since,
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
            "since": self.since,
            "tier": self.tier.value,
            "last_access": self.last_access,
        }

    @staticmethod
    def from_dict(d: dict) -> "Field":
        check_types(TypeError, "field", d, _FIELD_TYPES)
        return Field(
            name=d["name"],
            entity_tag=d["entity_tag"],
            history=[ValueEntry.from_dict(e) for e in d["history"]],
            salience=d["salience"],
            since=d["since"],
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
    archived_at: Optional[int] = None  # the decay epoch its salience is frozen at
    merged_into: Optional[str] = None
    # always None: the canonical bytes are not memoised; perfbench's cache
    # counter still reads the name
    _canonical_cache = None

    def clone(self) -> "Topic":
        return Topic(
            id=self.id,
            title=self.title,
            summary=self.summary,
            embedding=self.embedding,
            fields={name: f.clone() for name, f in self.fields.items()},
            archived=self.archived,
            archived_at=self.archived_at,
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
            "archived_at": self.archived_at,
            "merged_into": self.merged_into,
        }

    @staticmethod
    def from_dict(d: dict) -> "Topic":
        check_types(TypeError, "topic", d, _TOPIC_TYPES)
        fields = {name: Field.from_dict(f) for name, f in d["fields"].items()}
        for name, f in fields.items():
            if f.name != name:
                raise ValueError(f"field {f.name!r} keyed under {name!r} in topic {d['id']!r}")
        return Topic(
            id=d["id"],
            title=d["title"],
            summary=d["summary"],
            fields=fields,
            archived=d["archived"],
            archived_at=d["archived_at"],
            merged_into=d["merged_into"],
        )

    def canonical_bytes(self) -> bytes:
        return canonical_json(self.to_dict()).encode("utf-8")

    def content_hash(self) -> bytes:
        """SHA-256 of `canonical_bytes()`."""
        return hashlib.sha256(self.canonical_bytes()).digest()


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
        check_types(TypeError, "edge", d, _EDGE_TYPES)
        return Edge(d["src"], d["dst"], EdgeKind(d["kind"]), d["created_at"])


def unbuilt_parts() -> dict[str, "Part"]:
    """One unbuilt part of each class in `PARTS`, by name."""
    return {name: part() for name, part in PARTS.items()}


@dataclass
class MemoryState:
    """Topics, edges, policies, clock, decay epoch and revision queue:
    everything that is journalled and hashed.  `epoch` counts committed
    ticks, from which `salience` derives each field's decayed value.

    `parts` holds the derived parts by name (see `Part`), read through
    `part` and never serialised, hashed or journalled.  Each is built on its
    first read and from then on kept current by the marks `apply_delta`
    makes, so a hand-built state may be filled in directly only until its
    first read, and by deltas after it.  A part is a value: `part` replaces
    the state's entry with the value a read returns, and a fork shares every
    part with the state it was cloned from.

    `owned` names the topics this state may change in place; the others it
    shares with the state it was cloned from.  It is None for a state that
    owns all its topics, and it is never serialised either.
    """

    topics: dict[str, Topic] = dc_field(default_factory=dict)
    edges: dict[tuple[str, str, str], Edge] = dc_field(default_factory=dict)
    policies: list["Policy"] = dc_field(default_factory=list)
    clock: int = 0
    epoch: int = 0
    revision_queue: set[tuple[str, str]] = dc_field(default_factory=set)
    parts: dict[str, "Part"] = dc_field(default_factory=unbuilt_parts, repr=False, compare=False)
    owned: Optional[set[str]] = dc_field(default=None, repr=False, compare=False)

    def shallow_clone(self) -> "MemoryState":
        """Copy containers; topics are shared until `apply_delta` first changes
        them, and the parts until a read settles them."""
        return MemoryState(
            topics=dict(self.topics),
            edges=dict(self.edges),
            policies=list(self.policies),
            clock=self.clock,
            epoch=self.epoch,
            revision_queue=set(self.revision_queue),
            parts=dict(self.parts),
            owned=set(),
        )

    def epoch_of(self, topic: Topic) -> int:
        """The epoch the topic's salience is read at: the state's, or the one
        the topic was archived at, so that archived salience stays frozen."""
        return self.epoch if topic.archived_at is None else topic.archived_at

    def salience(self, topic: Topic, f: Field, lam: float) -> float:
        """The field's salience now: its set value decayed by `lam` over the
        epochs since it was set (Park et al., 2023).  The forget ladder and
        `hide_order` spell it out per topic, and `salience.due_epoch` finds
        from the same `decay` the epoch at which each topic's tiers next
        change."""
        return decay(f.salience, self.epoch_of(topic) - f.since, lam)

    def part(self, name: str) -> "Part":
        """The part `name`, settled, kept as this state's part `name`."""
        part = self.parts[name] = self.parts[name].read(self)
        return part

    def ladder(self, params: SalienceParams) -> "Ladder":
        """The ladder part, settled for the salience parameters `params`,
        kept as this state's part `ladder`."""
        part = self.parts["ladder"] = self.parts["ladder"].read_for(self, params)
        return part

    def mark(self, kind: str, topic_id: str) -> None:
        """Mark the topic of a delta of `kind` in each part that it concerns."""
        for name in _ROUTES.get(kind, ()):
            self.parts[name].mark(topic_id)

    def extension_successors(self, topic_id: str) -> list[str]:
        return list(self.part("edges").successors.get(topic_id, ()))

    def association_neighbors(self, topic_id: str) -> list[str]:
        return list(self.part("edges").neighbors.get(topic_id, ()))

    def footprint(self) -> int:
        """`active_footprint`, read from the footprint part."""
        return self.part("footprint").total

    def stale_topics(self) -> frozenset[str]:
        """Topics that would serve a superseded value as current; empty
        exactly when `stale_current_exists` is false."""
        return frozenset(self.part("stale").counts)


class Part:
    """A derived part of a state: tables, its public attributes, kept current
    from the deltas whose kinds are in `kinds` (incremental view
    maintenance; Gupta & Mumick, 1995).  `apply_delta` marks each such
    delta's topic, and a read, given the state, settles the marked topics.

    A part is a value: once a read has returned it, no table of it changes,
    so states share it freely (path copying; Driscoll et al., 1989).  A read
    with no mark pending returns the part itself; otherwise it returns a
    settled copy with a new pending set, which copies a table, or an entry
    of one, before its first write to it in that settle.  A part that is not
    built takes no marks: its first read builds it, by default by the same
    settle of every topic into its class's empty tables.  The ranking and
    ladder parts build theirs in bulk instead, which the tests check every
    settle against.  States that share a part share its pending marks, so a
    mark from another state is spurious: a settle writes only what differs."""

    kinds: frozenset[str] = frozenset()
    _pending: Optional[set[str]] = None  # None until built

    @property
    def built(self) -> bool:
        return self._pending is not None

    def mark(self, topic_id: str) -> None:
        if self._pending is not None:
            self._pending.add(topic_id)

    def read(self, state: MemoryState) -> "Part":
        if self._pending is None:
            return self.build(state)
        if self._pending:
            return self._settled(state, self._pending)
        return self

    def build(self, state: MemoryState) -> "Part":
        return self._settled(state, state.topics)

    def _settled(self, state: MemoryState, marked: Iterable[str]) -> "Part":
        part = object.__new__(type(self))
        part.__dict__.update(self.__dict__)
        part._pending, part._owned = set(), set()  # _owned: the tables and entries this settle copied
        part.settle(state, marked)
        return part

    def _table(self, name: str):
        """The table `name`, copied first if this settle has not written it."""
        if name not in self._owned:
            self._owned.add(name)
            setattr(self, name, getattr(self, name).copy())
        return getattr(self, name)

    def _entry(self, name: str, key) -> dict:
        """The entry `key` of the table `name`, copied or created like one."""
        if (name, key) not in self._owned:
            table = self._table(name)
            self._owned.add((name, key))
            table[key] = dict(table.get(key, ()))
        return getattr(self, name)[key]


def _active_fields(topic: Topic) -> int:
    if topic.archived:
        return 0
    return sum(1 for f in topic.fields.values() if f.tier is Tier.ACTIVE)


def _serves_stale(topic: Topic) -> bool:
    for f in topic.fields.values():
        latest = None
        for entry in reversed(f.history):
            if not entry.compressed:
                latest = entry
                break
        if latest is not None and latest.superseded and f.current_entry() is not None:
            return True
    return False


_HISTORY = frozenset({"field_removed", "field_installed", "entry_appended", "entry_flags", "history_compressed"})


class Hashes(Part):
    """Each topic's content hash, in topic id order: the input of `state_digest`."""

    kinds = _HISTORY | {"topic_created", "topic_removed", "topic_archived", "field_created", "salience_set",
                        "last_access_set", "tier_set"}
    hashes: dict[str, bytes] = {}

    def settle(self, state: MemoryState, marked: Iterable[str]) -> None:
        added = False
        for tid in marked:
            digest = state.topics[tid].content_hash() if tid in state.topics else None
            if self.hashes.get(tid) != digest:
                added = added or tid not in self.hashes
                if digest is None:
                    del self._table("hashes")[tid]
                else:
                    self._table("hashes")[tid] = digest
        if added:  # inserted at the end, out of order
            self.hashes = dict(sorted(self.hashes.items()))


class Counts(Part):
    """Each topic's count, where it is not 0, and their total."""

    counts: dict[str, int] = {}
    total = 0

    def settle(self, state: MemoryState, marked: Iterable[str]) -> None:
        for tid in marked:
            count = self.count(state.topics[tid]) if tid in state.topics else 0
            old = self.counts.get(tid, 0)
            if count != old:
                self.total += count - old
                if count:
                    self._table("counts")[tid] = count
                else:
                    del self._table("counts")[tid]


class Footprint(Counts):
    """Each live topic's count of active fields: `active_footprint`."""

    kinds = frozenset({"topic_removed", "topic_archived", "field_created", "field_removed", "field_installed",
                       "tier_set"})
    count = staticmethod(_active_fields)


class Stale(Counts):
    """1 for each topic that would serve a superseded value as current."""

    kinds = _HISTORY | {"topic_removed"}
    count = staticmethod(_serves_stale)


class Edges(Part):
    """Each topic's sorted Extension successors and Association neighbours,
    and the digest's edge section.  A settle builds new tables from all edges."""

    kinds = frozenset({"topic_removed", "edge_added", "edge_removed"})
    successors: dict[str, list[str]] = {}
    neighbors: dict[str, list[str]] = {}
    section = b"[]"

    def settle(self, state: MemoryState, marked: Iterable[str]) -> None:
        successors: dict[str, list[str]] = {}
        neighbors: dict[str, set[str]] = {}
        for e in state.edges.values():
            if e.kind is EdgeKind.EXTENSION:
                successors.setdefault(e.src, []).append(e.dst)
            else:
                neighbors.setdefault(e.src, set()).add(e.dst)
                neighbors.setdefault(e.dst, set()).add(e.src)
        self.successors = {tid: sorted(dsts) for tid, dsts in successors.items()}
        self.neighbors = {tid: sorted(others) for tid, others in neighbors.items()}
        self.section = b"[" + b",".join(sorted(e.canonical_bytes for e in state.edges.values())) + b"]"


class Policies(Part):
    """The digest's policy section.  No delta changes the policies, so a read
    renders it again only when they are not the ones it was rendered from."""

    section = b"[]"
    _rendered: list["Policy"] = []

    def read(self, state: MemoryState) -> "Part":
        policies = state.policies
        if len(policies) == len(self._rendered) and all(map(operator.is_, policies, self._rendered)):
            return self
        from .policy import render_policy

        part = Policies()
        part._rendered = list(policies)
        part.section = canonical_json([render_policy(p) for p in policies]).encode()
        return part


class Ranking(Part):
    """Each embedding bucket's posting list `{live topic id: integer term}`,
    and the vector each live topic was entered with.  Only `rank_topics`
    reads it, so ticks and hinted ingests never pay for its settle."""

    kinds = _HISTORY | {"topic_created", "topic_removed", "topic_archived"}
    postings: dict[int, dict[str, int]] = {}
    vectors: dict[str, EmbeddingVector] = {}

    def build(self, state: MemoryState) -> "Part":
        part = Ranking()
        part._pending = set()
        part.vectors = {tid: topic.vector() for tid, topic in state.topics.items() if not topic.archived}
        part.postings = {}
        for tid, vector in part.vectors.items():
            for bucket, term in vector.terms.items():
                part.postings.setdefault(bucket, {})[tid] = term
        return part

    def settle(self, state: MemoryState, marked: Iterable[str]) -> None:
        for tid in marked:
            topic = state.topics.get(tid)
            new = None if topic is None or topic.archived else topic.vector()
            old = self.vectors.get(tid)
            if new is old:
                continue
            old_terms = {} if old is None else old.terms
            new_terms = {} if new is None else new.terms
            for bucket in old_terms.keys() - new_terms.keys():
                del self._entry("postings", bucket)[tid]
                if not self.postings[bucket]:
                    del self.postings[bucket]
                    self._owned.remove(("postings", bucket))
            for bucket, term in new_terms.items():
                if old_terms.get(bucket) != term:
                    self._entry("postings", bucket)[tid] = term
            if new is None:
                del self._table("vectors")[tid]
            else:
                self._table("vectors")[tid] = new


class Ladder(Part):
    """Each live topic's due epoch (`salience.due_epoch`) under `params`,
    and the calendar of the due topics by epoch (a calendar queue; Brown,
    1988), so that the forget ladder visits only the topics due by the
    state's epoch.  A calendar slot is a dict of topic ids to None, which
    copies faster than a set.  The calendar holds one slot per due epoch,
    and due epochs lie within the crossing horizon of the live saliences,
    however many topics there are, so `due_by` scans the slots rather than
    keep them in order.

    A settle reads each marked topic's due at the state's epoch, and an
    unmarked topic keeps the due it was read with.  A later read would find
    the same one: a due epoch is the first at which the ladder would act,
    and every tick runs the ladder, which takes, and so marks, each topic
    due by its epoch (`due_by`).  `MemoryState.ladder` reads it for the
    salience parameters of a config, and builds it afresh for other
    parameters than it was built for."""

    kinds = _HISTORY | {"topic_created", "topic_removed", "topic_archived", "field_created", "salience_set",
                        "tier_set"}
    params = SalienceParams()
    due: dict[str, int] = {}
    calendar: dict[int, dict[str, None]] = {}

    def read_for(self, state: MemoryState, params: SalienceParams) -> "Ladder":
        if params is self.params or (self.built and params == self.params):
            return self.read(state)
        part = Ladder()
        part.params = params
        return part.build(state)

    def build(self, state: MemoryState) -> "Part":
        part = Ladder()
        part.params, part._pending = self.params, set()
        dues = ((tid, due_epoch(topic, self.params, state.epoch)) for tid, topic in state.topics.items())
        part.due = {tid: due for tid, due in dues if due is not None}
        part.calendar = {}
        for tid, due in part.due.items():
            part.calendar.setdefault(due, {})[tid] = None
        return part

    def settle(self, state: MemoryState, marked: Iterable[str]) -> None:
        moved = []
        for tid in marked:
            topic = state.topics.get(tid)
            new = None if topic is None else due_epoch(topic, self.params, state.epoch)
            if new != self.due.get(tid):
                moved.append((tid, new))
        if not moved:
            return
        due, calendar = self._table("due"), self._table("calendar")
        for tid, new in moved:
            old = due.pop(tid, None)
            if old is not None and len(calendar[old]) > 1:
                del self._entry("calendar", old)[tid]
            elif old is not None:  # the topic leaves its slot empty
                del calendar[old]
                self._owned.discard(("calendar", old))
            if new is not None:
                due[tid] = new
                self._entry("calendar", new)[tid] = None

    def due_by(self, epoch: int) -> list[str]:
        """The topics due at `epoch` or before, in id order, each marked so
        that the next read settles it again, whether or not the ladder then
        changes it."""
        due = sorted(tid for slot_epoch, slot in self.calendar.items() if slot_epoch <= epoch for tid in slot)
        self._pending.update(due)
        return due


PARTS = {"hashes": Hashes, "footprint": Footprint, "stale": Stale, "edges": Edges, "policies": Policies,
         "ranking": Ranking, "ladder": Ladder}
_ROUTES = {kind: tuple(name for name, part in PARTS.items() if kind in part.kinds)
           for kind in frozenset().union(*(part.kinds for part in PARTS.values()))}


def check_references(state: MemoryState) -> None:
    """Refuse, in a state that enters whole, as a genesis or a snapshot, an
    edge or a revision flag to a missing topic, a live topic frozen at an
    epoch, and a field whose salience `decay` would refuse
    (`salience_fault`); `apply_delta` checks each edge, flag and salience
    it adds."""
    for e in state.edges.values():
        if e.src not in state.topics or e.dst not in state.topics:
            raise ValueError(f"edge endpoint missing: {e.src} -> {e.dst}")
    for tid, cause in sorted(state.revision_queue):
        if tid not in state.topics:
            raise ValueError(f"revision flag for missing topic: {tid} ({cause})")
    for tid, topic in state.topics.items():
        if not topic.archived and topic.archived_at is not None:
            raise ValueError(f"live topic frozen at epoch {topic.archived_at}: {tid}")
        epoch = state.epoch_of(topic)
        for f in topic.fields.values():
            fault = salience_fault(f.salience, f.since, epoch)
            if fault is not None:
                raise ValueError(f"{tid}.{f.name}: {fault}")


def salience_fault(salience: float, since: int, epoch: int) -> Optional[str]:
    """Why `decay` would refuse a salience set at epoch `since` and read at
    `epoch`: one that is negative or not finite, or set later; else None."""
    if not 0.0 <= salience < math.inf:
        return f"salience must be finite and non-negative, got {salience!r}"
    if since > epoch:
        return f"salience set at epoch {since}, after epoch {epoch}"
    return None


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
    """Active fields of live topics, by a full scan (the reference for the
    part that `MemoryState.footprint` reads)."""
    return sum(_active_fields(topic) for topic in state.topics.values())


def stale_current_exists(state: MemoryState) -> bool:
    """True if some field's current entry is not its latest non-compressed
    entry, by a full scan (the reference for `MemoryState.stale_topics`)."""
    return any(_serves_stale(topic) for topic in state.topics.values())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@contextmanager
def decoding(error: type[ValueError], what: str):
    """Raise `error` naming `what` for any KeyError, TypeError or ValueError
    that decoding outside input raises in the block, so that a malformed
    input fails with one typed error rather than a traceback.  An
    AttributeError counts too: it is what `.get` raises on a list or a
    number where an object belongs."""
    try:
        yield
    except error:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise error(f"{what}: {exc!r}") from exc


# the types `check_types` accepts for a value: exact, so that a bool is not an
# int, while an int may stand for a float
STR, INT, NUMBER, BOOL, OBJECT, LIST = (str,), (int,), (int, float), (bool,), (dict,), (list,)
STR_OR_NULL, INT_OR_NULL, NUMBER_OR_NULL = (str, type(None)), (int, type(None)), (int, float, type(None))


def check_types(error: type[Exception], what: str, values: dict, types: dict[str, tuple[type, ...]]) -> None:
    """Raise `error` unless each value that `types` names has one of the
    types listed for it."""
    for name, allowed in types.items():
        if type(values[name]) not in allowed:
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise error(f"{what} {name} must be {expected}, got {values[name]!r}")


# the nested payloads of topics and deltas; each decoder raises TypeError for
# a missing key or a value of another type
_PROVENANCE_TYPES = {"source_id": STR, "event_id": INT, "excerpt": STR}
_ENTRY_TYPES = {"value": STR, "at": INT, "provenance": LIST, "superseded": BOOL, "compressed": BOOL}
_FIELD_TYPES = {"name": STR, "entity_tag": STR_OR_NULL, "history": LIST, "salience": NUMBER, "since": INT,
                "tier": STR, "last_access": INT}
_TOPIC_TYPES = {"id": STR, "title": STR, "summary": STR, "fields": OBJECT, "archived": BOOL,
                "archived_at": INT_OR_NULL, "merged_into": STR_OR_NULL}
_EDGE_TYPES = {"src": STR, "dst": STR, "kind": STR, "created_at": INT}
_STATE_TYPES = {"topics": OBJECT, "edges": LIST, "policies": LIST, "clock": INT, "epoch": INT,
                "revision_queue": LIST}


def state_to_dict(state: MemoryState) -> dict:
    from .policy import render_policy

    return {
        "topics": {tid: t.to_dict() for tid, t in sorted(state.topics.items())},
        "edges": [e.to_dict() for _, e in sorted(state.edges.items())],
        "policies": [render_policy(p) for p in state.policies],
        "clock": state.clock,
        "epoch": state.epoch,
        "revision_queue": sorted(list(pair) for pair in state.revision_queue),
    }


def state_from_dict(d: dict) -> MemoryState:
    """Decode a genesis or snapshot state, each of whose parts must carry its
    keys with their types, each topic and field keyed under its own name;
    anything else raises KeyError, TypeError or ValueError."""
    from .policy import parse_policy

    check_types(TypeError, "state", d, _STATE_TYPES)
    edges = {}
    for ed in d["edges"]:
        e = Edge.from_dict(ed)
        edges[e.key()] = e
    topics = {tid: Topic.from_dict(td) for tid, td in d["topics"].items()}
    for tid, topic in topics.items():
        if topic.id != tid:
            raise ValueError(f"topic {topic.id!r} keyed under {tid!r}")
    state = MemoryState(
        topics=topics,
        edges=edges,
        policies=[parse_policy(text) for text in d["policies"]],
        clock=d["clock"],
        epoch=d["epoch"],
        revision_queue={(a, b) for a, b in d["revision_queue"]},
    )
    if any(type(a) is not str or type(b) is not str for a, b in state.revision_queue):
        raise TypeError("state revision_queue must hold pairs of strings")
    check_references(state)
    return state


def state_digest(state: MemoryState) -> str:
    """Content digest independent of container iteration order.

    Two levels: each topic contributes the SHA-256 of its canonical JSON, so
    a commit re-serialises only the topics it touched.  Every section is
    self-delimiting: the clock and epoch pair, the policies and the revision
    queue are JSON values,
    the edges a JSON list of their memoised encodings in byte order, and the
    topic hashes, in topic id order, are fixed-width and preceded by their
    count.  The topic hashes, their order and the policy and edge sections
    are read from the state's parts.
    """
    hashes = state.part("hashes").hashes
    h = hashlib.sha256()
    h.update(canonical_json([state.clock, state.epoch]).encode())
    h.update(state.part("policies").section)
    h.update(state.part("edges").section)
    h.update(canonical_json(sorted(list(pair) for pair in state.revision_queue)).encode())
    h.update(b"%d:" % len(hashes))
    h.update(b"".join(hashes.values()))
    return h.hexdigest()


def fresh_embedding_for(topic: Topic) -> EmbeddingVector:
    return embed(topic.content_text())
