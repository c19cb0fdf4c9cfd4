"""Core state model: topics, field histories, typed edges, and digests.

A memory state bundles stored topics, the typed edges between them, the
active policy list and a logical clock.  States are treated as immutable
snapshots once committed; all mutation goes through the transaction layer.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterable, NamedTuple, Optional

from .embedding import EmbeddingVector, embed, tokenize
from .policy import Policy, parse_policy, render_policy
from .salience import ACTIVE, HIDDEN, SalienceParams, Tier, decay, due_epoch


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
        return Provenance(**decode("provenance", d, _PROVENANCE_TYPES))


@dataclass(frozen=True, slots=True)
class ValueEntry:
    """One value of a field's history.  An entry never changes once made (a
    supersede or a compression replaces it), so it encodes itself once, when
    made: `canonical_bytes` is `canonical_json(self.to_dict())`, encoded,
    kept in a slot, and `replace` makes a new entry that encodes itself."""

    value: str
    at: int
    provenance: tuple[Provenance, ...]
    superseded: bool = False
    compressed: bool = False
    canonical_bytes: bytes = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "canonical_bytes", _entry_json(self).encode())

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
        d = decode("entry", d, _ENTRY_TYPES)
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
        i = self.current_index()
        return None if i is None else self.history[i]

    def current_index(self) -> Optional[int]:
        """The index of `current_entry()` in the history, found from the end."""
        history = self.history
        for i in range(len(history) - 1, -1, -1):
            entry = history[i]
            if not entry.superseded and not entry.compressed:
                return i
        return None

    def canonical_items(self) -> list[bytes]:
        """`canonical_json(self.to_dict())`, encoded, as the items whose join
        by commas it is: each entry's `canonical_bytes`, the first and the
        last with the JSON around them (`_enclosed`)."""
        head = f'{{"entity_tag":{_json(self.entity_tag)},"history":['
        tail = (f'],"last_access":{_json(self.last_access)},"name":{_json(self.name)},'
                f'"salience":{_json(self.salience)},"since":{_json(self.since)},'
                f'"tier":{_encode_str(self.tier.value)}}}')
        return _enclosed(head.encode(), [e.canonical_bytes for e in self.history], tail.encode())

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
        d = decode("field", d, _FIELD_TYPES)
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
    # always None: each call of `canonical_bytes` joins the topic's bytes
    # afresh from its entries' (`ValueEntry.canonical_bytes`); perfbench's
    # cache counter still reads the name
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
        d = decode("topic", d, _TOPIC_TYPES)
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
        """`canonical_json(self.to_dict())`, encoded, as one join by commas of
        each field's `canonical_items()` and the topic's other keys around
        them, so that each entry's bytes are copied once."""
        items = []
        for name, f in sorted(self.fields.items()):
            items += _enclosed(f"{_encode_str(name)}:".encode(), f.canonical_items(), b"")
        head = f'{{"archived":{_json(self.archived)},"archived_at":{_json(self.archived_at)},"fields":{{'
        tail = (f'}},"id":{_json(self.id)},"merged_into":{_json(self.merged_into)},'
                f'"summary":{_json(self.summary)},"title":{_json(self.title)}}}')
        return b",".join(_enclosed(head.encode(), items, tail.encode()))

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
        d = decode("edge", d, _EDGE_TYPES)
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
    policies: list[Policy] = dc_field(default_factory=list)
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

    @property
    def transition_tick(self) -> int:
        """The tick of a transition from this state: its clock plus one, as
        `replay_record` requires of each committed record."""
        return self.clock + 1

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
        """`active_footprint`, read from the counts part."""
        return self.part("counts").active


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
    built takes no marks: its first read builds it, by the same settle of
    every topic, in id order, into its class's empty tables.  States that
    share a part share its pending marks, so a mark from another state is
    spurious: a settle writes only what differs.  Every part but the edges
    is a `PerTopic` table."""

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
        return self._settled(state, sorted(state.topics))

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


class PerTopic(Part):
    """A part whose table `values` holds `value(state, topic)` for each topic
    where that is not None.  A settle writes each marked topic whose value
    differs, copying `values` once, and hands each change `(tid, old, new)`,
    None standing for no value, to `changed`, which keeps the part's other
    tables; it returns the changes."""

    values: dict = {}

    def value(self, state: MemoryState, topic: Topic):
        raise NotImplementedError

    def changed(self, tid: str, old, new) -> None:
        pass

    def settle(self, state: MemoryState, marked: Iterable[str]) -> list[tuple[str, object, object]]:
        changes = []
        for tid in marked:
            topic = state.topics.get(tid)
            new = None if topic is None else self.value(state, topic)
            old = self.values.get(tid)
            if new != old:
                if new is None:
                    del self._table("values")[tid]
                else:
                    self._table("values")[tid] = new
                self.changed(tid, old, new)
                changes.append((tid, old, new))
        return changes


def _serves_stale(f: Field) -> bool:
    """Whether the field's current entry is not its latest non-compressed
    entry, which a supersede without a newer entry leaves."""
    for entry in reversed(f.history):
        if not entry.compressed:
            return entry.superseded and f.current_entry() is not None
    return False


# the delta kinds that can change a topic's history, and so its
# `content_text()` and embedding
TEXT_KINDS = frozenset({"field_removed", "field_installed", "entry_appended", "entry_superseded",
                        "history_compressed"})


class Hashes(PerTopic):
    """Each topic's content hash, in topic id order: the input of `state_digest`."""

    kinds = TEXT_KINDS | {"topic_created", "topic_removed", "topic_archived", "field_created", "salience_set",
                          "unit_accessed", "tier_set"}

    def value(self, state: MemoryState, topic: Topic) -> bytes:
        return topic.content_hash()

    def changed(self, tid: str, old, new) -> None:
        if old is None:  # inserted at the end, perhaps out of order
            ids = reversed(self.values)
            next(ids)
            if next(ids, tid) > tid:
                self.values = dict(sorted(self.values.items()))


class Counts(PerTopic):
    """Each topic's `(active fields, serves a stale value)`, where either is
    not 0, and their totals: `active` is `active_footprint`, and `stale`,
    the topics that would serve a superseded value as current, is above 0
    exactly when `stale_current_exists`."""

    kinds = TEXT_KINDS | {"topic_removed", "topic_archived", "field_created", "tier_set"}
    active = 0
    stale = 0

    def value(self, state: MemoryState, topic: Topic) -> Optional[tuple[int, bool]]:
        active, stale = 0, False
        for f in topic.fields.values():
            active += f.tier is ACTIVE and not topic.archived
            stale = stale or _serves_stale(f)
        return (active, stale) if active or stale else None

    def changed(self, tid: str, old, new) -> None:
        old_active, old_stale = old or (0, False)
        new_active, new_stale = new or (0, False)
        self.active += new_active - old_active
        self.stale += new_stale - old_stale


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


class Ranking(PerTopic):
    """Each live topic's vector, and each embedding bucket's posting list
    `{live topic id: integer term}`.  Only `rank_topics` reads it, so ticks
    and hinted ingests never pay for its settle."""

    kinds = TEXT_KINDS | {"topic_created", "topic_removed", "topic_archived"}
    postings: dict[int, dict[str, int]] = {}

    def value(self, state: MemoryState, topic: Topic) -> Optional[EmbeddingVector]:
        return None if topic.archived else topic.vector()

    def changed(self, tid: str, old, new) -> None:
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


class Ladder(PerTopic):
    """Each live topic's due epoch (`salience.due_epoch`) under `params`, so
    that the forget ladder visits only the topics due by the state's epoch.
    Due epochs are not kept in order: `due_by` filters the one table, which
    a settle copies once however many topics it moves.

    A settle reads each marked topic's due at the state's epoch, and an
    unmarked topic keeps the due it was read with.  A later read would find
    the same one: a due epoch is the first at which the ladder would act,
    and every tick runs the ladder, which takes, and so marks, each topic
    due by its epoch (`due_by`).  `MemoryState.ladder` reads it for the
    salience parameters of a config, and builds it afresh for other
    parameters than it was built for."""

    kinds = Hashes.kinds  # what changes a topic's hash may change its due epoch
    params = SalienceParams()

    def value(self, state: MemoryState, topic: Topic) -> Optional[int]:
        return due_epoch(topic, self.params, state.epoch)

    def read_for(self, state: MemoryState, params: SalienceParams) -> "Ladder":
        if params is self.params or (self.built and params == self.params):
            return self.read(state)
        part = Ladder()
        part.params = params
        return part.build(state)

    def due_by(self, epoch: int) -> list[str]:
        """The topics due at `epoch` or before, in id order, each marked so
        that the next read settles it again, whether or not the ladder then
        changes it."""
        due = sorted(tid for tid, d in self.values.items() if d <= epoch)
        self._pending.update(due)
        return due


class TopicEvidence(NamedTuple):
    """What revision evidence a live topic gives, whatever the config."""

    tokens: frozenset[str]  # of its title
    conflicts: tuple[str, ...]  # the fields with more than one current entry, in name order
    entries: int  # the entries of all its fields
    tags: tuple[tuple[str, int], ...]  # (entity tag, fields carrying it), by tag


# the entered titles up to which a settle of the evidence part compares each
# with every live title rather than recompute all pairs
PROBED_TITLES_MAX = 8


def _notable(value: Optional[TopicEvidence]) -> bool:
    return value is not None and bool(value.conflicts or value.tags)


class Evidence(PerTopic):
    """Each live topic's `TopicEvidence`; `notable`, the live topics with a
    conflict or a tag; and `pairs`, in id order, the live topic pairs whose
    titles share at least half the smaller title's tokens.

    No delta kind rewrites a title, so `pairs` change only when a topic
    enters or leaves the live set (or is removed and created again under
    another title).  A settle in which up to `PROBED_TITLES_MAX` titles
    entered drops the pairs of the moved topics and compares each entered
    title with every live one; past that, recomputing all pairs by the
    prefix filter costs less.  Only `detect_evidence` reads the part."""

    kinds = TEXT_KINDS | {"topic_created", "topic_removed", "topic_archived", "field_created"}
    notable: set[str] = set()
    pairs: list[tuple[str, str]] = []

    def value(self, state: MemoryState, topic: Topic) -> Optional[TopicEvidence]:
        if topic.archived:
            return None
        entries, conflicts, tags = 0, [], {}
        for name, f in topic.fields.items():
            entries += len(f.history)
            if len(f.history) > 1 and sum(not (e.superseded or e.compressed) for e in f.history) > 1:
                conflicts.append(name)
            if f.entity_tag:
                tags[f.entity_tag] = tags.get(f.entity_tag, 0) + 1
        return TopicEvidence(frozenset(tokenize(topic.title)), tuple(sorted(conflicts)) if conflicts else (),
                             entries, tuple(sorted(tags.items())) if tags else ())

    def changed(self, tid: str, old, new) -> None:
        now = _notable(new)
        if now != _notable(old):
            if now:
                self._table("notable").add(tid)
            else:
                self._table("notable").remove(tid)

    def settle(self, state: MemoryState, marked: Iterable[str]) -> list[tuple[str, object, object]]:
        changes = super().settle(state, marked)
        moved = {tid for tid, old, new in changes if old is None or new is None or old.tokens != new.tokens}
        if moved:
            entered = sorted(moved & self.values.keys())
            if len(entered) <= PROBED_TITLES_MAX:
                self.pairs = self._probed_pairs(moved, entered)
            else:
                self.pairs = self._overlapping_pairs()
        return changes

    def _probed_pairs(self, moved: set[str], entered: list[str]) -> list[tuple[str, str]]:
        """The pairs with no moved topic, and each entered title's overlaps
        with every live title, a pair of two entered ones counted once."""
        pairs = [pair for pair in self.pairs if pair[0] not in moved and pair[1] not in moved]
        for a in entered:
            tokens = self.values[a].tokens
            for b, value in self.values.items():
                shared = len(tokens & value.tokens)
                if shared and shared / min(len(tokens), len(value.tokens)) >= 0.5 and (b not in moved or a < b):
                    pairs.append((a, b) if a < b else (b, a))
        return sorted(pairs)

    def _overlapping_pairs(self) -> list[tuple[str, str]]:
        """All pairs, by a prefix filter (Bayardo et al., WWW 2007): two
        non-empty token sets with |a & b| >= min(|a|, |b|) / 2 must share one
        of the smaller set's k // 2 + 1 rarest tokens, k being its size,
        because at most k - ceil(k/2) of its tokens lie outside the
        intersection.  Sets are indexed by their prefix in order of size and
        every set probes with all of its tokens, so each probe meets only
        sets no larger than itself."""
        ids = sorted(self.values)
        titles = [self.values[tid].tokens for tid in ids]
        df = Counter(tok for tokens in titles for tok in tokens)
        rarity = {tok: r for r, tok in enumerate(sorted(sorted(df), key=df.__getitem__))}
        index: dict[str, list[int]] = {}
        candidates: set[tuple[int, int]] = set()
        for j in sorted(range(len(titles)), key=lambda j: len(titles[j])):
            tokens = titles[j]
            for tok in tokens:
                for i in index.get(tok, ()):
                    candidates.add((i, j) if i < j else (j, i))
            for tok in sorted(tokens, key=rarity.__getitem__)[: len(tokens) // 2 + 1]:
                index.setdefault(tok, []).append(j)
        return [(ids[i], ids[j]) for i, j in sorted(candidates)
                if len(titles[i] & titles[j]) / min(len(titles[i]), len(titles[j])) >= 0.5]


PARTS = {"hashes": Hashes, "counts": Counts, "edges": Edges, "ranking": Ranking, "ladder": Ladder,
         "evidence": Evidence}
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
    if f is None or f.tier is HIDDEN:
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
    counts part's `active`, which `MemoryState.footprint` reads)."""
    return sum(1 for topic in state.topics.values() if not topic.archived
               for f in topic.fields.values() if f.tier is ACTIVE)


def stale_current_exists(state: MemoryState) -> bool:
    """True if some field's current entry is not its latest non-compressed
    entry, by a full scan (the reference for the counts part's `stale`)."""
    return any(_serves_stale(f) for topic in state.topics.values() for f in topic.fields.values())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _json(value) -> str:
    """`canonical_json(value)` for a scalar: by hand for a string, an int, a
    bool, None and a finite float, as `json` encodes each, and by
    `canonical_json` for anything else."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return canonical_json(value)


def _enclosed(head: bytes, items: list[bytes], tail: bytes) -> list[bytes]:
    """`items` with `head` joined to the first and `tail` to the last, so
    that their join by commas is `head + b",".join(items) + tail`."""
    if not items:
        return [head + tail]
    items[0] = head + items[0]
    items[-1] += tail
    return items


def _entry_json(e: ValueEntry) -> str:
    """`canonical_json(e.to_dict())`, by hand: keys sorted, no spaces."""
    provenance = ",".join([f'{{"event_id":{_json(p.event_id)},"excerpt":{_json(p.excerpt)},'
                           f'"source_id":{_json(p.source_id)}}}' for p in e.provenance])
    return (f'{{"at":{_json(e.at)},"compressed":{_json(e.compressed)},"provenance":[{provenance}],'
            f'"superseded":{_json(e.superseded)},"value":{_json(e.value)}}}')


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
OBJECT_OR_NULL, LIST_OR_NULL = (dict, type(None)), (list, type(None))


def check_types(error: type[Exception], what: str, values: dict, types: dict[str, tuple[type, ...]]) -> None:
    """Raise `error` unless each value that `types` names has one of the
    types listed for it."""
    for name, allowed in types.items():
        if type(values[name]) not in allowed:
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise error(f"{what} {name} must be {expected}, got {values[name]!r}")


def check_keys(error: type[Exception], what: str, values: dict, known) -> None:
    """Raise `error` naming the smallest key of `values` that `known` lacks."""
    unknown = sorted(values.keys() - set(known))
    if unknown:
        raise error(f"{what} has an unknown key {unknown[0]!r}")


def decode(what: str, d: dict, types: dict[str, tuple[type, ...]], **defaults) -> dict:
    """The values of a decoder's input `d`, each key that `d` lacks taking
    its value from `defaults`, checked against `types`: a key missing
    without a default raises KeyError, a value of another type TypeError
    (`check_types`), and a key that `types` does not name ValueError
    (`check_keys`).  Every decoder of outside input checks it here before
    it builds anything from it."""
    values = {**defaults, **d} if defaults else d
    check_types(TypeError, what, values, types)
    if len(values) != len(types):  # once every key of `types` is found, another makes it longer
        check_keys(ValueError, what, values, types)
    return values


# the keys and value types of each part of a state, and of the nested
# payloads of deltas
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
    """The state as the JSON object a journal's genesis holds; the program
    writes it by `state_bytes`, and this is the reference for those bytes."""
    return {
        "topics": {tid: t.to_dict() for tid, t in sorted(state.topics.items())},
        "edges": [e.to_dict() for _, e in sorted(state.edges.items())],
        "policies": [render_policy(p) for p in state.policies],
        "clock": state.clock,
        "epoch": state.epoch,
        "revision_queue": sorted(list(pair) for pair in state.revision_queue),
    }


def state_bytes(state: MemoryState) -> bytes:
    """`canonical_json(state_to_dict(state))`, encoded, joined from the
    encodings its topics, edges and policies already make: each topic's
    `canonical_bytes()` in id order, each edge's and each policy's memoised
    `canonical_bytes`, the edges in key order, and the clock, epoch and
    revision queue written by hand, the queue as `state_digest` writes it."""
    topics = [b'%s:%s' % (_encode_str(tid).encode(), t.canonical_bytes()) for tid, t in sorted(state.topics.items())]
    return b"".join([
        b'{"clock":%s,"edges":[' % _json(state.clock).encode(),
        b",".join([e.canonical_bytes for _, e in sorted(state.edges.items())]),
        b'],"epoch":%s,"policies":[' % _json(state.epoch).encode(),
        b",".join([p.canonical_bytes for p in state.policies]),
        b'],"revision_queue":%s,"topics":{' % _queue_bytes(state.revision_queue),
        b",".join(topics),
        b"}}",
    ])


def state_from_dict(d: dict) -> MemoryState:
    """Decode a genesis or snapshot state, each of whose parts must carry its
    keys with their types and no other key, each topic and field keyed under
    its own name; anything else raises KeyError, TypeError or ValueError."""
    d = decode("state", d, _STATE_TYPES)
    edges = {}
    for ed in d["edges"]:
        e = Edge.from_dict(ed)
        edges[e.key()] = e
    topics = {tid: Topic.from_dict(td) for tid, td in d["topics"].items()}
    for tid, topic in topics.items():
        if topic.id != tid:
            raise ValueError(f"topic {topic.id!r} keyed under {tid!r}")
    queue = {(a, b) for a, b in d["revision_queue"]}
    if any(type(a) is not str or type(b) is not str for a, b in queue):
        raise TypeError("state revision_queue must hold pairs of strings")
    state = MemoryState(
        topics=topics,
        edges=edges,
        policies=[parse_policy(text) for text in d["policies"]],
        clock=d["clock"],
        epoch=d["epoch"],
        revision_queue=queue,
    )
    check_references(state)
    return state


def _queue_bytes(queue: set[tuple[str, str]]) -> bytes:
    """The revision queue's canonical JSON, its pairs sorted, by hand."""
    return ("[" + ",".join(f"[{_json(t)},{_json(c)}]" for t, c in sorted(queue)) + "]").encode()


def state_digest(state: MemoryState) -> str:
    """Content digest independent of container iteration order.

    Two levels: each topic contributes the SHA-256 of its canonical JSON, so
    a commit re-hashes only the topics it touched.  A topic's bytes
    (`Topic.canonical_bytes`) equal `canonical_json` of its `to_dict()`, but
    are joined from each entry's bytes, encoded once when the entry is made,
    so a commit encodes only the new entries and the scalars around them,
    though it still hashes the whole topic.  Every section is
    self-delimiting: the clock and epoch pair and the sorted revision queue
    are their canonical JSON, written by hand; the policies and the edges
    are JSON lists of the encodings memoised on each (`canonical_bytes`),
    the policies in list order and the edges in byte order; and the topic
    hashes, in topic id order, are fixed-width and preceded by their count.
    The topic hashes, their order and the edge section are read from the
    state's parts.
    """
    hashes = state.part("hashes").values
    h = hashlib.sha256()
    h.update(b"[%d,%d]" % (state.clock, state.epoch))
    h.update(b"[" + b",".join([p.canonical_bytes for p in state.policies]) + b"]")
    h.update(state.part("edges").section)
    h.update(_queue_bytes(state.revision_queue))
    h.update(b"%d:" % len(hashes))
    h.update(b"".join(hashes.values()))
    return h.hexdigest()


def fresh_embedding_for(topic: Topic) -> EmbeddingVector:
    return embed(topic.content_text())
