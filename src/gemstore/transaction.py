"""Replayable primitive deltas and the copy-on-write transaction builder.

Every state change an operator makes is expressed as a serializable delta.
The transaction applies each delta to its working copy the moment it is
recorded, so the committed snapshot is by construction exactly what replaying
the delta list against the prior snapshot produces.
"""

from __future__ import annotations

from typing import Optional

from .model import (
    BOOL,
    INT,
    NUMBER,
    OBJECT,
    STR,
    STR_OR_NULL,
    Edge,
    EdgeKind,
    Field,
    MemoryState,
    Tier,
    Topic,
    ValueEntry,
    check_types,
    decoding,
    salience_fault,
)


class DeltaError(ValueError):
    """A delta is malformed or references state that does not exist; a
    journal that holds one is corrupt."""


class DeltaKind:
    """One row of `DELTA_KINDS`: a kind's operands, name -> the types its
    value may have, in recorder argument order, and whether the kind can
    change a topic's `content_text()`, and so its embedding; `subject` names
    the operand whose topic it marks in the state's parts, if any."""

    __slots__ = ("operands", "keys", "text", "subject")

    def __init__(self, operands: dict[str, tuple[type, ...]], text: bool = False):
        self.operands = operands
        self.keys = frozenset(("kind", *operands))
        self.text = text
        self.subject = next((name for name in ("id", "topic", "src") if name in operands), None)


_TOPIC_FIELD = {"topic": STR, "field": STR}

DELTA_KINDS: dict[str, DeltaKind] = {
    "topic_created": DeltaKind({"id": STR, "title": STR, "summary": STR}),
    "topic_removed": DeltaKind({"id": STR}),
    "topic_archived": DeltaKind({"id": STR, "merged_into": STR_OR_NULL}),
    "field_created": DeltaKind(
        {**_TOPIC_FIELD, "entity_tag": STR_OR_NULL, "salience": NUMBER, "last_access": INT, "tier": STR}
    ),
    "field_removed": DeltaKind(_TOPIC_FIELD, text=True),
    "field_installed": DeltaKind({"topic": STR, "payload": OBJECT}, text=True),
    "entry_appended": DeltaKind({**_TOPIC_FIELD, "entry": OBJECT}, text=True),
    "entry_flags": DeltaKind({**_TOPIC_FIELD, "index": INT, "superseded": BOOL, "compressed": BOOL}, text=True),
    "history_compressed": DeltaKind({**_TOPIC_FIELD, "count": INT, "summary": OBJECT}, text=True),
    "salience_set": DeltaKind({**_TOPIC_FIELD, "value": NUMBER}),
    "epoch_advanced": DeltaKind({}),
    "last_access_set": DeltaKind({**_TOPIC_FIELD, "tick": INT}),
    "tier_set": DeltaKind({**_TOPIC_FIELD, "tier": STR}),
    "edge_added": DeltaKind({"src": STR, "dst": STR, "edge_kind": STR, "tick": INT}),
    "edge_removed": DeltaKind({"src": STR, "dst": STR, "edge_kind": STR}),
    "flag_added": DeltaKind({"topic": STR, "cause": STR}),
    "flag_removed": DeltaKind({"topic": STR}),
}


def apply_delta(state: MemoryState, delta: dict) -> None:
    """Mutate `state` in place according to one delta, and mark its topic in
    the state's parts that its kind concerns.  Deterministic.  A
    delta whose kind is unknown, or whose keys or operand types differ from
    its kind's row of `DELTA_KINDS`, raises DeltaError before any change."""
    try:
        kind = delta["kind"]
        spec = DELTA_KINDS[kind]
    except (KeyError, TypeError):
        raise DeltaError(f"delta of no known kind: {delta!r}") from None
    if delta.keys() != spec.keys:
        raise DeltaError(f"{kind} delta must carry {sorted(spec.keys)}, got {sorted(delta)}")
    check_types(DeltaError, kind, delta, spec.operands)
    if kind == "topic_created":
        tid = delta["id"]
        if tid in state.topics:
            raise DeltaError(f"topic already exists: {tid}")
        state.topics[tid] = Topic(id=tid, title=delta["title"], summary=delta["summary"])
        if state.owned is not None:
            state.owned.add(tid)
    elif kind == "topic_removed":
        if state.topics.pop(delta["id"], None) is None:  # removed, so not copied
            raise DeltaError(f"unknown topic: {delta['id']}")
        for key in [k for k, e in state.edges.items() if e.src == delta["id"] or e.dst == delta["id"]]:
            del state.edges[key]
        state.revision_queue = {(t, c) for t, c in state.revision_queue if t != delta["id"]}
    elif kind == "topic_archived":
        topic = _topic(state, delta["id"])
        topic.archived = True
        topic.archived_at = state.epoch  # its salience stays as it reads now
        topic.merged_into = delta["merged_into"]
    elif kind == "field_created":
        topic = _topic(state, delta["topic"])
        if delta["field"] in topic.fields:
            raise DeltaError(f"field already exists: {delta['topic']}.{delta['field']}")
        _check_salience(delta, delta["salience"])
        topic.fields[delta["field"]] = Field(
            name=delta["field"],
            entity_tag=delta["entity_tag"],
            salience=delta["salience"],
            since=state.epoch_of(topic),
            tier=Tier(delta["tier"]),
            last_access=delta["last_access"],
        )
    elif kind == "field_removed":
        topic = _topic(state, delta["topic"])
        _field(topic, delta["field"])
        del topic.fields[delta["field"]]
    elif kind == "field_installed":
        installed = _payload(Field.from_dict, delta["payload"])
        topic = _topic(state, delta["topic"])
        _check_salience(delta, installed.salience, installed.since, state.epoch_of(topic))
        topic.fields[installed.name] = installed
    elif kind == "entry_appended":
        entry = _payload(ValueEntry.from_dict, delta["entry"])
        _field(_topic(state, delta["topic"]), delta["field"]).history.append(entry)
    elif kind == "entry_flags":
        f = _field(_topic(state, delta["topic"]), delta["field"])
        idx = delta["index"]
        if not 0 <= idx < len(f.history):
            raise DeltaError(f"entry index out of range: {delta['topic']}.{delta['field']}[{idx}]")
        entry = f.history[idx]
        f.history[idx] = ValueEntry(
            value=entry.value,
            at=entry.at,
            provenance=entry.provenance,
            superseded=delta["superseded"],
            compressed=delta["compressed"],
        )
    elif kind == "history_compressed":
        summary = _payload(ValueEntry.from_dict, delta["summary"])
        f = _field(_topic(state, delta["topic"]), delta["field"])
        count = delta["count"]
        if not 1 <= count <= len(f.history):
            raise DeltaError(f"compression run of {count} outside a history of {len(f.history)}")
        f.history = [summary] + f.history[count:]
    elif kind == "salience_set":
        topic = _topic(state, delta["topic"])
        f = _field(topic, delta["field"])
        _check_salience(delta, delta["value"])
        f.salience = delta["value"]
        f.since = state.epoch_of(topic)
    elif kind == "epoch_advanced":
        # every live salience reads one decay step lower; no topic changes
        state.epoch += 1
    elif kind == "last_access_set":
        f = _field(_topic(state, delta["topic"]), delta["field"])
        f.last_access = delta["tick"]
    elif kind == "tier_set":
        f = _field(_topic(state, delta["topic"]), delta["field"])
        f.tier = Tier(delta["tier"])
    elif kind == "edge_added":
        edge = Edge(delta["src"], delta["dst"], EdgeKind(delta["edge_kind"]), delta["tick"])
        if edge.src == edge.dst:
            raise DeltaError("self-loop edge")
        if edge.src not in state.topics or edge.dst not in state.topics:
            raise DeltaError(f"edge endpoint missing: {edge.src} -> {edge.dst}")
        state.edges[edge.key()] = edge
    elif kind == "edge_removed":
        if state.edges.pop((delta["src"], delta["dst"], delta["edge_kind"]), None) is None:
            raise DeltaError(f"unknown edge: {delta['src']} -> {delta['dst']} ({delta['edge_kind']})")
    elif kind == "flag_added":
        if delta["topic"] not in state.topics:
            raise DeltaError(f"flag for unknown topic: {delta['topic']}")
        state.revision_queue.add((delta["topic"], delta["cause"]))
    elif kind == "flag_removed":
        state.revision_queue = {(t, c) for t, c in state.revision_queue if t != delta["topic"]}
    if spec.text:
        state.topics[delta["topic"]].embedding = None
    if spec.subject is not None:
        state.mark(kind, delta[spec.subject])


def _check_salience(delta: dict, salience: float, since: int = 0, epoch: int = 0) -> None:
    """Refuse a salience, set at epoch `since` and read at `epoch`, that the
    ladder's `decay` would refuse."""
    fault = salience_fault(salience, since, epoch)
    if fault is not None:
        raise DeltaError(f"{delta['kind']} of {delta['topic']}: {fault}")


def _payload(decode, payload: dict):
    """A delta's nested entry or field, decoded; a malformed one raises
    DeltaError."""
    with decoding(DeltaError, "malformed payload"):
        return decode(payload)


def _topic(state: MemoryState, tid: str) -> Topic:
    """The topic a delta is about to change, copied first if `state` shares
    it with the state it was cloned from."""
    topic = state.topics.get(tid)
    if topic is None:
        raise DeltaError(f"unknown topic: {tid}")
    if state.owned is not None and tid not in state.owned:
        topic = state.topics[tid] = topic.clone()
        state.owned.add(tid)
    return topic


def _field(topic: Topic, name: str) -> Field:
    f = topic.fields.get(name)
    if f is None:
        raise DeltaError(f"unknown field: {topic.id}.{name}")
    return f


class Txn:
    """Copy-on-write working state plus the delta log that produced it."""

    def __init__(self, base: MemoryState):
        self.state = base.shallow_clone()
        self.deltas: list[dict] = []

    def _record(self, kind: str, *operands) -> None:
        """Apply and log one delta of `kind`, its operands named in the order
        of its row of `DELTA_KINDS`."""
        delta = dict(zip(DELTA_KINDS[kind].operands, operands), kind=kind)
        apply_delta(self.state, delta)
        self.deltas.append(delta)

    def derive_embeddings(self) -> None:
        """Fill the embedding memo of every live topic this transaction
        changed, unless the ranking part, which alone reads it, is unbuilt."""
        if not self.state.parts["ranking"].built:
            return
        for tid in self.state.owned:
            topic = self.state.topics.get(tid)
            if topic is not None:
                topic.vector()

    # -- mutators ---------------------------------------------------------

    def create_topic(self, topic_id: str, title: str, summary: str) -> None:
        self._record("topic_created", topic_id, title, summary)

    def remove_topic(self, topic_id: str) -> None:
        self._record("topic_removed", topic_id)

    def archive_topic(self, topic_id: str, merged_into: Optional[str] = None) -> None:
        self._record("topic_archived", topic_id, merged_into)

    def create_field(
        self, topic_id: str, name: str, entity_tag: Optional[str], salience: float, last_access: int
    ) -> None:
        self._record("field_created", topic_id, name, entity_tag, salience, last_access, Tier.ACTIVE.value)

    def remove_field(self, topic_id: str, name: str) -> None:
        self._record("field_removed", topic_id, name)

    def install_field(self, topic_id: str, payload: Field) -> None:
        self._record("field_installed", topic_id, payload.to_dict())

    def append_entry(self, topic_id: str, name: str, entry: ValueEntry) -> None:
        self._record("entry_appended", topic_id, name, entry.to_dict())

    def set_entry_flags(self, topic_id: str, name: str, index: int, superseded: bool, compressed: bool) -> None:
        self._record("entry_flags", topic_id, name, index, superseded, compressed)

    def compress_history(self, topic_id: str, name: str, count: int, summary: ValueEntry) -> None:
        self._record("history_compressed", topic_id, name, count, summary.to_dict())

    def set_salience(self, topic_id: str, name: str, value: float) -> None:
        self._record("salience_set", topic_id, name, value)

    def advance_epoch(self) -> None:
        self._record("epoch_advanced")

    def set_last_access(self, topic_id: str, name: str, tick: int) -> None:
        self._record("last_access_set", topic_id, name, tick)

    def set_tier(self, topic_id: str, name: str, tier: Tier) -> None:
        self._record("tier_set", topic_id, name, tier.value)

    def add_edge(self, src: str, dst: str, kind: EdgeKind, tick: int) -> None:
        self._record("edge_added", src, dst, kind.value, tick)

    def remove_edge(self, src: str, dst: str, kind: EdgeKind) -> None:
        self._record("edge_removed", src, dst, kind.value)

    def add_flag(self, topic_id: str, cause: str) -> None:
        self._record("flag_added", topic_id, cause)

    def remove_flag(self, topic_id: str) -> None:
        self._record("flag_removed", topic_id)
