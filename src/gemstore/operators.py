"""The four state-level operator branches: ingestion, revision, forgetting,
and retrieval, plus the evidence read that feeds revision.

Operators are pure in the sense that they only touch the transaction's
working copy; sequencing, policy evaluation and commit belong to the engine.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .config import EngineConfig
from .embedding import cosine, rank_topics, select_host, tokenize
from .model import (
    INT,
    INT_OR_NULL,
    LIST,
    LIST_OR_NULL,
    NUMBER_OR_NULL,
    STR,
    STR_OR_NULL,
    EdgeKind,
    MemoryState,
    Provenance,
    ValueEntry,
    decode,
)
from .salience import ACTIVE, HIDDEN, SalienceParams, bump, compress_cut, decay, dormant, tier_of
from .transaction import Txn


class OperatorError(ValueError):
    """Operator-level failure; the engine turns these into aborted records."""


class RuleError(ValueError):
    """A dependency rule file does not parse."""


# ---------------------------------------------------------------------------
# Inputs and outputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fact:
    field: str
    value: str
    entity_tag: Optional[str] = None
    excerpt: str = ""

    def to_dict(self) -> dict:
        return {"field": self.field, "value": self.value, "entity_tag": self.entity_tag, "excerpt": self.excerpt}

    @staticmethod
    def from_dict(d: dict) -> "Fact":
        return Fact(**decode("fact", d, _FACT_TYPES, entity_tag=None, excerpt=""))


@dataclass(frozen=True)
class FactBundle:
    facts: tuple[Fact, ...]
    text: str
    source_id: str = "session"
    topic_hint: Optional[str] = None

    def to_dict(self) -> dict:
        return {**vars(self), "facts": [f.to_dict() for f in self.facts]}

    @staticmethod
    def from_dict(d: dict) -> "FactBundle":
        d = decode("bundle", d, _BUNDLE_TYPES, source_id="session", topic_hint=None)
        return FactBundle(tuple(map(Fact.from_dict, d["facts"])), d["text"], d["source_id"], d["topic_hint"])


_FACT_TYPES = {"field": STR, "value": STR, "entity_tag": STR_OR_NULL, "excerpt": STR}
_BUNDLE_TYPES = {"facts": LIST, "text": STR, "source_id": STR, "topic_hint": STR_OR_NULL}


@dataclass(frozen=True)
class Query:
    text: str = ""
    mode: str = "default"  # default | historical | structural | explicit
    as_of: Optional[int] = None
    root: Optional[str] = None
    depth: int = 1
    explicit: Optional[tuple[str, str]] = None  # (topic id, field name)

    def to_dict(self) -> dict:
        return {**vars(self), "explicit": list(self.explicit) if self.explicit else None}

    @staticmethod
    def from_dict(d: dict) -> "Query":
        d = decode("query", d, _QUERY_TYPES, text="", mode="default", as_of=None, root=None, depth=1, explicit=None)
        explicit = d["explicit"]
        if explicit is not None:
            if len(explicit) != 2 or not all(isinstance(v, str) for v in explicit):
                raise TypeError("query explicit must be null or a pair of strings")
            explicit = tuple(explicit)
        return Query(d["text"], d["mode"], d["as_of"], d["root"], d["depth"], explicit)


_QUERY_TYPES = {"text": STR, "mode": STR, "as_of": INT_OR_NULL, "root": STR_OR_NULL, "depth": INT,
                "explicit": LIST_OR_NULL}


@dataclass(frozen=True)
class Answer:
    topic: str
    field: str
    value: str
    at: int
    provenance: tuple[Provenance, ...]


@dataclass
class RetrievalOutput:
    answers: list[Answer] = dc_field(default_factory=list)
    accessed_units: list[tuple[str, str]] = dc_field(default_factory=list)
    context: list[tuple[str, str]] = dc_field(default_factory=list)  # (topic id, summary)
    # a ranked read's (-cosine, topic id) keys in ranking order; None for
    # the other modes.  Only the auditor reads it (`audit.ProbeMemo`)
    ranked: Optional[list[tuple[float, str]]] = None


@dataclass(frozen=True)
class EvidenceItem:
    kind: str  # duplicate_topics | conflicting_values | dependency_flag | promotion_candidate
    topic: str
    other: Optional[str] = None  # duplicate partner / cause / entity tag
    field: Optional[str] = None
    similarity: Optional[float] = None

    def to_dict(self) -> dict:
        return dict(vars(self))

    @staticmethod
    def from_dict(d: dict) -> "EvidenceItem":
        return EvidenceItem(**decode("evidence", d, _EVIDENCE_TYPES))


_EVIDENCE_TYPES = {"kind": STR, "topic": STR, "other": STR_OR_NULL, "field": STR_OR_NULL, "similarity": NUMBER_OR_NULL}


# ---------------------------------------------------------------------------
# Dependency rules
# ---------------------------------------------------------------------------


_RULE_RE = re.compile(
    r"^\s*([^\s.]+)\.([^\s.]+)\s*->\s*([^\s.]+)\.([^\s.]+)\s*:\s*([A-Za-z0-9_-]+)\s*$"
)


@dataclass(frozen=True)
class DependencyRule:
    cause_topic: str
    cause_field: str
    dependent_topic: str
    dependent_field: str
    transform: str


def _shift_annotation(current: str, cause: str, cause_value: str) -> str:
    note = f"(needs review: {cause} changed to {cause_value})"
    # Idempotent only while the cause value stays the same.  This does not make
    # cyclic extension chains terminate: around a cycle the cause value changes
    # on every pass, so the dependent value keeps growing.
    if current.endswith(note):
        return current
    return f"{current} {note}"


TRANSFORMS = {"shift-annotation": _shift_annotation}


class RuleTable:
    def __init__(self, rules: list[DependencyRule]):
        self.rules = rules

    @staticmethod
    def parse(text: str) -> "RuleTable":
        rules = []
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            m = _RULE_RE.match(stripped)
            if m is None:
                raise RuleError(f"bad dependency rule on line {lineno}: {stripped!r}")
            rule = DependencyRule(*m.groups())
            if rule.transform not in TRANSFORMS:
                raise RuleError(f"unknown transform on line {lineno}: {rule.transform!r}")
            rules.append(rule)
        return RuleTable(rules)

    @staticmethod
    def empty() -> "RuleTable":
        return RuleTable([])

    def for_dependency(self, cause_topic: str, cause_field: str, dependent_topic: str) -> list[DependencyRule]:
        return [
            r
            for r in self.rules
            if r.cause_topic == cause_topic
            and r.cause_field == cause_field
            and r.dependent_topic == dependent_topic
        ]


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

SLUG_TOKENS = 6  # the tokens of a bundle's text that name a new topic


def slugify(text: str) -> str:
    return "-".join(tokenize(text)[:SLUG_TOKENS]) or "topic"


def ingest(txn: Txn, bundle: FactBundle, cfg: EngineConfig) -> list[tuple[str, dict]]:
    """Integrate a fact bundle; returns the sub-events for policy evaluation."""
    if not bundle.facts:
        raise OperatorError("empty-bundle")
    for fact in bundle.facts:
        if not fact.field:
            raise OperatorError("empty-field-name")

    events: list[tuple[str, dict]] = []
    choice = select_host(txn.state, bundle.text, bundle.topic_hint, cfg.tau_topic)
    if choice.topic_id is None:
        topic_id = bundle.topic_hint or slugify(bundle.text)
        if topic_id in txn.state.topics:
            topic_id = f"{topic_id}-{txn.tick}"
        title = bundle.text.strip()[:60] or topic_id
        txn.create_topic(topic_id, title=title, summary=bundle.text.strip())
        events.append(("topic_created", {"updated_topic": topic_id}))
    else:
        topic_id = choice.topic_id

    for fact in bundle.facts:
        provenance = (Provenance(bundle.source_id, txn.tick, fact.excerpt or bundle.text.strip()),)
        topic = txn.state.topics[topic_id]
        existing = topic.fields.get(fact.field)
        if existing is None:
            txn.create_field(topic_id, fact.field, fact.entity_tag, cfg.salience.s0)
            txn.append_entry(topic_id, fact.field, fact.value, provenance)
            events.append(("field_updated", {"updated_topic": topic_id, "updated_field": fact.field}))
            continue
        current = existing.current_entry()
        if current is not None and current.value == fact.value:
            # exact duplicate of the stored current value: no new entry, just reinforce
            s = txn.state.salience(topic, existing, cfg.salience.decay)
            txn.set_salience(topic_id, fact.field, _bumped(s, cfg.salience))
            continue
        if current is not None:
            txn.supersede_entry(topic_id, fact.field, existing.current_index())
        txn.append_entry(topic_id, fact.field, fact.value, provenance)
        events.append(("field_updated", {"updated_topic": topic_id, "updated_field": fact.field}))
    return events


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


def retrieve_read(state: MemoryState, q: Query, cfg: EngineConfig) -> RetrievalOutput:
    """Pure read half of retrieval; shared with the auditor."""
    out = RetrievalOutput()
    if q.mode == "explicit":
        if q.explicit is None:
            raise OperatorError("explicit lookup requires (topic, field)")
        topic_id, field_name = q.explicit
        topic = state.topics.get(topic_id)
        f = topic.fields.get(field_name) if topic else None
        if f is None:
            raise OperatorError("unknown-unit")
        for entry in f.history:
            out.answers.append(Answer(topic_id, field_name, entry.value, entry.at, entry.provenance))
        out.accessed_units.append((topic_id, field_name))
        return out

    if q.mode == "structural":
        if q.root is None or q.root not in state.topics:
            raise OperatorError("unknown-unit")
        if q.depth < 1:
            raise OperatorError("structural depth must be at least 1")
        seen = {q.root}
        frontier = [q.root]
        out.context.append((q.root, state.topics[q.root].summary))
        for _ in range(q.depth):
            nxt = []
            for tid in frontier:
                neighbors = set(state.association_neighbors(tid)) | set(state.extension_successors(tid))
                for n in sorted(neighbors):
                    if n not in seen:
                        seen.add(n)
                        nxt.append(n)
                        out.context.append((n, state.topics[n].summary))
            frontier = nxt
            if not frontier:  # nothing further is reachable, at any depth
                break
        return out

    if q.mode not in ("default", "historical"):
        raise OperatorError(f"unknown query mode: {q.mode}")
    if q.mode == "historical" and q.as_of is not None and q.as_of > state.clock:
        raise OperatorError("historical as_of is in the future")

    ranked = rank_topics(state, q.text, cfg.k_topics)
    out.ranked = [(score, tid) for score, tid, _ in ranked]
    q_tokens = set(tokenize(q.text))

    answered_topics = []
    for _, _, topic in ranked:
        topic_answered = False
        for name in sorted(topic.fields):
            f = topic.fields[name]
            if not q_tokens & set(tokenize(name)):
                continue
            if q.mode == "default":
                if f.tier is HIDDEN:
                    continue
                entry = f.current_entry()
                if entry is None:
                    continue
                out.answers.append(Answer(topic.id, name, entry.value, entry.at, entry.provenance))
                out.accessed_units.append((topic.id, name))
                topic_answered = True
            else:  # historical: all entries up to as_of, superseded included
                hit = False
                for entry in f.history:
                    if q.as_of is None or entry.at <= q.as_of:
                        out.answers.append(Answer(topic.id, name, entry.value, entry.at, entry.provenance))
                        hit = True
                if hit:
                    out.accessed_units.append((topic.id, name))
                    topic_answered = True
        if topic_answered:
            answered_topics.append(topic.id)

    # association-linked context; context-only topics get no salience bump
    for tid in answered_topics:
        for neighbor in state.association_neighbors(tid):
            topic = state.topics[neighbor]
            if not topic.archived and all(c[0] != neighbor for c in out.context):
                out.context.append((neighbor, topic.summary))
    return out


def retrieve(txn: Txn, q: Query, cfg: EngineConfig) -> tuple[RetrievalOutput, list[tuple[str, dict]]]:
    out = retrieve_read(txn.state, q, cfg)
    events: list[tuple[str, dict]] = []
    seen_topics = set()
    for topic_id, field_name in out.accessed_units:
        topic = txn.state.topics[topic_id]
        s = txn.state.salience(topic, topic.fields[field_name], cfg.salience.decay)
        txn.access_unit(topic_id, field_name, _bumped(s, cfg.salience))
        if topic_id not in seen_topics:
            seen_topics.add(topic_id)
            events.append(("retrieval_performed", {"accessed_topic": topic_id}))
    return out, events


def _bumped(s: float, p: SalienceParams) -> float:
    """`s` bumped by an access; one past the float range, which the forget
    ladder could not decay, is refused."""
    bumped = bump(s, p.delta_access)
    if bumped == math.inf:
        raise OperatorError(f"salience bumped past the float range: {s!r} + {p.delta_access!r}")
    return bumped


# ---------------------------------------------------------------------------
# Revision
# ---------------------------------------------------------------------------


def detect_evidence(state: MemoryState, cfg: EngineConfig) -> list[EvidenceItem]:
    """The evidence an auto-detect revise repairs, in repair order: each
    revision flag; each pair of live topics whose titles overlap by half and
    whose cosine reaches `tau_dup`; each field of a live topic with more
    than one current entry; and each entity tag that `n_promote` fields of a
    live topic with `m_promote` entries carry and that names no topic yet.

    The state's evidence part keeps the title overlaps, conflicts, entry
    totals and tag counts, settled for the topics changed since its last
    read; the cosines and the config's thresholds are applied here."""
    items = [EvidenceItem("dependency_flag", tid, other=cause) for tid, cause in sorted(state.revision_queue)]
    evidence = state.part("evidence")
    topics = state.topics
    for a, b in evidence.pairs:
        sim = cosine(topics[a].vector(), topics[b].vector())
        if sim >= cfg.tau_dup:
            items.append(EvidenceItem("duplicate_topics", a, other=b, similarity=sim))
    notable = [(tid, evidence.values[tid]) for tid in sorted(evidence.notable)]
    for tid, found in notable:
        items.extend(EvidenceItem("conflicting_values", tid, field=name) for name in found.conflicts)
    for tid, found in notable:
        if found.entries >= cfg.m_promote:
            items.extend(EvidenceItem("promotion_candidate", tid, other=tag) for tag, count in found.tags
                         if count >= cfg.n_promote and slugify(tag) not in topics)
    return items


def _merge_histories(a: list[ValueEntry], b: list[ValueEntry]) -> list[ValueEntry]:
    merged = sorted(a + b, key=lambda e: e.at)
    candidates = [e for e in merged if not e.compressed]
    current = candidates[-1] if candidates else None
    out = []
    for e in merged:
        superseded = e is not current
        out.append(ValueEntry(e.value, e.at, e.provenance, superseded=superseded if not e.compressed else True,
                              compressed=e.compressed))
    return out


def revise(txn: Txn, evidence: list[EvidenceItem], cfg: EngineConfig, rules: RuleTable) -> list[tuple[str, dict]]:
    events: list[tuple[str, dict]] = []
    for item in evidence:
        if item.kind == "dependency_flag":
            events.extend(_repair_dependency(txn, item, rules))
        elif item.kind == "duplicate_topics":
            events.extend(_merge_topics(txn, item.topic, item.other, cfg))
        elif item.kind == "conflicting_values":
            events.extend(_resolve_conflict(txn, item.topic, item.field))
        elif item.kind == "promotion_candidate":
            events.extend(_promote(txn, item.topic, item.other))
        else:
            raise OperatorError(f"unknown evidence kind: {item.kind}")
    return events


def _repair_dependency(txn: Txn, item: EvidenceItem, rules: RuleTable) -> list[tuple[str, dict]]:
    topic_id = item.topic
    if topic_id not in txn.state.topics:
        raise OperatorError(f"revision target missing: {topic_id}")
    txn.remove_flag(topic_id)
    cause = item.other or ""
    if "." not in cause:
        return []
    cause_topic, cause_field = cause.split(".", 1)
    cause_entry = None
    src = txn.state.topics.get(cause_topic)
    if src is not None:
        f = src.fields.get(cause_field)
        if f is not None:
            cause_entry = f.current_entry()
    if cause_entry is None:
        return []

    events = []
    topic = txn.state.topics[topic_id]
    for rule in rules.for_dependency(cause_topic, cause_field, topic_id):
        dep = topic.fields.get(rule.dependent_field)
        if dep is None:
            continue
        current = dep.current_entry()
        if current is None:
            continue
        new_value = TRANSFORMS[rule.transform](current.value, cause, cause_entry.value)
        if new_value == current.value:
            continue
        prov = Provenance("revision", cause_entry.at, f"{cause} -> {cause_entry.value}")
        txn.supersede_entry(topic_id, rule.dependent_field, dep.current_index())
        txn.append_entry(topic_id, rule.dependent_field, new_value, (prov,))
        events.append(("field_updated", {"updated_topic": topic_id, "updated_field": rule.dependent_field}))
    return events


def _merge_topics(txn: Txn, a_id: str, b_id: str, cfg: EngineConfig) -> list[tuple[str, dict]]:
    for tid in (a_id, b_id):
        topic = txn.state.topics.get(tid)
        if topic is None:
            raise OperatorError(f"merge target missing: {tid}")
        if topic.archived:
            raise OperatorError(f"merge-archived:{tid}")
    winner_id, loser_id = sorted((a_id, b_id))
    winner = txn.state.topics[winner_id]
    loser = txn.state.topics[loser_id]

    for name in sorted(loser.fields):
        lf = loser.fields[name]
        wf = winner.fields.get(name)
        if wf is None:
            merged = lf.clone()
        else:
            # both topics are live, so either (salience, since) pair suits the winner
            ws, ls = (txn.state.salience(t, f, cfg.salience.decay) for t, f in ((winner, wf), (loser, lf)))
            merged = wf.clone()
            merged.history = _merge_histories(wf.history, lf.history)
            if ls > ws:
                merged.salience, merged.since = lf.salience, lf.since
            merged.last_access = max(wf.last_access, lf.last_access)
            merged.tier = tier_of(max(ws, ls), cfg.salience)
        txn.install_field(winner_id, merged)

    # re-point the loser's edges at the winner; the loser keeps its own
    # history so archived content stays recoverable
    for key, edge in sorted(txn.state.edges.items()):
        if loser_id not in (edge.src, edge.dst):
            continue
        txn.remove_edge(edge.src, edge.dst, edge.kind)
        src = winner_id if edge.src == loser_id else edge.src
        dst = winner_id if edge.dst == loser_id else edge.dst
        if src != dst and (src, dst, edge.kind.value) not in txn.state.edges:
            txn.add_edge(src, dst, edge.kind, edge.created_at)
    txn.archive_topic(loser_id, merged_into=winner_id)
    return [("topic_merged", {"updated_topic": winner_id})]


def _resolve_conflict(txn: Txn, topic_id: str, field_name: str) -> list[tuple[str, dict]]:
    """Keep the latest-dated current value.  When it is not the field's last
    non-compressed entry it is appended again, because a superseded last entry
    would serve a stale value as current."""
    topic = txn.state.topics.get(topic_id)
    f = topic.fields.get(field_name) if topic else None
    if f is None:
        raise OperatorError(f"conflict target missing: {topic_id}.{field_name}")
    currents = [(i, e) for i, e in enumerate(f.history) if not e.superseded and not e.compressed]
    if len(currents) <= 1:
        return []
    keep_index, keep = max(currents, key=lambda pair: (pair[1].at, pair[0]))
    reappend = keep_index != max(i for i, e in enumerate(f.history) if not e.compressed)
    for i, _ in currents:
        if i != keep_index or reappend:
            txn.supersede_entry(topic_id, field_name, i)
    if not reappend:
        return []
    txn.append_entry(topic_id, field_name, keep.value, keep.provenance)
    return [("field_updated", {"updated_topic": topic_id, "updated_field": field_name})]


def _promote(txn: Txn, src_id: str, tag: str) -> list[tuple[str, dict]]:
    src = txn.state.topics.get(src_id)
    if src is None:
        raise OperatorError(f"promotion source missing: {src_id}")
    new_id = slugify(tag)
    if new_id in txn.state.topics:
        return []
    tagged = [name for name in sorted(src.fields) if src.fields[name].entity_tag == tag]
    if not tagged:
        return []
    txn.create_topic(new_id, title=tag.replace("-", " ").title(), summary=f"Split from {src.title}")
    for name in tagged:
        payload = src.fields[name].clone()
        # a field moved out of an archived topic resumes decay from its frozen value
        payload.since += txn.state.epoch - txn.state.epoch_of(src)
        txn.install_field(new_id, payload)
        txn.remove_field(src_id, name)
    txn.add_edge(src_id, new_id, EdgeKind.EXTENSION, txn.tick)
    return [("topic_created", {"updated_topic": new_id})]


# ---------------------------------------------------------------------------
# Forgetting
# ---------------------------------------------------------------------------


def forget(txn: Txn, cfg: EngineConfig, targets: Optional[list[str]] = None) -> None:
    """Apply the graded attenuation ladder to `targets`, or else to the
    topics the ladder part has due by the state's epoch, in id order (the
    others it would leave as they are); then enforce the footprint bound."""
    p = cfg.salience
    state = txn.state
    topic_ids = targets if targets is not None else state.ladder(p).due_by(state.epoch)
    for tid in topic_ids:
        topic = state.topics.get(tid)
        if topic is None or topic.archived:
            continue
        archive = bool(topic.fields)
        epoch = state.epoch_of(topic)
        for name in sorted(topic.fields):
            f = topic.fields[name]
            s = decay(f.salience, epoch - f.since, p.decay)
            archive = archive and dormant(s, p)
            tier = tier_of(s, p)
            cut = compress_cut(f, tier, p.k_recent)
            if cut:
                txn.compress_history(tid, name, cut)
            if f.tier is not tier:
                txn.set_tier(tid, name, tier)
        if archive:
            txn.archive_topic(tid)

    _enforce_footprint(txn, cfg)


def _enforce_footprint(txn: Txn, cfg: EngineConfig) -> None:
    excess = txn.state.footprint() - cfg.beta.bound(txn.tick)
    if excess <= 0:
        return
    # relevance-ordered, never age-ordered: lowest salience goes first
    topics = txn.state.topics
    order = hide_order(txn.state, cfg.salience.decay)
    victims = [(tid, name) for tid, name in order if topics[tid].fields[name].tier is ACTIVE]
    for tid, name in victims[:excess]:
        txn.set_tier(tid, name, HIDDEN)


def hide_order(state: MemoryState, lam: float) -> list[tuple[str, str]]:
    """The order fields would be hidden in under footprint pressure, with
    salience decayed by `lam` per epoch."""
    keyed = []
    for tid in sorted(state.topics):
        topic = state.topics[tid]
        if topic.archived:
            continue
        epoch = state.epoch_of(topic)
        for name in sorted(topic.fields):
            f = topic.fields[name]
            keyed.append((decay(f.salience, epoch - f.since, lam), f.last_access, name, tid))
    keyed.sort()
    return [(tid, name) for _, _, name, tid in keyed]
