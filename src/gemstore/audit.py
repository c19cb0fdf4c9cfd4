"""Trajectory auditor: replays a journal snapshot by snapshot and checks the
six correctness conditions, producing a deterministic violation report.

The query-soundness check (C1) compares probe answers against a shadow
ledger built purely from the ingestion inputs recorded in the journal --
a deliberate second implementation of "what should be current", never read
from engine state.  Units whose current value was produced by a committed
revision are exempt from the shadow comparison (their values are derived,
not ingested); they are still covered by C2 and C4.

A record changes only the topics its deltas name (`_named`), and the checks
that would otherwise scan the whole store after every record work from those
topics, so that their cost follows the record, not the size of the store:

- C1 reads a probe again only when a named topic can enter or leave its top
  k (`ProbeMemo`); its answers, read again or not, are judged after every
  record;
- C2's stale check and C5's bound read the auditor's own `Tally`, recounted
  for the named topics, never read from the engine's parts;
- C4 compares the provenance of the named topics before and after, and
  scans the whole store only for records they dropped (`_lost_provenance`);
- C6 ranks the hide keys of the whole store only for a retrieve whose deltas
  can move an unaccessed unit's key (`_ranks_may_worsen`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .config import EngineConfig
from .embedding import cosine, embed
from .engine import CorruptJournalError, EngineEvent, Journal, replay_record
from .model import Field, MemoryState, Topic, canonical_json, decoding
from .operators import Answer, FactBundle, OperatorError, Query, retrieve_read
from .policy import EventKind, evaluate_condition
from .salience import ACTIVE
from .transaction import DELTA_KINDS

CONDITIONS = ("c1", "c2", "c3", "c4", "c5", "c6")

# delta kinds that can remove or rewrite history entries; anything else
# cannot lose provenance, so the before/after scan is skipped
_PROVENANCE_RISK_DELTAS = frozenset(
    ("history_compressed", "field_removed", "field_installed", "topic_removed", "entry_superseded")
)

# delta kinds that can move the hide key of any unit, or add a unit to the
# ranked set or drop one from it (see `_hide_ranks`)
_RANK_MOVING_DELTAS = frozenset(
    ("epoch_advanced", "topic_created", "topic_removed", "topic_archived", "field_created", "field_removed",
     "field_installed")
)


@dataclass(frozen=True)
class Violation:
    tick: int
    subject: str
    detail: str


@dataclass
class ViolationReport:
    c1: list[Violation] = dc_field(default_factory=list)
    c2: list[Violation] = dc_field(default_factory=list)
    c3: list[Violation] = dc_field(default_factory=list)
    c4: list[Violation] = dc_field(default_factory=list)
    c5: list[Violation] = dc_field(default_factory=list)
    c6: list[Violation] = dc_field(default_factory=list)

    def totals(self) -> dict[str, int]:
        return {name: len(getattr(self, name)) for name in CONDITIONS}

    @property
    def passed(self) -> bool:
        return all(count == 0 for count in self.totals().values())

    def add(self, condition: str, tick: int, subject: str, detail: str) -> None:
        getattr(self, condition).append(Violation(tick, subject, detail))


class ShadowLedger:
    """Last-writer-wins view of ingestion inputs: the last ingested value of
    each field of each concept, so that it grows with the units, not with
    the ingests.

    The concept key is the bundle's topic_hint; an unhinted bundle joins the
    unique concept already owning the fact's field name, else starts an
    anonymous concept.
    """

    def __init__(self):
        self.concepts: dict[str, dict[str, str]] = {}

    def ingest(self, bundle: FactBundle, tick: int) -> None:
        for fact in bundle.facts:
            name = fact.field
            concept = bundle.topic_hint
            if concept is None:
                owners = _owners(self, name)
                concept = owners[0] if len(owners) == 1 else f"anon-{tick}"
            self.concepts.setdefault(concept, {})[name] = fact.value

    def latest_values(self, field_name: str) -> list[str]:
        """The last ingested value of every concept holding `field_name`."""
        return [fields[field_name] for fields in self.concepts.values() if field_name in fields]


def _owners(ledger: ShadowLedger, field_name: str) -> list[str]:
    return [c for c, fields in ledger.concepts.items() if field_name in fields]


def shadow_expected(ledger: ShadowLedger, topic_id: str, field_name: str) -> Optional[str]:
    if topic_id in ledger.concepts:
        return ledger.concepts[topic_id].get(field_name)
    owners = _owners(ledger, field_name)
    if len(owners) == 1:
        return ledger.concepts[owners[0]][field_name]
    return None  # unknown or ambiguous: no opinion


def _serves_stale(f: Field) -> bool:
    """Whether the field's latest non-compressed entry is superseded while an
    earlier one is still current: a supersede without a newer entry, which
    would serve the superseded value as current."""
    superseded = [entry.superseded for entry in f.history if not entry.compressed]
    return bool(superseded) and superseded[-1] and not all(superseded)


def _topic_tally(topic: Topic) -> tuple[int, bool]:
    """The topic's active fields if it is live, and whether it serves a
    stale value."""
    fields = topic.fields.values()
    active = 0 if topic.archived else sum(f.tier is ACTIVE for f in fields)
    return active, any(map(_serves_stale, fields))


class Tally:
    """The auditor's own `_topic_tally` of each topic and its totals:
    `footprint`, the active fields of live topics, which C5 bounds, and
    `stale`, the topics that would serve a superseded value as current,
    which C2 requires to be 0.  Counted from the genesis, then recounted
    after each record for the topics it names: no other topic changes in a
    transition."""

    def __init__(self, state: MemoryState):
        self.topics: dict[str, tuple[int, bool]] = {}
        self.footprint = 0
        self.stale = 0
        self.recount(state, state.topics)

    def recount(self, state: MemoryState, topic_ids) -> None:
        for tid in topic_ids:
            old_active, old_stale = self.topics.pop(tid, (0, False))
            if tid in state.topics:
                self.topics[tid] = _topic_tally(state.topics[tid])
            new_active, new_stale = self.topics.get(tid, (0, False))
            self.footprint += new_active - old_active
            self.stale += new_stale - old_stale


def _named(deltas: list[dict]) -> set[str]:
    """The topics `deltas` name (`DELTA_KINDS[kind].subject`), the only ones
    they can change.  A malformed delta names none: its replay fails."""
    named = set()
    for delta in deltas:
        spec = DELTA_KINDS.get(delta["kind"])
        subject = delta.get(spec.subject) if spec is not None else None
        if type(subject) is str:
            named.add(subject)
    return named


class ProbeMemo:
    """A probe's answers from its last read, kept while no record can change
    them.

    A ranked read (mode default or historical) answers from its top k, the k
    smallest `(-cosine, topic id)` keys over the live topics, and reads
    nothing else of the state but the clock, which only grows.  Only the
    topics a record names change, so after a record the top k and its
    answers stand when no named topic is in it and no named topic that is
    live now has a key below its k-th; with fewer than k keys, every live
    topic was in it, so the record must leave no named topic live.  The key
    is the float `rank_topics` computes: `cosine` divides the same integer
    dot by `query.norm * vector.norm`.  Any other read, and one that raised,
    is made again after every record."""

    def __init__(self, probe: Query, cfg: EngineConfig):
        self.probe = probe
        self.cfg = cfg
        self.query = embed(probe.text)
        self.ranked: Optional[list[tuple[float, str]]] = None  # None: read again
        self.answers: list[Answer] = []

    def answers_after(self, state: MemoryState, named: set[str]) -> list[Answer]:
        """The probe's answers on `state`, just changed in the topics `named`."""
        if self.ranked is None or not self._holds(state, named):
            try:
                out = retrieve_read(state, self.probe, self.cfg)
            except OperatorError:
                self.ranked, self.answers = None, []
            else:
                self.ranked, self.answers = out.ranked, out.answers
        return self.answers

    def _holds(self, state: MemoryState, named: set[str]) -> bool:
        ranked = self.ranked
        if any(tid in named for _, tid in ranked):
            return False
        for tid in named:
            topic = state.topics.get(tid)
            if topic is None or topic.archived:
                continue
            if len(ranked) < self.cfg.k_topics or (-cosine(self.query, topic.vector()), tid) < ranked[-1]:
                return False
        return True


def _ranks_may_worsen(deltas: list[dict], accessed: set[tuple[str, str]]) -> bool:
    """Whether `deltas` can move the hide key of a unit outside `accessed`,
    or the set of ranked units; unless they can, `_hide_ranks` cannot find
    a bumped unit whose rank worsened."""
    return any(
        d["kind"] in _RANK_MOVING_DELTAS
        or d["kind"] in ("salience_set", "unit_accessed") and (d.get("topic"), d.get("field")) not in accessed
        for d in deltas
    )


def audit(journal: Journal, probes: list[Query]) -> ViolationReport:
    report = ViolationReport()
    cfg = journal.config
    lam = cfg.salience.decay
    state = journal.genesis_state()
    tally = Tally(state)
    memos = [ProbeMemo(probe, cfg) for probe in probes]

    ledger = ShadowLedger()
    revision_touched: set[tuple[str, str]] = set()
    pending_revision: set[str] = set()
    ever_units: set[tuple[str, str]] = set()
    for topic in state.topics.values():
        for name in topic.fields:
            ever_units.add((topic.id, name))

    for record in journal.records:
        if not record.committed:
            continue
        pre_state = state
        tick = record.tick
        with decoding(CorruptJournalError, f"malformed record at tick {tick}"):
            event = EngineEvent.from_dict(record.input)
            delta_kinds = {d["kind"] for d in record.deltas}
        named = _named(record.deltas)
        if record.operator == "retrieve" and event.query is None:
            raise CorruptJournalError(f"retrieve without a query at tick {tick}")

        # C3 / C6 need the read set of this retrieve as seen before commit
        touched_topics: set[str] = set()
        accessed_units: list[tuple[str, str]] = []
        if record.operator == "retrieve":
            try:
                out = retrieve_read(pre_state, event.query, cfg)
                accessed_units = out.accessed_units
                touched_topics = {t for t, _ in accessed_units}
            except OperatorError:
                pass
        pre_saliences = {
            (t, f): pre_state.salience(pre_state.topics[t], pre_state.topics[t].fields[f], lam)
            for t, f in accessed_units
            if t in pre_state.topics and f in pre_state.topics[t].fields
        }
        accessed_set = set(accessed_units)
        rank_check = bool(accessed_units) and _ranks_may_worsen(record.deltas, accessed_set)
        pre_ranks = _hide_ranks(pre_state, lam, accessed_set) if rank_check else {}
        pre_prov = None
        if delta_kinds & _PROVENANCE_RISK_DELTAS:
            pre_prov = _reachable_provenance(pre_state, named)

        replay_record(state, record)
        tally.recount(state, named)

        # --- bookkeeping from deltas -----------------------------------
        changed_topics = set()
        installed_fields = set()
        for delta in record.deltas:
            kind = delta["kind"]
            if kind == "entry_appended":
                changed_topics.add(delta["topic"])
                ever_units.add((delta["topic"], delta["field"]))
                if record.operator == "revise":
                    revision_touched.add((delta["topic"], delta["field"]))
            elif kind == "field_created":
                ever_units.add((delta["topic"], delta["field"]))
            elif kind == "field_installed":
                ever_units.add((delta["topic"], delta["payload"]["name"]))
                installed_fields.add(delta["payload"]["name"])
                if record.operator == "revise":
                    revision_touched.add((delta["topic"], delta["payload"]["name"]))
        for delta in record.deltas:
            if delta["kind"] == "field_removed" and delta["field"] in installed_fields:
                ever_units.discard((delta["topic"], delta["field"]))  # a move, not a loss

        if record.operator == "ingest" and event.bundle is not None:
            ledger.ingest(event.bundle, tick)

        # --- C3: dependency consistency --------------------------------
        if record.operator == "retrieve":
            for topic_id in sorted(touched_topics & pending_revision):
                report.add("c3", tick, topic_id, "retrieve touched a topic with pending revision")
        if record.operator == "revise":
            if event.target:
                pending_revision.discard(event.target)
            for item in event.evidence or ():
                if item.kind == "dependency_flag":
                    pending_revision.discard(item.topic)
        for topic_id in sorted(changed_topics):
            if record.operator in ("ingest", "revise"):
                for successor in state.extension_successors(topic_id):
                    pending_revision.add(successor)

        # --- C2: transition soundness -----------------------------------
        ctx = {"beta": cfg.beta.bound(tick), "decay": lam}
        for policy in state.policies:
            if policy.on_event is not EventKind.PRE_COMMIT:
                continue
            if evaluate_condition(policy.condition, state, ctx):
                report.add("c2", tick, policy.name, "post-commit state violates a pre_commit policy")
        if tally.stale:
            report.add("c2", tick, "state", "a superseded value would be returned as current")

        # --- C4: provenance preservation --------------------------------
        if pre_prov is not None:
            for item in sorted(_lost_provenance(pre_prov, state, named)):
                report.add("c4", tick, item[0], f"provenance record lost: {item}")

        # --- C5: bounded active state ------------------------------------
        bound = cfg.beta.bound(tick)
        if tally.footprint > bound:
            report.add("c5", tick, "footprint", f"active footprint {tally.footprint} exceeds bound {bound}")

        # --- C6: retrieval-induced adaptation ----------------------------
        if record.operator == "retrieve" and accessed_units:
            post_ranks = _hide_ranks(state, lam, accessed_set) if rank_check else {}
            unbumped = []
            worsened = []
            for unit in accessed_units:
                t, f = unit
                post_topic = state.topics.get(t)
                post_field = post_topic.fields.get(f) if post_topic else None
                pre_s = pre_saliences.get(unit)
                if post_field is None or pre_s is None or not state.salience(post_topic, post_field, lam) > pre_s:
                    unbumped.append(f"{t}.{f}")
                    continue
                if unit in pre_ranks and unit in post_ranks and post_ranks[unit] < pre_ranks[unit]:
                    worsened.append(f"{t}.{f}")
            # one violation per retrieve, however many units it touched
            if unbumped:
                report.add("c6", tick, "retrieve", "no strict salience increase for " + ", ".join(unbumped))
            elif worsened:
                report.add("c6", tick, "retrieve", "hide-ordering rank worsened for " + ", ".join(worsened))

        # --- C1: query soundness -----------------------------------------
        for memo in memos:
            for answer in memo.answers_after(state, named):
                unit = (answer.topic, answer.field)
                if unit in revision_touched:
                    continue
                expected = shadow_expected(ledger, answer.topic, answer.field)
                if expected is not None and expected != answer.value:
                    report.add(
                        "c1",
                        tick,
                        f"{answer.topic}.{answer.field}",
                        f"probe returned {answer.value!r}, last ingested value is {expected!r}",
                    )

    # --- C5 recoverability: everything ever stored stays reachable -------
    for topic_id, field_name in sorted(ever_units):
        topic = state.topics.get(topic_id)
        f = topic.fields.get(field_name) if topic else None
        if f is None or not f.history:
            report.add("c5", state.clock, f"{topic_id}.{field_name}", "unit no longer answers explicit lookup")

    return report


def _hide_ranks(state: MemoryState, lam: float, accessed: set[tuple[str, str]]) -> dict[tuple[str, str], int]:
    """Each accessed live unit's rank among the unaccessed ones: how many
    unaccessed units have a smaller hide key (salience, last_access, field,
    topic) and would be hidden before it.  Accessed units may legitimately
    swap among themselves, so they are not counted.

    C6 calls it, before and after a retrieve, only when `_ranks_may_worsen`
    holds, for otherwise no rank can worsen.  A unit's key reads its
    salience, `since`, last access and topic's epoch and archival; of the
    delta kinds, only an epoch advance, the creation, removal or archival of
    a topic, the creation, removal or installation of a field, and a
    salience set or access of a unit change them or the set of live units.
    Without those, and with every salience set or access on an accessed
    unit, no unaccessed key and no member of the unaccessed set changes.
    Then an accessed unit whose salience rose strictly has a strictly larger
    key, still above every unaccessed key it was above, so its rank cannot
    fall; and one whose salience did not rise is reported as unbumped,
    whatever its rank."""
    if not accessed:
        return {}
    keys = {}
    for topic in state.topics.values():
        if not topic.archived:
            for name, f in topic.fields.items():
                keys[(topic.id, name)] = (state.salience(topic, f, lam), f.last_access, name, topic.id)
    others = [key for unit, key in keys.items() if unit not in accessed]
    return {unit: sum(map(keys[unit].__gt__, others)) for unit in accessed if unit in keys}


def _reachable_provenance(state: MemoryState, topic_ids=None) -> set[tuple[str, int, str]]:
    """The provenance records held by the topics `topic_ids` that exist in
    `state`, or by every topic."""
    topics = state.topics.values() if topic_ids is None else [state.topics[t] for t in topic_ids if t in state.topics]
    out = set()
    for topic in topics:
        for f in topic.fields.values():
            for entry in f.history:
                for prov in entry.provenance:
                    out.add((prov.source_id, prov.event_id, prov.excerpt))
    return out


def _lost_provenance(before: set, state: MemoryState, named: set[str]) -> set:
    """The records of `before`, the provenance of the topics `named` before a
    record, that `state`, after it, holds nowhere.  The other topics keep
    theirs, so only records the named topics dropped need the whole store."""
    lost = before - _reachable_provenance(state, named)
    return lost - _reachable_provenance(state) if lost else lost


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def report_to_dict(report: ViolationReport) -> dict:
    return {
        name: [
            {"tick": v.tick, "subject": v.subject, "detail": v.detail}
            for v in sorted(getattr(report, name), key=lambda v: (v.tick, v.subject))
        ]
        for name in CONDITIONS
    }


def render_report(report: ViolationReport) -> str:
    totals = report.totals()
    lines = []
    if report.passed:
        lines.append("PASS C1-C6: 0 violations")
    else:
        total = sum(totals.values())
        lines.append(f"FAIL C1-C6: {total} violations")
    for name in CONDITIONS:
        lines.append(f"{name.upper()}: {totals[name]}")
        for v in sorted(getattr(report, name), key=lambda v: (v.tick, v.subject)):
            lines.append(f"  tick {v.tick} {v.subject}: {v.detail}")
    lines.append(canonical_json(report_to_dict(report)))
    return "\n".join(lines) + "\n"
