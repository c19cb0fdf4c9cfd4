"""Transition engine: dispatch one event to an operator branch, evaluate the
policy set against the proposed state, and atomically commit or abort.

Every committed transition consumes one logical tick and appends a replayable
record to the journal; aborted events are journaled without consuming a tick
so auditors can distinguish "rejected" from "never attempted".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .config import EngineConfig
from .embedding import RoutingError
from .model import (
    INT,
    LIST,
    LIST_OR_NULL,
    OBJECT,
    OBJECT_OR_NULL,
    STR,
    STR_OR_NULL,
    MemoryState,
    canonical_json,
    check_references,
    decode,
    decoding,
    state_digest,
    state_bytes,
    state_from_dict,
    unbuilt_parts,
)
from .operators import (
    EvidenceItem,
    FactBundle,
    OperatorError,
    Query,
    RetrievalOutput,
    RuleTable,
    detect_evidence,
    forget,
    ingest,
    retrieve,
    revise,
)
from .policy import (
    ActionSpec,
    EvaluationError,
    EventKind,
    Policy,
    default_policy_set,
    evaluate_condition,
    resolve_target,
)
from .transaction import Txn, apply_delta


class CorruptJournalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineEvent:
    kind: str  # ingest | retrieve | revise | forget | tick
    bundle: Optional[FactBundle] = None
    query: Optional[Query] = None
    evidence: Optional[tuple[EvidenceItem, ...]] = None  # None means auto-detect
    target: Optional[str] = None  # revise: drain target topic

    @staticmethod
    def ingest(bundle: FactBundle) -> "EngineEvent":
        return EngineEvent("ingest", bundle=bundle)

    @staticmethod
    def retrieve(query: Query) -> "EngineEvent":
        return EngineEvent("retrieve", query=query)

    @staticmethod
    def revise(evidence: Optional[list[EvidenceItem]] = None, target: Optional[str] = None) -> "EngineEvent":
        return EngineEvent("revise", evidence=tuple(evidence) if evidence is not None else None, target=target)

    @staticmethod
    def forget() -> "EngineEvent":
        return EngineEvent("forget")

    @staticmethod
    def tick() -> "EngineEvent":
        return EngineEvent("tick")

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "bundle": self.bundle.to_dict() if self.bundle else None,
            "query": self.query.to_dict() if self.query else None,
            "evidence": [e.to_dict() for e in self.evidence] if self.evidence is not None else None,
        }

    @staticmethod
    def from_dict(d: dict) -> "EngineEvent":
        d = decode("event", d, _EVENT_TYPES, bundle=None, query=None, evidence=None, target=None)
        if d["kind"] not in _EVENT_KINDS:
            raise ValueError(f"event kind must be one of {', '.join(_EVENT_KINDS)}, got {d['kind']!r}")
        return EngineEvent(
            kind=d["kind"],
            bundle=FactBundle.from_dict(d["bundle"]) if d["bundle"] else None,  # an empty object is no bundle
            query=Query.from_dict(d["query"]) if d["query"] else None,
            evidence=None if d["evidence"] is None else tuple(map(EvidenceItem.from_dict, d["evidence"])),
            target=d["target"],
        )


_EVENT_KINDS = ("ingest", "retrieve", "revise", "forget", "tick")
_EVENT_TYPES = {"kind": STR, "bundle": OBJECT_OR_NULL, "query": OBJECT_OR_NULL, "evidence": LIST_OR_NULL,
                "target": STR_OR_NULL}


@dataclass
class TransitionRecord:
    tick: int
    operator: str
    input: dict  # serialized EngineEvent
    deltas: list[dict]
    policy_log: list[dict]  # {policy, fired, action}
    outcome: str  # "committed" | "aborted"
    reason: Optional[str] = None
    digest_after: str = ""

    @property
    def committed(self) -> bool:
        return self.outcome == "committed"

    def to_dict(self) -> dict:
        return dict(vars(self))

    @staticmethod
    def from_dict(d: dict) -> "TransitionRecord":
        """Decode a record frame, which must carry exactly its fields, each
        with its type; any other frame raises KeyError, TypeError or
        ValueError."""
        d = decode("record", d, _RECORD_TYPES)
        if d["outcome"] not in ("committed", "aborted"):
            raise ValueError(f"record outcome must be committed or aborted, got {d['outcome']!r}")
        kind = d["input"].get("kind")
        if kind != d["operator"]:
            raise ValueError(f"record operator {d['operator']!r} differs from its input kind {kind!r}")
        return TransitionRecord(**d)


_RECORD_TYPES = {"tick": INT, "operator": STR, "input": OBJECT, "deltas": LIST, "policy_log": LIST,
                 "outcome": STR, "reason": STR_OR_NULL, "digest_after": STR}


class Journal:
    """A config, a genesis state with its digest, and the records since it.
    The genesis is kept in the form the journal was made with, the decoded
    JSON object (`genesis`, as `read_journal` makes it) or its canonical JSON
    bytes (`genesis_bytes`, as `of_state` makes it), and the other form is
    derived at most once, on its first use."""

    def __init__(self, config: EngineConfig, genesis: Optional[dict], genesis_digest: str,
                 records: Optional[list[TransitionRecord]] = None):
        self.config = config
        if genesis is not None:
            self.genesis = genesis
        self.genesis_digest = genesis_digest
        self.records = [] if records is None else records

    @staticmethod
    def of_state(config: EngineConfig, state: MemoryState) -> "Journal":
        """A journal with no records whose genesis is `state`, kept as bytes."""
        journal = Journal(config, None, state_digest(state))
        journal.genesis_bytes = state_bytes(state)
        return journal

    @cached_property
    def genesis(self) -> dict:
        """The genesis as `state_to_dict` writes it."""
        return json.loads(self.genesis_bytes)

    @cached_property
    def genesis_bytes(self) -> bytes:
        """The genesis as `state_bytes` writes it."""
        return canonical_json(self.genesis).encode()

    def genesis_state(self) -> MemoryState:
        """The genesis state, checked against its digest."""
        with decoding(CorruptJournalError, "malformed genesis"):
            state = state_from_dict(self.genesis)
        if state_digest(state) != self.genesis_digest:
            raise CorruptJournalError("genesis digest mismatch")
        return state


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class Engine:
    """Single-writer engine over immutable snapshots.

    Revision flags are drained lazily: before any retrieve, each flagged
    topic gets its own revision transition so reads never observe a flagged
    topic (dependency consistency with the weakest schedule that keeps
    reads sound).
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        genesis: Optional[MemoryState] = None,
        policies: Optional[list[Policy]] = None,
        rules: Optional[RuleTable] = None,
    ):
        self.config = config or EngineConfig()
        self.config.validate()
        self.rules = rules or RuleTable.empty()
        if genesis is not None:
            check_references(genesis)
            self.state = genesis
        else:
            self.state = MemoryState(policies=policies if policies is not None else default_policy_set())
        # derived afresh, as the genesis may have been read and then filled in
        # by hand, and built on the committed state, so that a transaction
        # that builds a part and then aborts cannot discard the build
        self.state.parts = unbuilt_parts()
        self._build_parts()
        self.journal = Journal.of_state(self.config, self.state)

    # -- public API -------------------------------------------------------

    def submit(self, event: EngineEvent) -> tuple[Optional[RetrievalOutput], list[TransitionRecord]]:
        records: list[TransitionRecord] = []
        if event.kind == "retrieve":
            records.extend(self._drain_revision_queue())
        output, record = self._apply_once(event)
        records.append(record)
        return output, records

    def digest(self) -> str:
        return state_digest(self.state)

    # -- internals --------------------------------------------------------

    def _build_parts(self) -> None:
        """Build every part of the committed state, the ladder for this
        engine's salience parameters."""
        self.state.ladder(self.config.salience)
        for name in self.state.parts:
            self.state.part(name)

    def _drain_revision_queue(self) -> list[TransitionRecord]:
        records: list[TransitionRecord] = []
        visited: set[str] = set()
        while True:
            pending = sorted({t for t, _ in self.state.revision_queue if t not in visited})
            if not pending:
                break
            topic_id = self._next_to_repair(pending)
            visited.add(topic_id)
            causes = sorted(c for t, c in self.state.revision_queue if t == topic_id)
            evidence = [EvidenceItem("dependency_flag", topic_id, other=c) for c in causes]
            _, record = self._apply_once(EngineEvent.revise(evidence=evidence, target=topic_id))
            records.append(record)
        # flags re-added on visited topics within this drain wait for the
        # next retrieve; the visited set bounds cyclic extension chains
        return records

    def _next_to_repair(self, pending: list[str]) -> str:
        """The smallest pending topic that no pending topic reaches through
        Extension edges (one traversal from their successors), so that no
        later repair flags it again; the smallest when a cycle leaves none."""
        successors = self.state.part("edges").successors
        reached: set[str] = set()
        stack = [dst for src in pending for dst in successors.get(src, ())]
        while stack:
            tid = stack.pop()
            if tid not in reached:
                reached.add(tid)
                stack.extend(successors.get(tid, ()))
        return next((tid for tid in pending if tid not in reached), pending[0])

    def _apply_once(self, event: EngineEvent) -> tuple[Optional[RetrievalOutput], TransitionRecord]:
        txn = Txn(self.state)
        policy_log: list[dict] = []

        try:
            output, sub_events = self._dispatch(txn, event)
            pre_commit = (EventKind.PRE_COMMIT.value, {"beta": self.config.beta.bound(txn.tick)})
            for event_name, ctx in [*sub_events, pre_commit]:
                reject = self._run_policies(txn, event_name, ctx, policy_log)
        except (OperatorError, EvaluationError, RoutingError) as exc:
            return None, self._abort(event, str(exc), policy_log)

        if reject is not None:
            return None, self._abort(event, reject, policy_log)

        # ingest and revise pay for the embeddings they change, not the next read
        txn.derive_embeddings()
        txn.state.clock = txn.tick
        record = TransitionRecord(
            tick=txn.tick,
            operator=event.kind,
            input=event.to_dict(),
            deltas=txn.deltas,
            # the auditor re-evaluates every pre_commit condition on the
            # replayed state, so only the evaluations that fired are kept
            policy_log=[entry for entry in policy_log if entry["fired"]],
            outcome="committed",
            digest_after=state_digest(txn.state),
        )
        self.state = txn.state
        self.journal.records.append(record)
        return output, record

    def _abort(self, event: EngineEvent, reason: str, policy_log: list[dict]) -> TransitionRecord:
        record = TransitionRecord(
            tick=self.state.clock,
            operator=event.kind,
            input=event.to_dict(),
            deltas=[],
            policy_log=policy_log,
            outcome="aborted",
            reason=reason,
            digest_after=self.journal.records[-1].digest_after if self.journal.records
            else self.journal.genesis_digest,
        )
        self.journal.records.append(record)
        return record

    def _dispatch(self, txn: Txn, event: EngineEvent) -> tuple[Optional[RetrievalOutput], list[tuple[str, dict]]]:
        """Run the event's operator on `txn`; returns the read's output and
        the sub-events for policy evaluation."""
        if event.kind == "ingest":
            return None, ingest(txn, event.bundle, self.config)
        if event.kind == "retrieve":
            return retrieve(txn, event.query, self.config)
        if event.kind == "revise":
            evidence = list(event.evidence) if event.evidence is not None else detect_evidence(txn.state, self.config)
            return None, revise(txn, evidence, self.config, self.rules)
        if event.kind == "forget":
            forget(txn, self.config)
            return None, []
        if event.kind == "tick":
            # a tick is one decay epoch plus the attenuation ladder, in one
            # transition that writes only the tiers and archives it changes
            txn.advance_epoch()
            forget(txn, self.config)
            return None, [("tick", {})]
        raise OperatorError(f"unknown event kind: {event.kind}")

    def _run_policies(self, txn: Txn, event_name: str, ctx: dict, policy_log: list[dict]) -> Optional[str]:
        """Apply the fired actions of the policies on `event_name`, in order.  A
        fired `reject_transition` returns its reason on pre_commit only."""
        ctx = {**ctx, "decay": self.config.salience.decay}
        for policy in txn.state.policies:
            if policy.on_event.value != event_name:
                continue
            fired = evaluate_condition(policy.condition, txn.state, ctx)
            policy_log.append({"policy": policy.name, "fired": fired, "action": policy.action.kind})
            if fired and policy.action.kind != "reject_transition":
                self._apply_action(txn, policy.action, ctx)
            elif fired and policy.on_event is EventKind.PRE_COMMIT:
                return policy.action.message or policy.name
        return None

    def _apply_action(self, txn: Txn, action: ActionSpec, ctx: dict) -> None:
        if action.kind == "noop":
            return
        if action.kind == "flag_for_revision":
            if action.target == "dependent_topic":
                src = ctx.get("updated_topic")
                if src is None:
                    raise EvaluationError("unbound variable: updated_topic")
                cause = f"{src}.{ctx.get('updated_field', '')}".rstrip(".")
                for dep in txn.state.extension_successors(src):
                    txn.add_flag(dep, cause)
            else:
                target = resolve_target(action.target, ctx)
                if target not in txn.state.topics:
                    raise EvaluationError(f"flag_for_revision of unknown topic: {target}")
                txn.add_flag(target, ctx.get("updated_topic", "policy"))
            return
        if action.kind == "attenuate":
            targets = None if action.target is None else [resolve_target(action.target, ctx)]
            forget(txn, self.config, targets=targets)
            return
        if action.kind == "archive":
            target = resolve_target(action.target, ctx)
            if target in txn.state.topics and not txn.state.topics[target].archived:
                txn.archive_topic(target)
            return
        raise OperatorError(f"unknown action kind: {action.kind}")


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_record(state: MemoryState, record: TransitionRecord) -> None:
    """Advance `state` in place by one committed record, checking that its
    tick follows the state's clock and that the result matches its digest."""
    if record.tick != state.transition_tick:
        raise CorruptJournalError(f"non-consecutive tick at {record.tick}")
    with decoding(CorruptJournalError, f"bad delta at tick {record.tick}"):
        for delta in record.deltas:
            apply_delta(state, delta)
    state.clock = record.tick
    if state_digest(state) != record.digest_after:
        raise CorruptJournalError(f"digest mismatch at tick {record.tick}")


def replay(journal: Journal) -> MemoryState:
    """Reconstruct the final state by applying committed deltas from genesis."""
    state = journal.genesis_state()
    for record in journal.records:
        if record.committed:
            replay_record(state, record)
    return state
