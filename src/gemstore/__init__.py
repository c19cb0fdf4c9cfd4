"""Governed evolving memory store: a transactional topic-graph state store
with policy-gated transitions, a replayable journal, and a trajectory
auditor for its correctness conditions."""

from .audit import ViolationReport, audit, render_report
from .baseline import BaselineJournalAdapter
from .config import BetaSpec, EngineConfig
from .engine import CorruptJournalError, Engine, EngineEvent, Journal, TransitionRecord, replay
from .model import (
    Edge,
    EdgeKind,
    Field,
    MemoryState,
    Provenance,
    Tier,
    Timestamp,
    Topic,
    ValueEntry,
    active_footprint,
    current_value,
    history,
    state_digest,
)
from .operators import Fact, FactBundle, OperatorError, Query, RetrievalOutput, RuleTable
from .policy import (
    DEFAULT_POLICY_TEXT,
    EventKind,
    Policy,
    PolicyParseError,
    default_policy_set,
    parse_policies,
    parse_policy,
    render_policy,
)
from .salience import SalienceParams
from .storage import read_journal, write_journal
from .workload import load_workload, run_workload

__all__ = [
    "ViolationReport",
    "audit",
    "render_report",
    "BaselineJournalAdapter",
    "BetaSpec",
    "EngineConfig",
    "CorruptJournalError",
    "Engine",
    "EngineEvent",
    "Journal",
    "TransitionRecord",
    "replay",
    "Edge",
    "EdgeKind",
    "Field",
    "MemoryState",
    "Provenance",
    "Tier",
    "Timestamp",
    "Topic",
    "ValueEntry",
    "active_footprint",
    "current_value",
    "history",
    "state_digest",
    "Fact",
    "FactBundle",
    "OperatorError",
    "Query",
    "RetrievalOutput",
    "RuleTable",
    "DEFAULT_POLICY_TEXT",
    "EventKind",
    "Policy",
    "PolicyParseError",
    "default_policy_set",
    "parse_policies",
    "parse_policy",
    "render_policy",
    "SalienceParams",
    "read_journal",
    "write_journal",
    "load_workload",
    "run_workload",
]

__version__ = "0.1.0"
