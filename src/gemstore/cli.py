"""Command line harness: replay, audit, compare, snapshot, restore.  A
snapshot is a journal with no records, so `audit` and `restore` read either.

Exit codes: 0 success, 1 a check failed (assertion, audit violation, corrupt
input), 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .audit import audit, render_report
from .baseline import BaselineJournalAdapter
from .config import ConfigError, EngineConfig
from .engine import CorruptJournalError, Engine, replay
from .model import decoding, state_digest
from .operators import Query, RuleError, RuleTable
from .policy import PolicyParseError, parse_policies
from .storage import read_journal, snapshot_from_journal, write_journal
from .workload import WorkloadError, compare, json_lines, load_workload, rows_to_csv, run_workload


def _load_config(path: str | None) -> EngineConfig:
    path = path or os.environ.get("GEM_CONFIG")
    if path is None:
        return EngineConfig()
    return EngineConfig.load(path)


def _parse_file(path: str, parse):
    """`parse` of the text of a file that a config names; a parse error
    names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (PolicyParseError, RuleError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_engine(config: EngineConfig) -> Engine:
    policies = None
    if config.policy_paths:
        policies = [p for path in config.policy_paths for p in _parse_file(path, parse_policies)]
    rules = _parse_file(config.rule_path, RuleTable.parse) if config.rule_path else None
    return Engine(config=config, policies=policies, rules=rules)


def _load_probes(path: str | None) -> list[Query]:
    if path is None:
        return []
    probes = []
    for lineno, obj in json_lines(Path(path).read_text(encoding="utf-8"), "probes line"):
        with decoding(WorkloadError, f"probes line {lineno}"):
            probes.append(Query.from_dict(obj))
    return probes


def cmd_replay(args) -> int:
    config = _load_config(args.config)
    engine = _build_engine(config)
    events = load_workload(args.workload)
    result = run_workload(engine, events)
    print(f"events: {len(events)}")
    print(f"final tick: {engine.state.clock}")
    print(f"final digest: {engine.digest()}")
    for index, reason in result.aborted:
        print(f"aborted at event {index}: {reason}")
    for failure in result.assert_failures:
        print(f"assert failed at event {failure.index}: {failure.detail}")
    if args.journal_out:
        write_journal(args.journal_out, engine.journal)
        print(f"journal written: {args.journal_out}")
    return 0 if result.passed else 1


def cmd_audit(args) -> int:
    journal = read_journal(args.journal)
    probes = _load_probes(args.probes)
    report = audit(journal, probes)
    sys.stdout.write(render_report(report))
    return 0 if report.passed else 1


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    engine = _build_engine(config)
    adapter = BaselineJournalAdapter(config, capacity=args.capacity)
    events = load_workload(args.workload)
    rows = compare(events, engine, adapter)
    csv_text = rows_to_csv(rows)
    if args.csv_out:
        Path(args.csv_out).write_text(csv_text, encoding="utf-8")
        print(f"csv written: {args.csv_out}")
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_snapshot(args) -> int:
    digest = snapshot_from_journal(args.journal, args.out)
    print(f"snapshot written: {args.out}")
    print(f"digest: {digest}")
    return 0


def cmd_restore(args) -> int:
    state = replay(read_journal(getattr(args, "in")))
    print(f"digest: {state_digest(state)}")
    print(f"tick: {state.clock}")
    print(f"topics: {len(state.topics)}")
    return 0


def _capacity(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"capacity must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gem", description="Governed memory store harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replay", help="run a workload file against a fresh engine")
    p.add_argument("--workload", required=True)
    p.add_argument("--config")
    p.add_argument("--journal-out")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("audit", help="check a journal against the correctness conditions")
    p.add_argument("--journal", required=True)
    p.add_argument("--probes")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("compare", help="run a workload on the engine and the CRUD baseline")
    p.add_argument("--workload", required=True)
    p.add_argument("--config")
    p.add_argument("--csv-out")
    p.add_argument("--capacity", type=_capacity, default=5)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("snapshot", help="write a journal's final state as a journal with no records")
    p.add_argument("--journal", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("restore", help="replay a journal or snapshot and report its final state")
    p.add_argument("--in", required=True)
    p.set_defaults(func=cmd_restore)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CorruptJournalError as exc:
        print(f"corrupt input: {exc}", file=sys.stderr)
        return 1
    except (WorkloadError, PolicyParseError, ConfigError, RuleError, UnicodeDecodeError) as exc:
        # bad input; any other error is a fault of the program and propagates
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
