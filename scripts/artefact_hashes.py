#!/usr/bin/env python3
"""Print one `name sha256` line per artefact whose bytes a change that only
makes the engine faster must leave as they are:

- the journal and audit report of every perfbench episode at seeds 31 and 32;
- the journal and audit report of soak seeds 0-199 (100 events, soak probes);
- the journal, audit report and snapshot (`gem snapshot`) of
  workloads/deadline.workload;
- the `gem compare` CSV and both journals of seeds 0-59 at capacities 1, 3, 5;
- the journal and audit report of the `revision` scenario (`revision_run`),
  whose journal holds every delta kind but `topic_removed`: a dependency
  repair along an Extension edge, an auto-detected revise that merges two
  duplicate topics, resolves a field with two current entries and promotes
  an entity tag, and an `attenuate` pre_commit policy that the footprint
  sets off.

Each engine run also prints two lines that do not depend on the journal
format, so they still compare two checkouts whose journal bytes differ by
design:

- `<name>.answers`, the hash of what every submit returned (the outcome and
  abort reason of each record, the answers as (topic, field, value, at) and
  the context);
- `<name>.digests`, the hash of the state trajectory: the genesis digest and
  each record's tick, operator, outcome, reason and digest after it.

The CRUD baseline of each `gem compare` run prints its `.digests` line too.

Usage: artefact_hashes.py [--quick]

`--quick` covers a small subset in a few seconds.  The script imports
gemstore from its own checkout's `src`, whatever PYTHONPATH names, so to
check a change, run it in both checkouts and diff the two outputs.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import _import_gemstore  # noqa: E402  (perfbench/run.py, imported read-only)

if _import_gemstore() is None:  # this checkout's src, whatever PYTHONPATH names
    sys.exit(f"{Path(__file__).name}: gemstore sources not found under {ROOT / 'src'}")

import gen  # noqa: E402  (perfbench/gen.py, imported read-only)
from gemstore import BaselineJournalAdapter, Engine, EngineConfig  # noqa: E402
from gemstore.audit import audit, render_report  # noqa: E402
from gemstore.config import BetaSpec  # noqa: E402
from gemstore.engine import EngineEvent  # noqa: E402
from gemstore.model import Edge, EdgeKind, Field, MemoryState, Provenance, Topic, ValueEntry  # noqa: E402
from gemstore.operators import Fact, FactBundle, Query, RuleTable  # noqa: E402
from gemstore.policy import default_policy_set, parse_policies  # noqa: E402
from gemstore.storage import read_journal, snapshot_from_journal, write_journal  # noqa: E402
from gemstore.workload import compare, load_workload, rows_to_csv, run_workload  # noqa: E402
from gemstore.workload_gen import generate_workload  # noqa: E402

FULL = {"bench_seeds": (31, 32), "bench_scale": gen.FULL, "soak_seeds": range(200), "soak_events": 100,
        "compare_seeds": range(60), "capacities": (1, 3, 5)}
QUICK = {"bench_seeds": (31,), "bench_scale": gen.SMOKE, "soak_seeds": range(3), "soak_events": 30,
         "compare_seeds": range(2), "capacities": (3,)}
WORKLOAD_DIR = ROOT / "workloads"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Recording(Engine):
    """An engine that hashes what each submit returns."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.answers = hashlib.sha256()

    def submit(self, event):
        output, records = super().submit(event)
        seen = [[[r.outcome, r.reason] for r in records]]
        if output is not None:
            seen.append([[a.topic, a.field, a.value, a.at] for a in output.answers])
            seen.append([list(c) for c in output.context])
        self.answers.update(json.dumps(seen).encode() + b"\n")
        return output, records


def _print_run(name: str, engine: _Recording) -> None:
    """The run's `.answers` and `.digests` lines."""
    print(f"{name}.answers {engine.answers.hexdigest()}")
    _print_digests(name, engine.journal)


def _print_digests(name: str, journal) -> None:
    trail = [journal.genesis_digest]
    trail += [[r.tick, r.operator, r.outcome, r.reason, r.digest_after] for r in journal.records]
    print(f"{name}.digests {_sha(json.dumps(trail).encode())}")


def _journal_bytes(journal, workdir: Path) -> bytes:
    path = workdir / "artefact.journal"
    write_journal(path, journal)
    return path.read_bytes()


def _journal_and_report(name: str, journal, probes, workdir: Path) -> None:
    data = _journal_bytes(journal, workdir)
    print(f"{name}.journal {_sha(data)}")
    report = render_report(audit(read_journal(workdir / "artefact.journal"), list(probes)))
    print(f"{name}.audit {_sha(report.encode('utf-8'))}")


def _field(name: str, values: list[str], tag: str | None = None, current: int = 1) -> Field:
    """A field holding one entry per value, at ticks 1, 2, ..., of which
    all but the last `current` are superseded."""
    history = [ValueEntry(v, at, (Provenance("genesis", at),), superseded=at <= len(values) - current)
               for at, v in enumerate(values, start=1)]
    return Field(name, entity_tag=tag, history=history)


def revision_run() -> tuple["_Recording", list[Query]]:
    """The `revision` scenario's engine, after its events, and its probes."""
    notes = _field("Notes", ["a", "b", "c", "d", "e"])
    notes.salience = 0.55  # Compressed after one tick, which folds its history
    topics = {
        "plan": ("project plan", [_field("Deadline", ["March 15"]), notes]),
        "checklist": ("launch checklist", [_field("Deadline", ["March 15"])]),
        "budget": ("team budget review", [_field("Amount", ["4000"])]),
        "budget-copy": ("team budget review", [_field("Amount", ["4000"])]),
        "people": ("people", [_field("Lead", ["kim", "lee"], current=2), _field("Backup", ["ray"], "staff"),
                              _field("Deputy", ["sam"], "staff"), _field("Office", ["north"], "staff")]),
    }
    genesis = MemoryState(policies=parse_policies(
        "POLICY trim ON pre_commit WHEN active_footprint > beta DO attenuate") + default_policy_set())
    for tid, (title, fields) in topics.items():
        genesis.topics[tid] = Topic(tid, title, title, fields={f.name: f for f in fields})
    for src, dst, kind in [("plan", "checklist", EdgeKind.EXTENSION), ("budget-copy", "plan", EdgeKind.ASSOCIATION)]:
        genesis.edges[(src, dst, kind.value)] = Edge(src, dst, kind, 0)
    rules = RuleTable.parse("plan.Deadline -> checklist.Deadline : shift-annotation")
    # the genesis holds 9 active fields, the merge leaves 8 and the ingest of lunch makes 11
    engine = _Recording(config=EngineConfig(beta=BetaSpec(base=10)), genesis=genesis, rules=rules)

    def ingest(hint, text, **facts):
        return EngineEvent.ingest(FactBundle(tuple(Fact(k, v) for k, v in facts.items()), text, topic_hint=hint))

    events = [
        ingest("plan", "project plan deadline moved", Deadline="April 20"),  # flags checklist
        ingest("plan", "project plan deadline restated", Deadline="April 20"),  # reinforces it
        EngineEvent.retrieve(Query(text="project plan deadline")),  # repairs checklist first
        EngineEvent.revise(),  # merges the budgets, resolves people.Lead, promotes staff
        ingest("lunch", "lunch plans", Place="cafe", Day="friday", Time="noon"),  # over beta: attenuates
        EngineEvent.tick(),
    ]
    for event in events:
        engine.submit(event)
    probes = [Query(text="launch checklist deadline"), Query(text="team budget review"),
              Query(mode="explicit", explicit=("staff", "Backup"))]
    return engine, probes


def main() -> int:
    profile = QUICK if sys.argv[1:] == ["--quick"] else FULL
    if sys.argv[1:] not in ([], ["--quick"]):
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for workload in gen.WORKLOADS:
            for seed in profile["bench_seeds"]:
                for index in range(gen.episodes_per_round(workload, profile["bench_scale"])):
                    episode = gen.make_episode(workload, seed, index, profile["bench_scale"])
                    engine = _Recording(config=episode.config, genesis=episode.genesis, rules=episode.rules)
                    for op in episode.ops:
                        engine.submit(op.event)
                    name = f"perfbench.{workload}.{seed}.{index}"
                    _journal_and_report(name, engine.journal, episode.probes, workdir)
                    _print_run(name, engine)

        for seed in profile["soak_seeds"]:
            engine = _Recording()
            run_workload(engine, generate_workload(seed, length=profile["soak_events"]))
            _journal_and_report(f"soak.{seed}", engine.journal, gen.SOAK_PROBES, workdir)
            _print_run(f"soak.{seed}", engine)

        engine = _Recording()
        run_workload(engine, load_workload(WORKLOAD_DIR / "deadline.workload"))
        probes = [Query.from_dict(d) for d in _probe_lines(WORKLOAD_DIR / "deadline.probes")]
        _journal_and_report("deadline", engine.journal, probes, workdir)
        _print_run("deadline", engine)
        snapshot = workdir / "deadline.snapshot"  # of the journal _journal_and_report wrote
        snapshot_from_journal(workdir / "artefact.journal", snapshot)
        print(f"deadline.snapshot {_sha(snapshot.read_bytes())}")

        engine, probes = revision_run()
        _journal_and_report("revision", engine.journal, probes, workdir)
        _print_run("revision", engine)

        for seed in profile["compare_seeds"]:
            events = generate_workload(seed)
            for capacity in profile["capacities"]:
                config = EngineConfig()
                engine, adapter = _Recording(config=config), BaselineJournalAdapter(config, capacity=capacity)
                csv_text = rows_to_csv(compare(events, engine, adapter))
                name = f"compare.{seed}.{capacity}"
                print(f"{name}.csv {_sha(csv_text.encode('utf-8'))}")
                print(f"{name}.gem.journal {_sha(_journal_bytes(engine.journal, workdir))}")
                _print_run(f"{name}.gem", engine)
                print(f"{name}.baseline.journal {_sha(_journal_bytes(adapter.journal, workdir))}")
                _print_digests(f"{name}.baseline", adapter.journal)
    return 0


def _probe_lines(path: Path) -> list[dict]:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [json.loads(line) for line in lines if line and not line.startswith("#")]


if __name__ == "__main__":
    raise SystemExit(main())
