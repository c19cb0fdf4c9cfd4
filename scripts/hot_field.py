#!/usr/bin/env python3
"""Hot-field scenario: one topic whose one field, `Deadline`, takes
`--updates` hinted ingests, each of a new value, with a default retrieve
after every 5th ingest and a tick after every 10th.  The field stays Active,
so the forget ladder never folds its history, which grows by one entry per
ingest.

Prints one JSON line per window of updates: the first 50, then each block of
`--block`.  A line holds the field's history length at the window's first
ingest, the p50 of the window's ingests and retrieves (each submit timed
whole, in ms), and each p50's ratio to the first window's.  The exit code is
1, and each line says `"correct": false`, if any record aborts or the field
ends with another history length or tier.

Usage: hot_field.py [--updates 6000] [--block 1000]

gemstore is imported from this checkout's `src`, whatever PYTHONPATH names.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import _import_gemstore  # noqa: E402  (perfbench/run.py, imported read-only)

if _import_gemstore() is None:  # this checkout's src, whatever PYTHONPATH names
    sys.exit(f"{Path(__file__).name}: gemstore sources not found under {ROOT / 'src'}")

from gemstore.engine import Engine, EngineEvent  # noqa: E402
from gemstore.operators import Fact, FactBundle, Query  # noqa: E402

FIRST = 50  # the updates of the first window, against whose p50s the others are read
READ_EVERY, TICK_EVERY = 5, 10


def _timed(engine: Engine, event) -> tuple[float, bool]:
    """The submit's time in ms, and whether every record it made committed."""
    start = time.perf_counter_ns()
    _, records = engine.submit(event)
    return (time.perf_counter_ns() - start) / 1e6, all(r.committed for r in records)


def run(updates: int, block: int) -> tuple[list[dict], bool]:
    engine = Engine()
    read, tick = EngineEvent.retrieve(Query(text="project deadline")), EngineEvent.tick()
    windows = [(0, min(FIRST, updates))] + [(start, min(start + block, updates)) for start in range(0, updates, block)]
    ingests: list[float] = []
    retrieves: dict[int, float] = {}  # by the update each follows
    correct = True
    for i in range(updates):
        bundle = FactBundle((Fact("Deadline", f"day {i}"),), "project deadline moved", topic_hint="deadline")
        ms, ok = _timed(engine, EngineEvent.ingest(bundle))
        ingests.append(ms)
        correct = correct and ok
        if (i + 1) % READ_EVERY == 0:
            ms, ok = _timed(engine, read)
            retrieves[i] = ms
            correct = correct and ok
        if (i + 1) % TICK_EVERY == 0:
            correct = _timed(engine, tick)[1] and correct
    f = engine.state.topics["deadline"].fields["Deadline"]
    correct = correct and len(f.history) == updates and f.tier.value == "Active"
    rows = []
    for start, end in windows:
        reads = [ms for i, ms in retrieves.items() if start <= i < end]
        rows.append({
            "updates": [start, end],
            "entries": start,
            "ingests": end - start,
            "ingest_p50_ms": statistics.median(ingests[start:end]),
            "retrieves": len(reads),
            "retrieve_p50_ms": statistics.median(reads) if reads else None,
        })
    for row in rows:
        for key in ("ingest", "retrieve"):
            base, p50 = rows[0][f"{key}_p50_ms"], row[f"{key}_p50_ms"]
            row[f"{key}_p50_ratio"] = p50 / base if base and p50 is not None else None
    return rows, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--updates", type=int, default=6000, help="ingests into the field")
    parser.add_argument("--block", type=int, default=1000, help="updates per line after the first")
    args = parser.parse_args(argv)
    if args.updates < 1 or args.block < 1:
        parser.error("--updates and --block must be at least 1")
    rows, correct = run(args.updates, args.block)
    for row in rows:
        print(json.dumps({"scenario": "hot-field", "correct": correct, **row}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
