#!/usr/bin/env python3
"""Store-size sweep: run the benchmark's store-large episodes at several
store sizes and print, per size, one JSON line with the p50 and p99 latency
of each operator (hinted and unhinted ingest apart), each one's ratio to the
first size, and the engine and audit time per journal record.

Usage: store_sweep.py [--sizes 250,1000,4000]

gemstore is imported from this checkout's `src`, whatever PYTHONPATH
names.  The episodes, their set-up, the timed closed loop and the journal
checks are perfbench's own (`perfbench/gen.py` and `perfbench/harness.py`,
imported read-only): seed 11, episodes 0 and 1 of the full scale with
`Scale.store_topics` set to each size.  Each episode runs `REPEATS` times
and each operation keeps its fastest time (`EpisodeTimes.keep_fastest`, as
perfbench does), so an operator has about 15 samples per episode, each the
fastest of three, and p99 is the slowest sample or next to it.
Each submit is timed whole, so a retrieve includes the revisions it drains
first.  A size whose run fails a correctness check of the harness still
gets its line, with `"correct": false` and the failures, and the exit code
is then 1.
"""

import argparse
import dataclasses
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import _import_gemstore  # noqa: E402  (perfbench/run.py, imported read-only)

if _import_gemstore() is None:  # this checkout's src, whatever PYTHONPATH names
    sys.exit(f"{Path(__file__).name}: gemstore sources not found under {ROOT / 'src'}")

import gen  # noqa: E402  (perfbench/gen.py, imported read-only)
import harness  # noqa: E402  (perfbench/harness.py, imported read-only)

SEED = 11
EPISODES = 2
REPEATS = 3


def _operator(event) -> str:
    if event.kind == "ingest":
        return "ingest_hinted" if event.bundle.topic_hint is not None else "ingest_unhinted"
    return event.kind


def _p99(samples: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def run_size(n: int, workdir: Path) -> dict:
    scale = dataclasses.replace(gen.FULL, store_topics=n)
    stats = harness.RunStats()
    cpu = harness.CpuPicker()
    samples: dict[str, list[float]] = {}
    engine_ms = audit_ms = 0.0
    records = 0
    try:
        for index in range(EPISODES):
            times = harness.EpisodeTimes()
            for _ in range(REPEATS):
                repeat = harness.EpisodeTimes()
                episode, engine = harness._setup("store-large", SEED, index, scale, stats, cpu)
                harness.drive(engine, episode, stats, repeat, cpu)
                harness.check_journal(engine, episode, workdir, stats, repeat, cpu)
                times.keep_fastest(repeat)
            for op, ns in zip(episode.ops, times.op_ns):
                if ns is not None:
                    samples.setdefault(_operator(op.event), []).append(ns / 1e6)
                    engine_ms += ns / 1e6
            audit_ms += times.audit_s * 1e3
            records += times.records
    finally:
        cpu.release()
    return {
        "n": n,
        "correct": stats.failed == 0,
        "failures": list(dict.fromkeys(stats.failures)),  # each repeat fails alike
        "operators": {
            name: {"samples": len(values), "p50_ms": statistics.median(values), "p99_ms": _p99(values)}
            for name, values in sorted(samples.items())
        },
        "engine_ms_per_record": engine_ms / records,
        "audit_ms_per_record": audit_ms / records,
    }


def add_ratios(rows: list[dict]) -> None:
    """Each latency and per-record cost as a ratio to the first row's."""
    first = rows[0]
    for row in rows:
        for name, stats in row["operators"].items():
            base = first["operators"].get(name)
            for key in ("p50", "p99"):
                stats[f"{key}_ratio"] = stats[f"{key}_ms"] / base[f"{key}_ms"] if base else None
        for key in ("engine_ms_per_record", "audit_ms_per_record"):
            row[f"{key}_ratio"] = row[key] / first[key]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="250,1000,4000", help="comma-separated store sizes; ratios are to the first")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        rows = [run_size(int(n), Path(workdir)) for n in args.sizes.split(",")]
    add_ratios(rows)
    for row in rows:
        print(json.dumps({"sweep": "store-large", "seed": SEED, "episodes": EPISODES, "repeats": REPEATS, **row}))
    return 0 if all(row["correct"] for row in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
