#!/usr/bin/env python3
"""gemstore benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload mixed-small --seed 1 --seconds 20 --trace 0

Run it from the repository root; gemstore is imported from `src/`.  With
`--trace 0` it prints every end-to-end metric of BENCHMARK.json; with
`--trace 1` it wraps gemstore's functions and prints the per-layer metrics
instead.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every correctness check passed, 1 when one failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_gemstore():
    """Import gemstore from this checkout's sources and nowhere else."""
    if not (SRC / "gemstore" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import gemstore

    if Path(gemstore.__file__).resolve().parent != SRC / "gemstore":
        return None
    return gemstore


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if _import_gemstore() is None:
        print(f"perfbench: gemstore sources not found under {SRC}", file=sys.stderr)
        return 2
    import numpy

    import gen
    import harness
    import spans

    if args.workload not in gen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}",
              file=sys.stderr)
        return 2
    scale = gen.SMOKE if args.scale == "smoke" else gen.FULL
    workdir = harness.workdir_for(ROOT)
    tracer = spans.Tracer() if args.trace else None
    stats, traced = harness.run(args.workload, args.seed, args.seconds, workdir, scale, tracer)
    everything = [stats] if traced is None else [stats, traced]

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    _line("env", {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": harness.nproc(),
        "cpu": harness.cpu_model(),
        "commit": harness.git_commit(ROOT),
        "seed": args.seed,
        "params": {"scale": args.scale, **gen.params(args.workload, scale)},
    })
    _line("sizes", sizes(stats))
    _line("latency", harness.percentiles(stats))
    if tracer is None:
        metrics = harness.end_to_end(stats)
        for name, (value, _) in metrics.items():
            if not math.isfinite(value):
                stats.fail(f"{name} has no samples")
    else:
        metrics = spans.per_layer(traced, tracer, stats)
        print_trace_report(tracer, traced, stats)
        trace_path = workdir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}"
              f" ({tracer.dropped_spans} over the in-memory cap were timed but not kept)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    attempted = sum(s.attempted for s in everything)
    failed = sum(s.failed for s in everything)
    refused = sum(s.refused for s in everything)
    print(f"failed_frac {(failed + refused) / attempted:.6g} ratio: {failed} failed + {refused} refused"
          f" (ingests hinted at archived topics) of {attempted} attempted")
    for s in everything:
        for detail in s.failures:
            print(f"FAILED: {detail}")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def sizes(stats) -> dict:
    """Per-round sizes: episodes, topics, events, records, and event shares."""
    best = stats.best.values()
    runs = max(stats.episodes_run, 1)
    events = max(stats.submits, 1)
    return {
        "rounds": stats.episodes_run / max(len(stats.best), 1),
        "episodes_per_round": len(stats.best),
        "topics_per_episode": stats.sizes["topics"] / runs,
        "events_per_round": sum(len(t.kinds) for t in best),
        "records_per_round": sum(t.records for t in best),
        "unhinted_share": stats.sizes["unhinted"] / events,
        "structural_share": stats.sizes["structural"] / events,
        "tick_share": stats.ticks / events,
        "refused_per_round": stats.refused * len(stats.best) / runs,
        "aborted": dict(stats.aborted),
    }


def print_trace_report(tracer, traced, untraced) -> None:
    events = sum(len(t.kinds) for t in traced.best.values())
    traced_s = sum(t.engine_s for t in traced.best.values())
    untraced_s = sum(untraced.best[index].engine_s for index in traced.best)
    print(f"tracing overhead: traced {events / traced_s:.1f} events/s against untraced"
          f" {events / untraced_s:.1f} events/s on the same episodes (fastest engine phase of each)")
    for phase in ("engine", "replay", "audit"):
        by_layer = tracer.self_by_layer(phase)
        total = sum(by_layer.values()) or 1.0
        shares = ", ".join(f"{layer} {ms / total:.0%}" for layer, ms in by_layer.most_common())
        print(f"{phase} self time by layer ({total:.0f} ms): {shares}")
    print(f"  {'phase':7s} {'name':48s} {'calls':>9s} {'total ms':>10s} {'self ms':>10s}")
    for phase, _, name, calls, total_ms, self_ms in tracer.table()[:40]:
        print(f"  {phase or '-':7s} {name:48s} {calls:9d} {total_ms:10.1f} {self_ms:10.1f}")


def _line(label: str, obj) -> None:
    print(f"{label} {json.dumps(obj, sort_keys=True)}")


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


if __name__ == "__main__":
    sys.exit(main())
