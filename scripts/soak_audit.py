#!/usr/bin/env python3
"""Soak test: run many seeded random workloads and audit every journal,
timing the engine runs and the audits apart.
Usage: soak_audit.py [n_workloads] [events_per_workload]"""

import sys
import time

from gemstore import Engine
from gemstore.audit import audit
from gemstore.operators import Query
from gemstore.workload import run_workload
from gemstore.workload_gen import generate_workload

PROBES = [Query(text="atlas deadline"), Query(text="harbor owner status")]


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 100
    engine_s = audit_s = 0.0
    failures = 0
    for seed in range(n):
        events = generate_workload(seed, length=length)
        t0 = time.perf_counter()
        engine = Engine()
        run_workload(engine, events)
        t1 = time.perf_counter()
        report = audit(engine.journal, PROBES)
        t2 = time.perf_counter()
        engine_s += t1 - t0
        audit_s += t2 - t1
        if not report.passed:
            failures += 1
            print(f"seed {seed}: {report.totals()}")
    print(f"{n} workloads x {length} events, {failures} failures, engine {engine_s:.2f}s, audit {audit_s:.2f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
