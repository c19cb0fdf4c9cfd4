#!/usr/bin/env python3
"""Run the three-week deadline workload on the governed engine, audit the
resulting journal, and print the end-state answers."""

import sys
import time
from pathlib import Path

from gemstore import Engine, EngineEvent, Query
from gemstore.audit import audit, render_report
from gemstore.workload import load_workload, run_workload

WORKLOAD = Path(__file__).resolve().parent.parent / "workloads" / "deadline.workload"


def main() -> int:
    t0 = time.time()
    events = load_workload(WORKLOAD)
    engine = Engine()
    result = run_workload(engine, events)

    output, _ = engine.submit(EngineEvent.retrieve(Query(text="website redesign deadline")))
    for answer in output.answers:
        print(f"{answer.topic}.{answer.field} = {answer.value!r} (tick {answer.at})")

    report = audit(engine.journal, [Query(text="website redesign deadline")])
    sys.stdout.write(render_report(report))

    for failure in result.assert_failures:
        print(f"assert failed: {failure.detail}")
    print(f"elapsed: {time.time() - t0:.3f}s")
    return 0 if result.passed and report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
