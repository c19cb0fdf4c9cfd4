"""Episode runner: set up, drive `Engine.submit` as a closed loop with one
client, then write, read, replay and audit the journal and check the results.

A run fixes a set of episodes from its seed and replays the whole set in
rounds until its time budget is spent.  Every repeat of an episode does
exactly the same work (the embedding cache is cleared before each set-up), so
each timing is kept as the fastest of its repeats.  On a shared machine that
filters out the multi-second slowdowns other tenants cause, which the median
of a single pass cannot.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import struct
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from gemstore import embedding
from gemstore.audit import audit
from gemstore.engine import Engine, replay
from gemstore.model import state_digest
from gemstore.storage import read_journal, write_journal

from gen import FULL, Episode, Scale, episodes_per_round, make_episode

TIMED_KINDS = ("ingest", "retrieve", "tick", "revise")
PHASES = ("engine_s", "write_s", "replay_s", "audit_s")
ARCHIVED_HINT = "topic_hint names archived topic"


@dataclass
class EpisodeTimes:
    """Timings of one episode; after `keep_fastest`, the fastest of its repeats."""

    engine_s: float = math.inf
    write_s: float = math.inf
    replay_s: float = math.inf
    audit_s: float = math.inf
    op_ns: list[Optional[int]] = field(default_factory=list)  # submit latency per op; None if it raised
    kinds: list[str] = field(default_factory=list)
    records: int = 0
    record_bytes: int = 0

    def keep_fastest(self, other: "EpisodeTimes") -> None:
        for name in PHASES:
            setattr(self, name, min(getattr(self, name), getattr(other, name)))
        if not self.op_ns:
            self.op_ns, self.kinds = list(other.op_ns), other.kinds
        else:
            self.op_ns = [b if a is None else a if b is None else min(a, b) for a, b in zip(self.op_ns, other.op_ns)]
        self.records, self.record_bytes = other.records, other.record_bytes


@dataclass
class RunStats:
    """Fastest timings per episode, and counters summed over every repeat."""

    best: dict[int, EpisodeTimes] = field(default_factory=dict)
    setups_s: list[float] = field(default_factory=list)  # every set-up of the run
    episodes_run: int = 0
    submits: int = 0
    records: int = 0
    ticks: int = 0
    genesis_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    failures: list[str] = field(default_factory=list)
    aborted: Counter = field(default_factory=Counter)
    drain_revisions: int = 0
    queue_peak: int = 0
    sizes: Counter = field(default_factory=Counter)

    def fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(detail)


class CpuPicker:
    """Keep the process on whichever allowed CPU currently runs a fixed loop
    fastest.  On a shared machine, tenants slow single virtual CPUs down for
    seconds at a time, and which one is slow changes; `repick` moves the
    process at most once per `interval_s`, between timed operations."""

    MAX_CANDIDATES = 4

    def __init__(self, interval_s: float = 0.5):
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)[: self.MAX_CANDIDATES]
        self.interval_s = interval_s
        self.last = -math.inf

    def repick(self) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or now - self.last < self.interval_s:
            return
        best = min(self.cpus, key=self._probe)
        os.sched_setaffinity(0, {best})
        self.last = time.perf_counter()

    def release(self) -> None:
        os.sched_setaffinity(0, self.allowed)

    @staticmethod
    def _probe(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            sum(i * i for i in range(20_000))
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else math.nan


def _setup(workload: str, seed: int, index: int, scale: Scale, stats: RunStats,
           cpu: CpuPicker) -> tuple[Episode, Engine]:
    """Generate the inputs, build genesis and construct the engine, timed."""
    # a cold embedding cache and a collected heap make every repeat of an
    # episode do the same work
    embedding._embed_tuple.cache_clear()
    gc.collect()
    cpu.repick()
    t0 = time.perf_counter()
    episode = make_episode(workload, seed, index, scale)
    engine = Engine(config=episode.config, genesis=episode.genesis, rules=episode.rules)
    stats.setups_s.append(time.perf_counter() - t0)
    return episode, engine


def _is_expected_refusal(engine: Engine, op) -> bool:
    """An ingest hinted at an archived, unmerged topic is refused by design."""
    bundle = op.event.bundle
    if op.event.kind != "ingest" or bundle.topic_hint is None:
        return False
    topic = engine.state.topics.get(bundle.topic_hint)
    if topic is None or not topic.archived:
        return False
    merged = engine.state.topics.get(topic.merged_into) if topic.merged_into else None
    return merged is None or merged.archived


def drive(engine: Engine, episode: Episode, stats: RunStats, times: EpisodeTimes, cpu: CpuPicker) -> None:
    """Submit every operation in order; time each submit and check its answer."""
    clock = time.perf_counter_ns
    t_start = clock()
    for op in episode.ops:
        cpu.repick()
        stats.attempted += 1
        kind = op.event.kind
        times.kinds.append(kind)
        if kind == "ingest" and op.event.bundle.topic_hint is None:
            stats.sizes["unhinted"] += 1
        elif kind == "retrieve" and op.event.query.mode == "structural":
            stats.sizes["structural"] += 1
        refusal = _is_expected_refusal(engine, op)
        t0 = clock()
        try:
            output, records = engine.submit(op.event)
        except Exception as exc:  # an exception out of submit is a failed operation
            times.op_ns.append(None)
            stats.fail(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        times.op_ns.append(clock() - t0)
        stats.submits += 1
        stats.ticks += kind == "tick"
        for record in records[:-1]:
            stats.drain_revisions += 1
            if not record.committed:
                stats.aborted[record.reason] += 1
                stats.fail(f"drain revise aborted: {record.reason}")
        final = records[-1]
        if not final.committed:
            stats.aborted[final.reason] += 1
            if refusal and final.reason.startswith(ARCHIVED_HINT):
                stats.refused += 1
            else:
                stats.fail(f"{kind} aborted: {final.reason}")
        elif op.expect_value is not None:
            got = output.answers[-1].value if output and output.answers else None
            if got != op.expect_value:
                stats.fail(f"explicit lookup returned {got!r}, ingested {op.expect_value!r}")
        stats.queue_peak = max(stats.queue_peak, len(engine.state.revision_queue))
    times.engine_s = (clock() - t_start) / 1e9


def _frame_bytes(path: Path) -> tuple[int, int]:
    """(genesis header frame bytes, record frame bytes) of a journal file."""
    data = path.read_bytes()
    (header_len,) = struct.unpack(">I", data[4:8])
    header_end = 4 + 4 + header_len
    return header_end - 4, len(data) - header_end


def check_journal(engine: Engine, episode: Episode, workdir: Path, stats: RunStats, times: EpisodeTimes,
                  cpu: CpuPicker, tracer=None) -> None:
    """Write, read, replay and audit the episode's journal, timing each step."""

    def mark(phase: str) -> None:
        cpu.repick()
        if tracer is not None:
            tracer.begin(phase)

    first, second = workdir / "episode.journal", workdir / "episode.rewrite.journal"
    stats.attempted += 3  # round trip, replay digest, audit
    try:
        mark("write")
        t0 = time.perf_counter()
        write_journal(first, engine.journal)
        t1 = time.perf_counter()
        mark("replay")
        journal = read_journal(first)
        final = replay(journal)
        t2 = time.perf_counter()
        mark("audit")
        report = audit(journal, list(episode.probes))
        t3 = time.perf_counter()
        mark("check")
        write_journal(second, journal)
        same_bytes = first.read_bytes() == second.read_bytes()
        genesis_bytes, times.record_bytes = _frame_bytes(first)
        if tracer is not None:
            tracer.on_journal(journal)
    except Exception as exc:  # a journal that cannot be written, read or audited
        stats.fail(f"journal check raised {type(exc).__name__}: {exc}")
        return
    finally:
        for path in (first, second):
            path.unlink(missing_ok=True)
    times.write_s, times.replay_s, times.audit_s = t1 - t0, t2 - t1, t3 - t2
    times.records = len(journal.records)
    stats.records += times.records
    stats.genesis_bytes += genesis_bytes
    if not same_bytes:
        stats.fail("journal write -> read -> write is not byte-identical")
    if state_digest(final) != engine.digest():
        stats.fail("replay does not end on the engine's final digest")
    if not report.passed:
        stats.fail(f"audit violations: {report.totals()}")


def run_episode(workload: str, seed: int, index: int, scale: Scale, workdir: Path, stats: RunStats,
                cpu: CpuPicker, tracer=None) -> None:
    times = EpisodeTimes()
    if tracer is not None:
        tracer.begin("setup")
    episode, engine = _setup(workload, seed, index, scale, stats, cpu)
    if tracer is not None:
        tracer.begin("engine")
    cache_before = embedding._embed_tuple.cache_info()
    drive(engine, episode, stats, times, cpu)
    if tracer is not None:
        tracer.embed_cache_delta(cache_before, embedding._embed_tuple.cache_info())
    check_journal(engine, episode, workdir, stats, times, cpu, tracer)
    if tracer is not None:
        tracer.begin(None)
    stats.sizes["topics"] += len(engine.state.topics)
    stats.episodes_run += 1
    stats.best.setdefault(index, EpisodeTimes()).keep_fastest(times)


def run(workload: str, seed: int, seconds: float, workdir: Path, scale: Scale = FULL,
        tracer=None) -> tuple[RunStats, Optional[RunStats]]:
    """Repeat the run's episodes in rounds while another round fits in `seconds`.

    Returns the untraced stats and, when `tracer` is given, the stats of the
    traced rounds, which alternate with untraced ones so that both see the
    same episodes and the tracing overhead can be read off their timings."""
    stats = RunStats()
    traced = RunStats() if tracer is not None else None
    min_rounds = 1 if tracer is None else 2
    cpu = CpuPicker()
    started = time.perf_counter()
    rounds = 0
    try:
        while True:
            round_start = time.perf_counter()
            trace_this = traced is not None and rounds % 2 == 1
            if trace_this:
                tracer.install(extra_modules=[sys.modules[__name__]])
            try:
                for index in range(episodes_per_round(workload, scale)):
                    if trace_this:
                        run_episode(workload, seed, index, scale, workdir, traced, cpu, tracer)
                    else:
                        run_episode(workload, seed, index, scale, workdir, stats, cpu)
            finally:
                if trace_this:
                    tracer.uninstall()
            rounds += 1
            now = time.perf_counter()
            if rounds >= min_rounds and now + (now - round_start) - started > seconds:
                break
    finally:
        cpu.release()
    return stats, traced


def end_to_end(stats: RunStats) -> dict[str, tuple[float, str]]:
    best = list(stats.best.values())
    records = sum(t.records for t in best)
    ops_ns = [ns for t in best for ns in t.op_ns if ns is not None]
    metrics = {
        "setup_s": (_median(stats.setups_s), "s"),
        "events_per_s": (len(ops_ns) / (sum(ops_ns) / 1e9), "1/s"),
    }
    for kind, samples in latencies(stats).items():
        metrics[f"{kind}_p50_ms"] = (_median(samples) / 1e6, "ms")
    metrics.update({
        "journal_bytes_per_transition": (sum(t.record_bytes for t in best) / records, "B"),
        "write_records_per_s": (records / sum(t.write_s for t in best), "1/s"),
        "replay_records_per_s": (records / sum(t.replay_s for t in best), "1/s"),
        "audit_records_per_s": (records / sum(t.audit_s for t in best), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })
    return metrics


def latencies(stats: RunStats) -> dict[str, list[int]]:
    """Fastest-of-repeats submit latency of every op, by event kind."""
    out: dict[str, list[int]] = {kind: [] for kind in TIMED_KINDS}
    for times in stats.best.values():
        for kind, ns in zip(times.kinds, times.op_ns):
            if kind in out and ns is not None:
                out[kind].append(ns)
    return out


def percentiles(stats: RunStats) -> dict[str, dict]:
    """p50 for every timed kind, and p99 where at least 1000 ops back it."""
    out = {}
    for kind, samples in latencies(stats).items():
        samples.sort()
        row = {"n": len(samples), "p50_ms": _median(samples) / 1e6}
        if len(samples) >= 1000:
            row["p99_ms"] = samples[int(0.99 * (len(samples) - 1))] / 1e6
        out[kind] = row
    return out


def workdir_for(root: Path) -> Path:
    path = root / ".perfbench-work"
    path.mkdir(exist_ok=True)
    return path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))
