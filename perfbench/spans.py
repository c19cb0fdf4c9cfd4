"""In-process tracing for the benchmark's traced run.

`Tracer.install()` replaces every public function of each `gemstore` module,
and a few methods, with a timing wrapper.  The replacement happens in every
module namespace that holds the function, because gemstore modules import
names directly (`gemstore.engine.ingest` is the operator the engine calls).
Layer-boundary functions record a span (name, phase, event id, parent span,
start, end); hot leaf functions such as `cosine` only add to counters, which
keeps memory bounded.  Both kinds feed per-name call counts, total time and
self time (duration minus the wrapped calls made inside it).
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import types
from collections import Counter
from pathlib import Path

import gemstore

# Functions and methods recorded as spans; everything else wrapped is a counter.
SPAN_NAMES = frozenset(
    {
        "engine.Engine.submit",
        "engine.replay",
        "operators.ingest",
        "operators.retrieve",
        "operators.revise",
        "operators.forget",
        "operators.detect_evidence",
        "operators.retrieve_read",
        "operators.hide_order",
        "embedding.select_host",
        "policy.evaluate_condition",
        "model.state_digest",
        "model.active_footprint",
        "model.stale_current_exists",
        "model.MemoryState.shallow_clone",
        "model.state_to_dict",
        "model.state_from_dict",
        "storage.write_journal",
        "storage.read_journal",
        "audit.audit",
        "audit._reachable_provenance",
    }
)
PRIVATE_NAMES = frozenset({"_reachable_provenance"})
METHODS = (
    ("engine", "Engine", "submit"),
    ("model", "MemoryState", "shallow_clone"),
    ("model", "MemoryState", "extension_successors"),
    ("model", "MemoryState", "association_neighbors"),
    ("model", "Topic", "canonical_bytes"),
    ("model", "Topic", "to_dict"),
)
MAX_SPANS = 400_000


class Tracer:
    def __init__(self):
        self.phase: str | None = None
        self.stack: list[list] = []  # [name, child_ns, span or None] per active wrapped call
        self.calls: Counter = Counter()  # (phase, name) -> calls
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()  # (phase, key) -> extra counts from hooks
        self.spans: list[list] = []  # [name, phase, event, parent index, start_ns, end_ns, index]
        self.dropped_spans = 0
        self.event = 0
        self._patched: list[tuple[object, str, object]] = []
        self.embed_cache = Counter()

    # -- installation -----------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap gemstore's public functions wherever they are looked up."""
        modules = [importlib.import_module(f"gemstore.{m.name}") for m in pkgutil.iter_modules(gemstore.__path__)]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in vars(module).items():
                if not isinstance(value, types.FunctionType) or not value.__module__.startswith("gemstore."):
                    continue
                if attr.startswith("_") and attr not in PRIVATE_NAMES:
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.split('.', 1)[1]}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(value, name)
        for module, cls, method in METHODS:
            owner = getattr(importlib.import_module(f"gemstore.{module}"), cls)
            self._patch(owner, method, self._wrap(vars(owner)[method], f"{module}.{cls}.{method}"))
        for module in [gemstore, *modules, *extra_modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    self._patch(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str):
        tracer = self
        clock = time.perf_counter_ns
        is_span = name in SPAN_NAMES
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:  # recursion belongs to the outer call
                return fn(*args, **kwargs)
            key_name = name
            before = None
            if hook is not None:
                key_name, before = hook.before(tracer, name, args)
            span = None
            if is_span:
                span = tracer._open_span(key_name)
            frame = [name, 0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                key = (tracer.phase, key_name)
                tracer.calls[key] += 1
                tracer.total_ns[key] += duration
                tracer.self_ns[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span is not None:
                    span[4], span[5] = start, end
            if hook is not None:
                hook.after(tracer, before, args, result)
            return result

        return wrapper

    def _open_span(self, name: str):
        parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
        if parent is None:
            self.event += 1
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return [name, self.phase, self.event, None, 0, 0, None]  # timed, not kept
        span = [name, self.phase, self.event, parent[6] if parent else None, 0, 0, len(self.spans)]
        self.spans.append(span)
        return span

    # -- phases and harness callbacks ---------------------------------------

    def begin(self, phase: str | None) -> None:
        self.phase = phase

    def embed_cache_delta(self, before, after) -> None:
        self.embed_cache["hits"] += after.hits - before.hits
        self.embed_cache["misses"] += after.misses - before.misses

    def on_journal(self, journal) -> None:
        """Re-encode each delta to attribute journal bytes to delta kinds."""
        from gemstore.model import canonical_json

        for record in journal.records:
            for delta in record.deltas:
                self.counts[("storage", f"delta_bytes.{delta['kind']}")] += len(canonical_json(delta))

    # -- queries ------------------------------------------------------------

    def total_ms(self, phase: str, name: str) -> float:
        return self.total_ns[(phase, name)] / 1e6

    def self_ms(self, phase: str, name: str) -> float:
        return self.self_ns[(phase, name)] / 1e6

    def n(self, phase: str, name: str) -> int:
        return self.calls[(phase, name)]

    def prefixed(self, phase: str, prefix: str) -> tuple[int, float]:
        """(calls, total ms) summed over every name starting with `prefix`."""
        calls = sum(v for (p, k), v in self.calls.items() if p == phase and k.startswith(prefix))
        ns = sum(v for (p, k), v in self.total_ns.items() if p == phase and k.startswith(prefix))
        return calls, ns / 1e6

    def self_by_layer(self, phase: str) -> Counter:
        """Self time in ms per gemstore module during `phase`."""
        out: Counter = Counter()
        for (p, name), ns in self.self_ns.items():
            if p == phase:
                out[name.split(".", 1)[0]] += ns / 1e6
        return out

    def table(self) -> list[tuple]:
        """(phase, layer, name, calls, total ms, self ms) sorted by self time."""
        rows = []
        for (phase, name), calls in self.calls.items():
            rows.append((phase, name.split(".", 1)[0], name, calls,
                         self.total_ns[(phase, name)] / 1e6, self.self_ns[(phase, name)] / 1e6))
        rows.sort(key=lambda r: -r[5])
        return rows

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, phase, event, parent, start, end (ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, phase, event, parent, start, end, index in self.spans:
                fh.write(json.dumps({"id": index, "name": name, "phase": phase, "event": event,
                                     "parent": parent, "start_ns": start, "end_ns": end}) + "\n")


# ---------------------------------------------------------------------------
# Per-function hooks: measurements a plain span cannot give
# ---------------------------------------------------------------------------


class _Hook:
    def before(self, tracer: Tracer, name: str, args):
        return name, None

    def after(self, tracer: Tracer, before, args, result) -> None:
        pass


class _DeltaKind(_Hook):
    """apply_delta(state, delta): split calls and time by delta kind."""

    def before(self, tracer, name, args):
        return f"{name}.{args[1]['kind']}", None


class _PolicyPhase(_Hook):
    """evaluate_condition(cond, state, ctx): only pre_commit contexts bind beta."""

    def before(self, tracer, name, args):
        return f"{name}.{'pre_commit' if 'beta' in args[2] else 'event'}", None


class _CanonicalCache(_Hook):
    """Topic.canonical_bytes(self): a hit is served without Topic.to_dict."""

    def before(self, tracer, name, args):
        hit = args[0]._canonical_cache is not None
        tracer.counts[(tracer.phase, "model.canonical_cache_hits")] += hit
        return name, None


class _CosineScan(_Hook):
    """Count the cosine calls a scan makes (`<label>.compared`) and the items
    it returns (`<label>.found`)."""

    def __init__(self, label, result_count):
        self.label = label
        self.result_count = result_count

    def before(self, tracer, name, args):
        return name, tracer.calls[(tracer.phase, "embedding.cosine")]

    def after(self, tracer, before, args, result):
        phase = tracer.phase
        tracer.counts[(phase, f"{self.label}.compared")] += tracer.calls[(phase, "embedding.cosine")] - before
        tracer.counts[(phase, f"{self.label}.found")] += self.result_count(result)


_HOOKS = {
    "transaction.apply_delta": _DeltaKind(),
    "policy.evaluate_condition": _PolicyPhase(),
    "model.Topic.canonical_bytes": _CanonicalCache(),
    "operators.detect_evidence": _CosineScan("detect_evidence", len),
    "operators.retrieve_read": _CosineScan("retrieve_read", lambda out: len(out.answers)),
}


# ---------------------------------------------------------------------------
# Per-layer metrics of BENCHMARK.json
# ---------------------------------------------------------------------------

DELTA_KINDS = (
    "salience_set",
    "tier_set",
    "entry_appended",
    "entry_flags",
    "last_access_set",
    "embedding_refresh",
    "history_compressed",
    "flag_added",
)
AUDIT_HELPERS = (
    ("retrieve_read", "operators.retrieve_read"),
    ("hide_order", "operators.hide_order"),
    ("state_digest", "model.state_digest"),
    ("evaluate_condition", "policy.evaluate_condition."),
    ("stale_current_exists", "model.stale_current_exists"),
    ("reachable_provenance", "audit._reachable_provenance"),
    ("active_footprint", "model.active_footprint"),
    ("apply_delta", "transaction.apply_delta."),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(stats, tracer: Tracer, untraced) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds, normalised per event, call,
    tick, transition or record so that they do not depend on run length."""
    t = tracer
    E = "engine"
    events = stats.submits
    episodes = stats.episodes_run
    aborted = sum(stats.aborted.values())
    transitions = stats.records - aborted
    ticks = stats.ticks

    def per_call(phase, name):
        return _ratio(t.total_ms(phase, name), t.n(phase, name)), "ms/call"

    m: dict[str, tuple[float, str]] = {
        "engine.transitions": (_ratio(transitions, episodes), "1/episode"),
        "engine.aborted": (_ratio(aborted, episodes), "1/episode"),
        "engine.aborted.archived_hint": (_ratio(stats.refused, episodes), "1/episode"),
        "engine.aborted.other": (_ratio(aborted - stats.refused, episodes), "1/episode"),
        "engine.drain_revisions": (_ratio(stats.drain_revisions, episodes), "1/episode"),
        "engine.revision_queue_peak": (float(stats.queue_peak), "count"),
        "engine.submit.self_ms": (_ratio(t.self_ms(E, "engine.Engine.submit"), events), "ms/event"),
    }
    for op in ("ingest", "retrieve", "forget", "revise", "detect_evidence"):
        m[f"operators.{op}.ms"] = per_call(E, f"operators.{op}")
    n_detect = t.n(E, "operators.detect_evidence")
    m["operators.detect_evidence.pairs_compared"] = (_ratio(t.counts[(E, "detect_evidence.compared")], n_detect), "1/call")
    m["operators.detect_evidence.items_found"] = (_ratio(t.counts[(E, "detect_evidence.found")], n_detect), "1/call")
    m["operators.retrieve_read.topics_ranked_per_answer"] = (
        _ratio(t.counts[(E, "retrieve_read.compared")], t.counts[(E, "retrieve_read.found")]), "ratio")

    m["embedding.select_host.ms"] = per_call(E, "embedding.select_host")
    m["embedding.cosine.calls"] = (_ratio(t.n(E, "embedding.cosine"), events), "1/event")
    cache = t.embed_cache
    m["embedding.embed.cache_hit_ratio"] = (_ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")

    for kind in ("event", "pre_commit"):
        name = f"policy.evaluate_condition.{kind}"
        m[f"{name}.calls"] = (_ratio(t.n(E, name), events), "1/event")
        m[f"{name}.ms"] = per_call(E, name)

    m["model.state_digest.calls"] = (_ratio(t.n(E, "model.state_digest"), events), "1/event")
    m["model.state_digest.ms"] = per_call(E, "model.state_digest")
    m["model.canonical_cache_hit_ratio"] = (
        _ratio(t.counts[(E, "model.canonical_cache_hits")], t.n(E, "model.Topic.canonical_bytes")), "ratio")
    for name in ("active_footprint", "stale_current_exists"):
        m[f"model.{name}.ms"] = per_call(E, f"model.{name}")
    m["model.shallow_clone.ms"] = per_call(E, "model.MemoryState.shallow_clone")

    delta_calls, delta_ms = t.prefixed(E, "transaction.apply_delta.")
    m["transaction.deltas_per_transition"] = (_ratio(delta_calls, transitions), "1/transition")
    m["transaction.apply_delta.ms"] = (_ratio(delta_ms, transitions), "ms/transition")
    for kind in DELTA_KINDS:
        m[f"transaction.apply_delta.calls.{kind}"] = (
            _ratio(t.n(E, f"transaction.apply_delta.{kind}"), transitions), "1/transition")

    m["salience.decay.calls"] = (_ratio(t.n(E, "salience.decay"), ticks), "1/tick")
    m["salience.tier_of.calls"] = (_ratio(t.n(E, "salience.tier_of"), ticks), "1/tick")

    m["storage.write_journal.ms"] = per_call("write", "storage.write_journal")
    m["storage.read_journal.ms"] = per_call("replay", "storage.read_journal")
    m["storage.genesis_bytes"] = (_ratio(stats.genesis_bytes, episodes), "B/journal")
    for kind in DELTA_KINDS:
        m[f"storage.delta_bytes.{kind}"] = (_ratio(t.counts[("storage", f"delta_bytes.{kind}")], stats.records),
                                            "B/record")

    records = stats.records
    m["replay.ms"] = (_ratio(t.total_ms("replay", "engine.replay"), records), "ms/record")
    m["replay.state_digest.ms"] = (_ratio(t.total_ms("replay", "model.state_digest"), records), "ms/record")
    m["audit.ms"] = (_ratio(t.total_ms("audit", "audit.audit"), records), "ms/record")
    for label, prefix in AUDIT_HELPERS:
        m[f"audit.{label}.ms"] = (_ratio(t.prefixed("audit", prefix)[1], records), "ms/record")

    traced_s = sum(times.engine_s for times in stats.best.values())
    untraced_s = sum(untraced.best[index].engine_s for index in stats.best)
    m["tracing.overhead_pct"] = ((_ratio(traced_s, untraced_s) - 1.0) * 100.0, "%")
    return m
