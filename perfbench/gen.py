"""Seeded inputs for the three benchmark workloads.

An episode is everything one fresh `Engine` needs: its config, genesis state,
dependency rules, the client operations to submit in order, and the probes the
auditor replays after every committed record.  `make_episode(workload, seed,
index)` is a pure function of its arguments, so the same seed gives the same
inputs in every process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from gemstore.config import BetaSpec, EngineConfig
from gemstore.engine import EngineEvent
from gemstore.model import (
    Edge,
    EdgeKind,
    Field,
    MemoryState,
    Provenance,
    Timestamp,
    Topic,
    ValueEntry,
    fresh_embedding_for,
)
from gemstore.operators import Fact, FactBundle, Query, RuleTable
from gemstore.policy import default_policy_set
from gemstore.salience import SalienceParams
from gemstore.workload_gen import generate_workload

WORKLOADS = ("mixed-small", "store-large", "decay-footprint")

# The probes scripts/soak_audit.py audits random workloads with.
SOAK_PROBES = (Query(text="atlas deadline"), Query(text="harbor owner status"))

_FIELD_WORDS = ("deadline", "owner", "status", "budget", "venue", "priority")
_VALUE_WORDS = ("march", "april", "june", "amber", "blue", "drafted", "approved", "blocked", "shipped")
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Op:
    """One client request: the event to submit, plus what the answer must hold."""

    event: EngineEvent
    expect_value: Optional[str] = None  # explicit lookup: value of the last history entry


@dataclass
class Episode:
    config: EngineConfig
    genesis: Optional[MemoryState]
    rules: RuleTable
    ops: list[Op]
    probes: tuple[Query, ...]


@dataclass(frozen=True)
class Scale:
    """Workload sizes; `FULL` is what the benchmark measures, `SMOKE` is for tests."""

    streams: int  # mixed-small: generate_workload streams (episodes) per round
    stream_events: int  # mixed-small: events per stream
    stream_topics: int  # mixed-small: concepts per stream
    store_topics: int  # store-large: live topics in genesis
    store_events: int  # store-large: client operations per episode
    store_revises: int  # store-large: auto-detect revise operations per episode
    decay_rounds: int  # decay-footprint: (ingest, tick) rounds per episode
    decay_beta: int  # decay-footprint: active footprint bound


FULL = Scale(15, 100, 8, 1000, 60, 2, 200, 100)
SMOKE = Scale(2, 30, 8, 40, 40, 1, 60, 20)

STORE_TICK_SHARE = 0.03
STORE_DECAY = 0.99  # 69 ticks to leave Active, so the scans stay near N topics
STORE_BETA_PER_TOPIC = 3  # 2 fields per topic: the footprint bound never binds
LOOKUP_EVERY = 4  # decay-footprint: explicit lookup of an earlier unit every k-th round
REVISE_EVERY = 50  # decay-footprint: auto-detect revise every m-th round


def episodes_per_round(workload: str, scale: Scale) -> int:
    return scale.streams if workload == "mixed-small" else 1


def params(workload: str, scale: Scale) -> dict:
    """The sizes and settings an episode of `workload` runs with."""
    if workload == "mixed-small":
        return {"streams": scale.streams, "stream_events": scale.stream_events, "concepts": scale.stream_topics,
                "config": "default", "probes": [q.text for q in SOAK_PROBES]}
    if workload == "store-large":
        return {"topics": scale.store_topics, "fields_per_topic": 2, "events": scale.store_events,
                "revises": scale.store_revises, "tick_share": STORE_TICK_SHARE,
                "extension_edges_at_most": scale.store_topics // 4, "association_edges_at_most": scale.store_topics // 4,
                "decay": STORE_DECAY, "beta": STORE_BETA_PER_TOPIC * scale.store_topics}
    return {"rounds": scale.decay_rounds, "beta": scale.decay_beta, "decay": SalienceParams().decay,
            "lookup_every": LOOKUP_EVERY, "revise_every": REVISE_EVERY}


def make_episode(workload: str, seed: int, index: int, scale: Scale = FULL) -> Episode:
    rng_seed = seed * 1_000_003 + index
    if workload == "mixed-small":
        return _mixed_small(rng_seed, scale)
    if workload == "store-large":
        return _store_large(random.Random(rng_seed), scale)
    if workload == "decay-footprint":
        return _decay_footprint(random.Random(rng_seed), scale)
    raise ValueError(f"unknown workload: {workload}")


def _mixed_small(stream_seed: int, scale: Scale) -> Episode:
    ops: list[Op] = []
    for ev in generate_workload(stream_seed, length=scale.stream_events, concepts=scale.stream_topics):
        if ev.op == "ingest":
            ops.append(Op(EngineEvent.ingest(ev.bundle)))
        elif ev.op == "query":
            ops.append(Op(EngineEvent.retrieve(ev.query)))
        elif ev.op == "tick":
            ops.extend(Op(EngineEvent.tick()) for _ in range(ev.count))
        elif ev.op == "revise":
            ops.append(Op(EngineEvent.revise()))
        elif ev.op == "forget":
            ops.append(Op(EngineEvent.forget()))
    return Episode(EngineConfig(), None, RuleTable.empty(), ops, SOAK_PROBES)


def _words(rng: random.Random, count: int) -> list[str]:
    """`count` distinct pronounceable three-syllable tokens."""
    out: set[str] = set()
    while len(out) < count:
        out.add("".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3)))
    return sorted(out)


def _genesis_topic(tid: str, title: str, field_names: list[str], values: list[str]) -> Topic:
    topic = Topic(id=tid, title=title, summary=title, embedding=None)
    for name, value in zip(field_names, values):
        f = Field(name=name)
        f.history.append(ValueEntry(value, Timestamp(0), (Provenance("genesis", 0),)))
        topic.fields[name] = f
    topic.embedding = fresh_embedding_for(topic)
    return topic


def _value(rng: random.Random) -> str:
    return f"{rng.choice(_VALUE_WORDS)}-{rng.randrange(1000)}"


def _store_large(rng: random.Random, scale: Scale) -> Episode:
    n = scale.store_topics
    vocab = _words(rng, 4 * n)
    rng.shuffle(vocab)
    titles = [vocab[4 * i : 4 * i + 4] for i in range(n)]
    ids = [f"{w[0]}-{w[1]}" for w in titles]
    fields = {tid: [f"{tid}-{w}" for w in rng.sample(_FIELD_WORDS, 2)] for tid in ids}
    title_of = {tid: " ".join(w) for tid, w in zip(ids, titles)}

    genesis = MemoryState(policies=default_policy_set())
    for tid in ids:
        genesis.topics[tid] = _genesis_topic(tid, title_of[tid], fields[tid], [_value(rng), _value(rng)])

    # Extension edges always point from the smaller to the larger topic id, so
    # the graph is acyclic and the engine's id-ordered drain visits a topic
    # only after every flagged predecessor.  Cycles are left out on purpose:
    # they make dependent values grow on every read (an open engine defect).
    rule_lines = []
    for _ in range(n // 4):
        a, b = sorted(rng.sample(ids, 2))
        edge = Edge(a, b, EdgeKind.EXTENSION, Timestamp(0))
        if edge.key() in genesis.edges:
            continue
        genesis.edges[edge.key()] = edge
        rule_lines.append(f"{a}.{fields[a][0]} -> {b}.{fields[b][0]} : shift-annotation")
    for _ in range(n // 4):
        a, b = rng.sample(ids, 2)
        edge = Edge(a, b, EdgeKind.ASSOCIATION, Timestamp(0))
        genesis.edges[edge.key()] = edge

    # A fixed schedule keeps the work of an episode the same from seed to
    # seed: ticks and the revises sit at fixed positions, ingests and
    # retrieves alternate, hints and read modes cycle.  The seed picks the
    # topics, fields and values.
    events = scale.store_events
    n_ticks = max(1, round(STORE_TICK_SHARE * events))
    schedule: dict[int, str] = {}
    for k in range(n_ticks):
        schedule[(2 * k + 1) * events // (2 * n_ticks)] = "tick"
    for k in range(scale.store_revises):
        schedule[(k + 1) * events // (scale.store_revises + 1) + 1] = "revise"
    modes = ("default", "historical", "default", "structural")
    ops: list[Op] = []
    n_ingest = n_retrieve = 0
    for index in range(events):
        kind = schedule.get(index) or ("ingest" if (index - len(schedule)) % 2 == 0 else "retrieve")
        tid = rng.choice(ids)
        name = rng.choice(fields[tid])
        if kind == "ingest":
            value = _value(rng)
            text = f"{title_of[tid]} update: {name} is {value}"
            hint = tid if n_ingest % 2 == 0 else None
            n_ingest += 1
            ops.append(Op(EngineEvent.ingest(FactBundle((Fact(name, value),), text, topic_hint=hint))))
        elif kind == "retrieve":
            mode = modes[n_retrieve % len(modes)]
            n_retrieve += 1
            if mode == "structural":
                query = Query(mode="structural", root=tid, depth=1 + n_retrieve // len(modes) % 2)
            else:
                # as_of never passes the clock: every earlier operation commits a tick
                as_of = rng.randint(0, index) if mode == "historical" and n_retrieve % 8 == 2 else None
                query = Query(text=f"{title_of[tid]} {name.rsplit('-', 1)[1]}", mode=mode, as_of=as_of)
            ops.append(Op(EngineEvent.retrieve(query)))
        else:
            ops.append(Op(EngineEvent.tick() if kind == "tick" else EngineEvent.revise()))

    config = EngineConfig(salience=SalienceParams(decay=STORE_DECAY), beta=BetaSpec(base=STORE_BETA_PER_TOPIC * n))
    probe_topics = rng.sample(ids, 2)
    probes = tuple(Query(text=f"{title_of[t]} {fields[t][0].rsplit('-', 1)[1]}") for t in probe_topics)
    return Episode(config, genesis, RuleTable.parse("\n".join(rule_lines)), ops, probes)


def _decay_footprint(rng: random.Random, scale: Scale) -> Episode:
    rounds = scale.decay_rounds
    names = _words(rng, rounds)
    rng.shuffle(names)
    ids = [f"{w}-{i:04d}" for i, w in enumerate(names)]
    ops: list[Op] = []
    units: list[tuple[str, str, str]] = []  # (topic, field, value) ingested per round
    for i, tid in enumerate(ids):
        name, value = f"{tid}-{rng.choice(_FIELD_WORDS)}", _value(rng)
        units.append((tid, name, value))
        text = f"note {i} about {names[i]}: {name} is {value}"
        ops.append(Op(EngineEvent.ingest(FactBundle((Fact(name, value),), text, topic_hint=tid))))
        ops.append(Op(EngineEvent.tick()))
        if i % LOOKUP_EVERY == LOOKUP_EVERY - 1:
            topic, field_name, expected = units[rng.randrange(i)]
            query = Query(mode="explicit", explicit=(topic, field_name))
            ops.append(Op(EngineEvent.retrieve(query), expect_value=expected))
        if i % REVISE_EVERY == REVISE_EVERY - 1:
            ops.append(Op(EngineEvent.revise()))
    config = EngineConfig(beta=BetaSpec(base=scale.decay_beta))
    probes = tuple(Query(text=f"{names[j]} {rng.choice(_FIELD_WORDS)}") for j in rng.sample(range(rounds), 2))
    return Episode(config, None, RuleTable.empty(), ops, probes)

