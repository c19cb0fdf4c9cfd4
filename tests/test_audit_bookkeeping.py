"""The auditor's own bookkeeping against the whole-store scans and reads it
replaced, after every record of a set of journals:

- the running footprint and stale totals of `audit.Tally` equal
  `model.active_footprint` and `model.stale_current_exists` on the replayed
  state;
- every retrieve whose C6 check skips the hide ranks
  (`audit._ranks_may_worsen`) has no unit whose rank the ranks would show
  worsened;
- each probe's answers from its `audit.ProbeMemo` equal a fresh
  `retrieve_read` on the same state;
- the provenance C4 finds lost from the named topics (`audit._lost_provenance`)
  equals the whole store's before less its after.

A property test checks the memo's rule itself on small random stores."""

import importlib.util
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gemstore.audit import (
    ProbeMemo,
    Tally,
    _hide_ranks,
    _lost_provenance,
    _named,
    _ranks_may_worsen,
    _reachable_provenance,
    _serves_stale,
)
from gemstore.baseline import BaselineJournalAdapter
from gemstore.config import EngineConfig
from gemstore.embedding import DIM, _token_hash, rank_topics
from gemstore.engine import Engine, EngineEvent, replay_record
from gemstore.model import Field, MemoryState, Topic, ValueEntry, active_footprint, stale_current_exists
from gemstore.operators import OperatorError, Query, retrieve_read
from gemstore.transaction import apply_delta
from gemstore.workload import compare, run_workload
from gemstore.workload_gen import generate_workload

ROOT = Path(__file__).resolve().parent.parent


# the soak probes, a historical read of all time and one that raises until
# the clock reaches its as_of
PROBES = [Query(text="atlas deadline"), Query(text="harbor owner status"),
          Query(text="atlas deadline", mode="historical"),
          Query(text="harbor status", mode="historical", as_of=40)]


def _fresh_answers(state, probe, cfg):
    try:
        return retrieve_read(state, probe, cfg).answers
    except OperatorError:
        return []


def _check_against_scans(journal, probes=PROBES) -> tuple[int, int]:
    """Replay `journal` beside a `Tally` and a `ProbeMemo` per probe,
    asserting the oracles after each committed record; returns how many
    retrieves skipped the ranks and how many probe reads were reused."""
    cfg = journal.config
    lam = cfg.salience.decay
    state = journal.genesis_state()
    tally = Tally(state)
    assert tally.footprint == active_footprint(state)
    memos = [ProbeMemo(probe, cfg) for probe in probes]
    skipped = reused = 0
    for record in journal.records:
        if not record.committed:
            continue
        named = _named(record.deltas)
        accessed = set()
        if record.operator == "retrieve":
            try:
                accessed = set(retrieve_read(state, EngineEvent.from_dict(record.input).query, cfg).accessed_units)
            except OperatorError:
                pass
        skip = bool(accessed) and not _ranks_may_worsen(record.deltas, accessed)
        pre_ranks = _hide_ranks(state, lam, accessed) if skip else {}
        pre_named, pre_all = _reachable_provenance(state, named), _reachable_provenance(state)
        replay_record(state, record)
        tally.recount(state, named)
        assert tally.topics.keys() == state.topics.keys(), record.tick
        assert tally.footprint == active_footprint(state), record.tick
        assert (tally.stale > 0) == stale_current_exists(state), record.tick
        if skip:
            skipped += 1
            post_ranks = _hide_ranks(state, lam, accessed)
            assert [u for u in pre_ranks.keys() & post_ranks.keys() if post_ranks[u] < pre_ranks[u]] == []
        assert _lost_provenance(pre_named, state, named) == pre_all - _reachable_provenance(state), record.tick
        for memo in memos:
            before = memo.answers
            answers = memo.answers_after(state, named)
            reused += answers is before
            assert answers == _fresh_answers(state, memo.probe, cfg), (record.tick, memo.probe)
    return skipped, reused


@pytest.mark.parametrize("seed", range(20))
def test_the_tally_and_the_rank_skip_agree_with_the_scans_on_soak_journals(seed):
    engine = Engine()
    run_workload(engine, generate_workload(seed, length=100))
    assert min(_check_against_scans(engine.journal)) > 0


def test_the_tally_and_the_rank_skip_agree_with_the_scans_on_the_revision_scenario():
    spec = importlib.util.spec_from_file_location("artefact_hashes", ROOT / "scripts" / "artefact_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    engine, probes = script.revision_run()
    assert min(_check_against_scans(engine.journal, probes)) > 0


def test_the_tally_and_the_rank_skip_agree_with_the_scans_on_a_baseline_journal():
    # the CRUD baseline evicts whole topics, which the tally must drop
    config = EngineConfig()
    adapter = BaselineJournalAdapter(config, capacity=3)
    compare(generate_workload(1), Engine(config=config), adapter)
    assert any(d["kind"] == "topic_removed" for r in adapter.journal.records for d in r.deltas)
    assert min(_check_against_scans(adapter.journal)) > 0


def test_the_stale_predicate_agrees_with_the_scan_on_every_short_history():
    flags = [(False, False), (True, False), (False, True), (True, True)]  # (superseded, compressed)
    for length in range(4):
        for history in itertools.product(flags, repeat=length):
            f = Field("f", history=[ValueEntry(str(i), i, (), s, c) for i, (s, c) in enumerate(history)])
            state = MemoryState(topics={"t": Topic("t", "t", "t", fields={"f": f})})
            assert _serves_stale(f) == stale_current_exists(state), history


# w25 and w36 hash to one bucket with opposite signs, as do w74 and w75, so
# a topic titled w36 scores below 0 for the query w25; w2 shares no bucket
# with the others, so a topic titled w2 alone scores 0
_WORDS = ("w25", "w36", "w74", "w75", "w2")
_TITLES = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join)
# (kind, which topic, text): an entry appended to a new field, a topic
# created, archived or removed, or a salience set that changes no key
_CHANGES = st.tuples(st.sampled_from(["changed", "created", "archived", "removed", "accessed"]),
                     st.integers(0, 8), _TITLES)


def test_the_memo_words_collide_with_opposite_signs():
    def bucket(token):
        h = _token_hash(token)
        return h % DIM, -1 if (h >> 63) & 1 else 1

    for a, b in (("w25", "w36"), ("w74", "w75")):
        assert bucket(a)[0] == bucket(b)[0] and bucket(a)[1] != bucket(b)[1]
    assert len({bucket(w)[0] for w in _WORDS}) == 3


def _change(state: MemoryState, kind: str, tid: str, text: str) -> None:
    topic = state.topics.get(tid)
    if kind == "created" and topic is None:
        apply_delta(state, {"kind": "topic_created", "id": tid, "title": text, "summary": ""})
    elif kind == "changed" and topic is not None and "F" not in topic.fields:
        apply_delta(state, {"kind": "field_created", "topic": tid, "field": "F", "entity_tag": None, "salience": 1.0})
        apply_delta(state, {"kind": "entry_appended", "topic": tid, "field": "F", "value": text, "provenance": []})
    elif kind == "archived" and topic is not None and not topic.archived:
        apply_delta(state, {"kind": "topic_archived", "id": tid, "merged_into": None})
    elif kind == "removed" and topic is not None:
        apply_delta(state, {"kind": "topic_removed", "id": tid})
    elif kind == "accessed" and topic is not None and "F" in topic.fields:
        apply_delta(state, {"kind": "salience_set", "topic": tid, "field": "F", "value": 0.5})


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.lists(st.tuples(_TITLES, st.booleans()), max_size=8), _TITLES, st.integers(1, 4), _CHANGES)
def test_a_kept_probe_memo_holds_the_top_k_of_a_fresh_ranking(topics, query, k, change):
    state = MemoryState()
    for i, (title, archived) in enumerate(topics):
        apply_delta(state, {"kind": "topic_created", "id": f"t{i}", "title": title, "summary": ""})
        _change(state, "changed", f"t{i}", title)  # equal titles stay equal: ties broken by id
        if archived:
            _change(state, "archived", f"t{i}", "")
    memo = ProbeMemo(Query(text=query), EngineConfig(k_topics=k))
    memo.answers_after(state, set())
    assert memo.ranked == [(score, tid) for score, tid, _ in rank_topics(state, query, k)]
    kind, index, text = change
    _change(state, kind, f"t{index}", text)
    if memo._holds(state, {f"t{index}"}):
        assert memo.ranked == [(score, tid) for score, tid, _ in rank_topics(state, query, k)]
