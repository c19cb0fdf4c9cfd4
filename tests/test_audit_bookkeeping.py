"""The auditor's own bookkeeping against the whole-store scans it replaced:
after every record of a set of journals, the running footprint and stale
totals of `audit.Tally` equal `model.active_footprint` and
`model.stale_current_exists` on the replayed state, and every retrieve whose
C6 check skips the hide ranks (`audit._ranks_may_worsen`) has no unit whose
rank the ranks would show worsened."""

import importlib.util
import itertools
from pathlib import Path

import pytest

from gemstore.audit import Tally, _hide_ranks, _ranks_may_worsen, _serves_stale
from gemstore.baseline import BaselineJournalAdapter
from gemstore.config import EngineConfig
from gemstore.engine import Engine, EngineEvent, replay_record
from gemstore.model import Field, MemoryState, Topic, ValueEntry, active_footprint, stale_current_exists
from gemstore.operators import OperatorError, retrieve_read
from gemstore.workload import compare, run_workload
from gemstore.workload_gen import generate_workload

ROOT = Path(__file__).resolve().parent.parent


def _check_against_scans(journal) -> int:
    """Replay `journal` beside a `Tally`, asserting the oracles after each
    committed record; returns how many retrieves skipped the ranks."""
    cfg = journal.config
    lam = cfg.salience.decay
    state = journal.genesis_state()
    tally = Tally(state)
    assert tally.footprint == active_footprint(state)
    skipped = 0
    for record in journal.records:
        if not record.committed:
            continue
        accessed = set()
        if record.operator == "retrieve":
            try:
                accessed = set(retrieve_read(state, EngineEvent.from_dict(record.input).query, cfg).accessed_units)
            except OperatorError:
                pass
        skip = bool(accessed) and not _ranks_may_worsen(record.deltas, accessed)
        pre_ranks = _hide_ranks(state, lam, accessed) if skip else {}
        replay_record(state, record)
        tally.after(state, record)
        assert tally.topics.keys() == state.topics.keys(), record.tick
        assert tally.footprint == active_footprint(state), record.tick
        assert (tally.stale > 0) == stale_current_exists(state), record.tick
        if skip:
            skipped += 1
            post_ranks = _hide_ranks(state, lam, accessed)
            assert [u for u in pre_ranks.keys() & post_ranks.keys() if post_ranks[u] < pre_ranks[u]] == []
    return skipped


@pytest.mark.parametrize("seed", range(20))
def test_the_tally_and_the_rank_skip_agree_with_the_scans_on_soak_journals(seed):
    engine = Engine()
    run_workload(engine, generate_workload(seed, length=100))
    assert _check_against_scans(engine.journal) > 0


def test_the_tally_and_the_rank_skip_agree_with_the_scans_on_the_revision_scenario():
    spec = importlib.util.spec_from_file_location("artefact_hashes", ROOT / "scripts" / "artefact_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    engine, _ = script.revision_run()
    assert _check_against_scans(engine.journal) > 0


def test_the_tally_and_the_rank_skip_agree_with_the_scans_on_a_baseline_journal():
    # the CRUD baseline evicts whole topics, which the tally must drop
    config = EngineConfig()
    adapter = BaselineJournalAdapter(config, capacity=3)
    compare(generate_workload(1), Engine(config=config), adapter)
    assert any(d["kind"] == "topic_removed" for r in adapter.journal.records for d in r.deltas)
    assert _check_against_scans(adapter.journal) > 0



def test_the_stale_predicate_agrees_with_the_scan_on_every_short_history():
    flags = [(False, False), (True, False), (False, True), (True, True)]  # (superseded, compressed)
    for length in range(4):
        for history in itertools.product(flags, repeat=length):
            f = Field("f", history=[ValueEntry(str(i), i, (), s, c) for i, (s, c) in enumerate(history)])
            state = MemoryState(topics={"t": Topic("t", "t", "t", fields={"f": f})})
            assert _serves_stale(f) == stale_current_exists(state), history
