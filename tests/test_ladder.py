"""The forget ladder's schedule.  The ladder part's crossings equal a linear
search with `decay`; the scheduled ladder journals exactly the deltas of the
full scan it replaced, kept here as the oracle; and a state or a delta whose
salience the ladder could not decay is refused where it enters."""

import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import build_state, build_topic
from gemstore import engine as engine_module
from gemstore.config import BetaSpec, ConfigError, EngineConfig
from gemstore.engine import Engine, EngineEvent
from gemstore.model import Field, Tier, ValueEntry, state_from_dict, state_to_dict
from gemstore.operators import Fact, FactBundle, Query, _compress_field, _enforce_footprint, forget
from gemstore.salience import SalienceParams, crossing, decay, due_epoch, tier_of
from gemstore.transaction import Txn
from gemstore.workload import run_workload
from gemstore.workload_gen import generate_workload

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

P = SalienceParams()


def _scan_cut(f: Field, k_recent: int) -> int:
    cut = len(f.history) - k_recent
    current = f.current_entry()
    if current is not None:
        cut = min(cut, f.history.index(current))
    return cut


def full_scan_forget(txn: Txn, cfg: EngineConfig, next_tick: int) -> None:
    """The untargeted forget ladder as a scan of every live topic, in id
    order, then the footprint bound, with its rules spelled out."""
    p = cfg.salience
    state = txn.state
    for tid in sorted(state.topics):
        topic = state.topics[tid]
        if topic.archived:
            continue
        dormant = bool(topic.fields)
        epoch = state.epoch_of(topic)
        for name in sorted(topic.fields):
            f = topic.fields[name]
            s = decay(f.salience, epoch - f.since, p.decay)
            dormant = dormant and s < p.theta_archive
            tier = tier_of(s, p)
            cut = _scan_cut(f, p.k_recent)
            if tier is not Tier.ACTIVE and cut >= 2:
                _compress_field(txn, tid, name, cut)
            if f.tier is not tier:
                txn.set_tier(tid, name, tier)
        if dormant:
            txn.archive_topic(tid)
    _enforce_footprint(txn, cfg, next_tick)


def assert_ladders_agree(state, cfg: EngineConfig, next_tick: int) -> list[dict]:
    """The scheduled and the full-scan ladder, each on its own fork of
    `state`, journal the same deltas; returns them."""
    scheduled, scanned = Txn(state), Txn(state)
    forget(scheduled, cfg, next_tick)
    full_scan_forget(scanned, cfg, next_tick)
    assert scheduled.deltas == scanned.deltas
    return scanned.deltas


@pytest.fixture
def checked_ladder(monkeypatch):
    """Before every untargeted forget an engine runs (a tick, a forget, an
    untargeted attenuate), check it against the full scan; return the
    number of deltas of each check."""
    checked = []

    def forget_checked(txn, cfg, next_tick, targets=None):
        if targets is None:
            checked.append(len(assert_ladders_agree(txn.state, cfg, next_tick)))
        forget(txn, cfg, next_tick, targets)

    monkeypatch.setattr(engine_module, "forget", forget_checked)
    return checked


# -- the crossing --------------------------------------------------------------


def _linear_crossing(s: float, theta: float, lam: float) -> int:
    d = 0
    while decay(s, d, lam) >= theta:
        d += 1
    return d


@given(
    s=st.floats(min_value=0.0, max_value=50.0),
    theta=st.floats(min_value=1e-3, max_value=1.0),
    lam=st.floats(min_value=0.5, max_value=0.99),
)
@example(s=1.0, theta=P.theta_summary, lam=P.decay)
@example(s=1.0, theta=P.theta_archive, lam=0.99)
def test_the_crossing_is_the_first_tick_that_decays_below_theta(s, theta, lam):
    for salience in (s, 0.0, theta, math.nextafter(theta, 0.0)):
        assert crossing(salience, theta, lam) == _linear_crossing(salience, theta, lam), salience


# -- the scheduled ladder against the full scan ----------------------------------


_SALIENCES = [0.0, P.theta_summary, P.theta_remove, P.theta_archive] + [
    math.nextafter(theta, 0.0) for theta in (P.theta_summary, P.theta_remove, P.theta_archive)]
_FIELD = st.tuples(
    st.one_of(st.sampled_from(_SALIENCES), st.floats(min_value=0.0, max_value=3.0)),
    st.integers(min_value=0, max_value=5),  # the epoch it was set at
    st.sampled_from(list(Tier)),
    st.lists(st.booleans(), min_size=1, max_size=6),  # which of its history entries are superseded
)


def _drawn_topic(fields) -> tuple:
    """Topic `t` with the drawn fields, and the latest epoch one was set at."""
    topic = build_topic("t")
    for i, (salience, since, tier, superseded) in enumerate(fields):
        history = [ValueEntry(f"v{j}", j, (), superseded=flag) for j, flag in enumerate(superseded)]
        topic.fields[f"F{i}"] = Field(f"F{i}", history=history, salience=salience, since=since, tier=tier)
    return topic, max((since for _, since, _, _ in fields), default=0)


@settings(max_examples=300)
@given(fields=st.lists(_FIELD, max_size=3), k_recent=st.integers(min_value=0, max_value=3),
       ahead=st.integers(min_value=0, max_value=40))
def test_a_topic_the_ladder_skips_is_one_the_full_scan_leaves_as_it_is(fields, k_recent, ahead):
    topic, latest = _drawn_topic(fields)
    state = build_state([topic, build_topic("empty")])
    state.epoch = latest + ahead
    cfg = EngineConfig(salience=SalienceParams(k_recent=k_recent), beta=BetaSpec(base=100))
    assert_ladders_agree(state, cfg, 1)


@settings(max_examples=200)
@given(fields=st.lists(_FIELD, min_size=1, max_size=3), k_recent=st.integers(min_value=0, max_value=3),
       ahead=st.integers(min_value=0, max_value=5))
def test_the_due_epoch_is_the_first_at_which_the_full_scan_changes_the_topic(fields, k_recent, ahead):
    topic, latest = _drawn_topic(fields)
    state = build_state([topic])
    start = latest + ahead
    cfg = EngineConfig(salience=SalienceParams(k_recent=k_recent), beta=BetaSpec(base=100))
    due = due_epoch(topic, cfg.salience, start)
    for epoch in range(start, due + 1):
        state.epoch = epoch
        txn = Txn(state)
        full_scan_forget(txn, cfg, 1)
        assert bool(txn.deltas) == (epoch == due), epoch


_CONFIGS = {
    "default": EngineConfig(),
    # the footprint hides fields whose salience is still Active
    "tight-footprint": EngineConfig(beta=BetaSpec(base=4)),
    # an access lifts a field just above its tier, which it may fall back into
    "small-bumps": EngineConfig(salience=SalienceParams(delta_access=0.05, k_recent=1)),
}


@pytest.mark.parametrize("config, seeds", [("default", range(20)), ("tight-footprint", range(5)),
                                           ("small-bumps", range(5))])
def test_the_scheduled_ladder_journals_the_full_scans_deltas_on_generated_workloads(checked_ladder, config, seeds):
    for seed in seeds:
        run_workload(Engine(config=_CONFIGS[config]), generate_workload(seed))
    assert checked_ladder and sum(checked_ladder) > 0


@pytest.mark.parametrize("workload, extra_ticks", [("store-large", 320), ("decay-footprint", 40)])
def test_the_scheduled_ladder_journals_the_full_scans_deltas_on_benchmark_episodes(checked_ladder, workload,
                                                                                    extra_ticks):
    from gen import SMOKE, make_episode

    episode = make_episode(workload, 3, 0, SMOKE)
    engine = Engine(config=episode.config, genesis=episode.genesis, rules=episode.rules)
    for op in episode.ops:
        engine.submit(op.event)
    # then long enough for every field to cross each threshold
    for _ in range(extra_ticks):
        engine.submit(EngineEvent.tick())
    assert sum(checked_ladder) > 0
    assert any(topic.archived for topic in engine.state.topics.values())


def test_a_ladder_read_with_other_parameters_builds_it_again():
    topic = build_topic("t", fields={"A": "x"})
    state = build_state([topic])
    default = state.ladder(P)
    assert default.due == {"t": crossing(1.0, P.theta_summary, P.decay)}
    slow = SalienceParams(decay=0.99)
    ladder = state.ladder(slow)
    assert ladder.params == slow and ladder.due == {"t": crossing(1.0, P.theta_summary, 0.99)}
    assert state.part("ladder") is ladder and state.ladder(SalienceParams(decay=0.99)) is ladder


# -- salience the ladder could not decay ---------------------------------------------


def _genesis(**field):
    topic = build_topic("t", fields={"A": "x"})
    for name, value in field.items():
        setattr(topic.fields["A"], name, value)
    return build_state([topic])


@pytest.mark.parametrize(
    "field, match",
    [
        ({"salience": -1.0}, "finite and non-negative"),
        ({"salience": math.inf}, "finite and non-negative"),
        ({"salience": math.nan}, "finite and non-negative"),
        ({"since": 5}, "set at epoch 5, after epoch 0"),
    ],
)
def test_a_genesis_salience_the_ladder_could_not_decay_is_refused(field, match):
    state = _genesis(**field)
    with pytest.raises(ValueError, match=match):
        Engine(genesis=state)
    with pytest.raises(ValueError, match=match):
        state_from_dict(state_to_dict(state))


def test_a_live_genesis_topic_frozen_at_an_epoch_is_refused():
    state = _genesis()
    state.topics["t"].archived_at = 0
    with pytest.raises(ValueError, match="live topic frozen at epoch 0: t"):
        Engine(genesis=state)


def test_a_bump_past_the_float_range_aborts_its_transition():
    engine = Engine(config=EngineConfig(salience=SalienceParams(delta_access=1e308)))
    engine.submit(EngineEvent.ingest(FactBundle((Fact("A", "1"),), "t gets A", topic_hint="t")))
    lookup = EngineEvent.retrieve(Query(mode="explicit", explicit=("t", "A")))
    _, records = engine.submit(lookup)  # 1e308
    assert records[-1].committed
    digest = engine.digest()
    _, records = engine.submit(lookup)  # 1e308 + 1e308 is infinite
    assert records[-1].outcome == "aborted" and "past the float range" in records[-1].reason
    assert engine.digest() == digest


def test_a_negative_delta_access_is_a_config_error():
    with pytest.raises(ConfigError, match="delta_access must be non-negative"):
        EngineConfig.from_dict({"salience": {"delta_access": -2.0}})
    EngineConfig.from_dict({"salience": {"delta_access": 0.0}})


@pytest.mark.parametrize("name", ["s0", "delta_access"])
def test_an_infinite_s0_or_delta_access_is_a_config_error(name):
    with pytest.raises(ConfigError, match="s0 and delta_access must be finite"):
        EngineConfig.from_dict({"salience": {name: math.inf}})
