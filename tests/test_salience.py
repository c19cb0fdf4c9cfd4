import pytest
from hypothesis import given, strategies as st

from gemstore.salience import SalienceParams, Tier, bump, decay, tier_of

P = SalienceParams()


def test_decay_closed_form():
    assert decay(1.0, 0, 0.9) == 1.0
    assert decay(1.0, 3, 0.9) == pytest.approx(0.9**3)
    assert decay(2.5, 10, 0.5) == pytest.approx(2.5 * 0.5**10)


def test_bump_is_additive():
    assert bump(1.0, 1.0) == 2.0
    assert bump(0.0, 0.25) == 0.25


def test_decay_rejects_negative_inputs():
    with pytest.raises(ValueError):
        decay(-0.1, 1, 0.9)
    with pytest.raises(ValueError):
        decay(1.0, -1, 0.9)
    with pytest.raises(ValueError):
        bump(-1.0, 1.0)


def test_tier_boundaries_are_strict():
    # sitting exactly on a threshold keeps the stronger tier
    assert tier_of(P.theta_summary, P) is Tier.ACTIVE
    assert tier_of(P.theta_summary - 1e-12, P) is Tier.COMPRESSED
    assert tier_of(P.theta_remove, P) is Tier.COMPRESSED
    assert tier_of(P.theta_remove - 1e-12, P) is Tier.HIDDEN
    assert tier_of(P.theta_archive, P) is Tier.HIDDEN


def test_param_validation():
    with pytest.raises(ValueError):
        SalienceParams(decay=1.0).validate()
    with pytest.raises(ValueError):
        SalienceParams(theta_summary=0.1, theta_remove=0.2).validate()
    with pytest.raises(ValueError):
        SalienceParams(s0=0.4).validate()
    with pytest.raises(ValueError):
        SalienceParams(k_recent=-1).validate()
    with pytest.raises(ValueError):
        SalienceParams(delta_access=-2.0).validate()
    SalienceParams().validate()


@given(
    s=st.floats(min_value=0.0, max_value=100.0),
    ticks=st.integers(min_value=0, max_value=50),
)
def test_decay_is_monotone_and_bounded(s, ticks):
    out = decay(s, ticks, 0.9)
    assert 0.0 <= out <= s


@given(
    rises=st.integers(min_value=0, max_value=5),
    ticks=st.integers(min_value=0, max_value=30),
)
def test_rise_then_decay_closed_form(rises, ticks):
    s = P.s0
    for _ in range(rises):
        s = bump(s, P.delta_access)
    s = decay(s, ticks, P.decay)
    expected = (P.s0 + rises * P.delta_access) * P.decay**ticks
    assert abs(s - expected) <= 1e-9
