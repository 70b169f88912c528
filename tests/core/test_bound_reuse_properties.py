"""Property tests of the monotone p-axis bound reuse (ERRev* monotone in p).

With ``reuse_p_axis_bounds`` enabled each point's binary search starts from the
previous point's certified ``beta_low`` instead of 0.  The contract under test:
for *every* grid the certified interval of every point still brackets ERRev*
(checked against the cold-interval analysis, whose interval brackets ERRev* by
Theorem 3.1), stays epsilon-tight, and the reported value matches the
cold-interval result within epsilon.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AnalysisConfig, AttackParams, ProtocolParams, SweepConfig, run_sweep
from repro.core import attack_series_name
from repro.analysis import formal_analysis
from repro.attacks import build_selfish_forks_mdp

EPSILON = 1e-2
ATTACK = AttackParams(depth=1, forks=1, max_fork_length=4)

p_grids = st.lists(
    st.integers(min_value=0, max_value=45).map(lambda i: round(0.01 * i, 2)),
    min_size=2,
    max_size=4,
    unique=True,
).map(sorted)


@st.composite
def reuse_scenarios(draw):
    return draw(p_grids), draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))


def attack_points(sweep):
    """The attack series of a sweep, without its two baseline series."""
    return sweep.series(attack_series_name(ATTACK))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=reuse_scenarios())
def test_bound_reuse_preserves_certified_intervals(scenario):
    p_values, gamma = scenario
    config = SweepConfig(
        p_values=tuple(p_values),
        gammas=(gamma,),
        attack_configs=(ATTACK,),
        analysis=AnalysisConfig(epsilon=EPSILON),
        reuse_p_axis_bounds=True,
    )
    sweep = run_sweep(config)
    assert not sweep.failures
    points = attack_points(sweep)
    assert [point.p for point in points] == list(p_values)

    for point in points:
        cold = formal_analysis(
            build_selfish_forks_mdp(ProtocolParams(p=point.p, gamma=gamma), ATTACK).mdp,
            AnalysisConfig(epsilon=EPSILON),
        )
        # Epsilon-tight certified interval, even when started from a reused bound.
        assert point.beta_up - point.beta_low < EPSILON
        # Both intervals bracket ERRev* (Theorem 3.1), so they must overlap:
        # beta_low <= ERRev* <= beta_up checked via the cold certificate.
        assert point.beta_low <= cold.beta_up + 1e-12
        assert point.beta_up >= cold.beta_low - 1e-12
        # And the reported value agrees with the cold-interval result within epsilon.
        assert point.errev == pytest.approx(
            cold.strategy_errev if cold.strategy_errev is not None else cold.errev_lower_bound,
            abs=EPSILON,
        )
        # The certified lower bound never exceeds the value the strategy achieves.
        assert point.beta_low <= point.errev + 1e-9


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=reuse_scenarios())
def test_bound_reuse_monotone_lower_bounds(scenario):
    """Along an ascending p grid the certified lower bounds are non-decreasing."""
    p_values, gamma = scenario
    config = SweepConfig(
        p_values=tuple(p_values),
        gammas=(gamma,),
        attack_configs=(ATTACK,),
        analysis=AnalysisConfig(epsilon=EPSILON),
        reuse_p_axis_bounds=True,
    )
    sweep = run_sweep(config)
    bounds = [point.beta_low for point in attack_points(sweep)]
    assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:]))
