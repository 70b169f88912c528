"""Property-based tests of the MDP substrate on randomly generated models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lp_oracle import solve_mean_payoff_lp
from repro.mdp import (
    MDPBuilder,
    Strategy,
    induced_markov_chain,
    policy_iteration,
    solve_mean_payoff_batch,
    validate_mdp,
)

# Hypothesis strategy producing small random unichain-ish MDPs.  To guarantee
# the unichain property (needed by the average-reward solvers) every action
# distribution puts positive mass on state 0, so state 0 is in every recurrent
# class and there can only be one.


@st.composite
def random_mdps(draw):
    num_states = draw(st.integers(min_value=1, max_value=5))
    builder = MDPBuilder(num_reward_components=1)
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(rng_seed)
    for state in range(num_states):
        num_actions = draw(st.integers(min_value=1, max_value=3))
        for action in range(num_actions):
            weights = rng.random(num_states) + 1e-3
            weights[0] += 1.0  # ensure positive mass on state 0
            weights /= weights.sum()
            reward = float(rng.uniform(-2.0, 2.0))
            transitions = [
                (succ, float(weights[succ]), (reward,)) for succ in range(num_states)
            ]
            builder.add_action(state, f"a{action}", transitions)
    return builder.build(initial_state=0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mdp=random_mdps())
def test_random_models_are_structurally_valid(mdp):
    report = validate_mdp(mdp, raise_on_error=False)
    assert report.is_valid


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mdp=random_mdps())
def test_linear_program_matches_policy_iteration(mdp):
    pi_result = policy_iteration(mdp, [1.0])
    lp_result = solve_mean_payoff_lp(mdp, [1.0])
    assert lp_result.gain == pytest.approx(pi_result.gain, abs=1e-5)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mdp=random_mdps())
def test_gain_is_bounded_by_reward_range(mdp):
    result = policy_iteration(mdp, [1.0])
    bound = float(np.max(np.abs(mdp.trans_reward))) + 1e-9
    assert -bound <= result.gain <= bound


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mdp=random_mdps())
def test_optimal_gain_dominates_fixed_strategies(mdp):
    optimal = policy_iteration(mdp, [1.0]).gain
    chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
    fixed_gain = float(chain.long_run_reward([1.0])[0])
    assert optimal >= fixed_gain - 1e-6


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mdp=random_mdps())
def test_stationary_distributions_are_probability_vectors(mdp):
    chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
    pi = chain.stationary_distribution()
    assert pi.shape == (mdp.num_states,)
    assert np.all(pi >= -1e-12)
    assert pi.sum() == pytest.approx(1.0)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mdp=random_mdps(), scale=st.floats(min_value=0.1, max_value=5.0))
def test_gain_scales_linearly_with_rewards(mdp, scale):
    base = policy_iteration(mdp, [1.0]).gain
    scaled = policy_iteration(mdp, [scale]).gain
    assert scaled == pytest.approx(scale * base, abs=1e-6)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mdp=random_mdps(), seed=st.integers(min_value=0, max_value=10_000))
def test_warm_start_from_any_strategy_finds_the_cold_gain(mdp, seed):
    rng = np.random.default_rng(seed)
    rows = np.array(
        [rng.integers(mdp.rows_of(s).start, mdp.rows_of(s).stop) for s in range(mdp.num_states)],
        dtype=np.int64,
    )
    cold = policy_iteration(mdp, [1.0])
    warm = policy_iteration(mdp, [1.0], initial_strategy=Strategy(mdp, rows))
    assert warm.gain == pytest.approx(cold.gain, abs=1e-9)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mdp=random_mdps(),
    scales=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=4),
)
def test_batch_gains_equal_independent_solves(mdp, scales):
    batch = solve_mean_payoff_batch(mdp, np.array(scales).reshape(-1, 1))
    for scale, solution in zip(scales, batch):
        assert solution.gain == pytest.approx(policy_iteration(mdp, [scale]).gain, abs=1e-9)
