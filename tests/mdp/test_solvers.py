"""Tests of the mean-payoff solvers on MDPs with known optimal values."""

from __future__ import annotations

import importlib
import itertools

import numpy as np
import pytest

from lp_oracle import solve_mean_payoff_lp
from repro.analysis import beta_reward_weights
from repro.exceptions import ConvergenceError, SolverError
from repro.mdp import (
    MDPBuilder,
    PolicyIterationResult,
    Strategy,
    policy_iteration,
    solve_mean_payoff,
    solve_mean_payoff_batch,
)

#: The policy-iteration module; ``repro.mdp.policy_iteration`` is the function.
PI_MODULE = importlib.import_module("repro.mdp.policy_iteration")


def single_state_mdp(reward: float = 3.0):
    builder = MDPBuilder()
    builder.add_action("s", "loop", [("s", 1.0, (reward,))])
    return builder.build(initial_state="s")


def choice_mdp():
    """One decision state with a good loop (reward 2) and a bad loop (reward 1)."""
    builder = MDPBuilder()
    builder.add_action("s", "good", [("s", 1.0, (2.0,))])
    builder.add_action("s", "bad", [("s", 1.0, (1.0,))])
    return builder.build(initial_state="s")


def cycle_mdp():
    """A two-state cycle where one action choice doubles the reward on the way back.

    Optimal mean payoff: alternate 0 and 4 -> 2.0.
    """
    builder = MDPBuilder()
    builder.add_action("a", "go", [("b", 1.0, (0.0,))])
    builder.add_action("b", "cheap", [("a", 1.0, (2.0,))])
    builder.add_action("b", "rich", [("a", 1.0, (4.0,))])
    return builder.build(initial_state="a")


def stochastic_mdp():
    """A stochastic MDP whose optimal gain is computable by hand.

    In state "a": action "safe" loops with reward 1; action "risky" moves to "b"
    (reward 0) from which the chain returns with reward 3.  Risky alternates
    rewards 0 and 3 -> mean 1.5 > 1, so "risky" is optimal.
    """
    builder = MDPBuilder()
    builder.add_action("a", "safe", [("a", 1.0, (1.0,))])
    builder.add_action("a", "risky", [("b", 1.0, (0.0,))])
    builder.add_action("b", "return", [("a", 1.0, (3.0,))])
    return builder.build(initial_state="a")


ALL_TEST_MDPS = [
    (single_state_mdp(), 3.0),
    (choice_mdp(), 2.0),
    (cycle_mdp(), 2.0),
    (stochastic_mdp(), 1.5),
]


class TestPolicyIteration:
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_known_gains(self, mdp, expected):
        result = policy_iteration(mdp, [1.0])
        assert result.gain == pytest.approx(expected, abs=1e-9)

    def test_optimal_strategy_extracted(self):
        result = policy_iteration(cycle_mdp(), [1.0])
        assert result.strategy.action_of_label("b") == "rich"

    def test_warm_start_converges_faster_or_equal(self):
        mdp = stochastic_mdp()
        cold = policy_iteration(mdp, [1.0])
        warm = policy_iteration(mdp, [1.0], initial_strategy=cold.strategy)
        assert warm.iterations <= cold.iterations
        assert warm.gain == pytest.approx(cold.gain)

    def test_negative_weights_flip_the_choice(self):
        # Under weight -1 the "bad" loop pays -1 and the "good" one -2.
        result = policy_iteration(choice_mdp(), [-1.0])
        assert result.gain == pytest.approx(-1.0, abs=1e-9)
        assert result.strategy.action_of_label("s") == "bad"

    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_every_initial_strategy_reaches_the_optimal_gain(self, mdp, expected):
        """A warm start changes where the iteration starts, never what it finds."""
        for rows in itertools.product(*(mdp.rows_of(s) for s in range(mdp.num_states))):
            start = Strategy(mdp, np.array(rows, dtype=np.int64))
            result = policy_iteration(mdp, [1.0], initial_strategy=start)
            assert result.gain == pytest.approx(expected, abs=1e-9)

    def test_solver_constants(self):
        assert PI_MODULE.IMPROVEMENT_THRESHOLD == 1e-9
        assert PI_MODULE.MAX_ROUNDS == 100_000

    def test_iteration_budget_exhaustion_raises(self, monkeypatch):
        # A budget of 0 never evaluates, which must raise rather than return junk.
        monkeypatch.setattr(PI_MODULE, "MAX_ROUNDS", 0)
        with pytest.raises(ConvergenceError):
            policy_iteration(cycle_mdp(), [1.0])

    def test_improvement_threshold_is_read_at_call_time(self, monkeypatch):
        """No row beats the bad loop by more than a threshold of 2, so the start is kept."""
        mdp = choice_mdp()
        start = Strategy.from_action_map(mdp, {"s": "bad"})
        monkeypatch.setattr(PI_MODULE, "IMPROVEMENT_THRESHOLD", 2.0)
        result = policy_iteration(mdp, [1.0], initial_strategy=start)
        assert (result.iterations, result.gain) == (1, pytest.approx(1.0))
        monkeypatch.setattr(PI_MODULE, "IMPROVEMENT_THRESHOLD", 0.5)
        result = policy_iteration(mdp, [1.0], initial_strategy=start)
        assert (result.iterations, result.gain) == (2, pytest.approx(2.0))


class TestLinearProgram:
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_known_gains(self, mdp, expected):
        result = solve_mean_payoff_lp(mdp, [1.0])
        assert result.gain == pytest.approx(expected, abs=1e-7)

    def test_strategy_extraction(self):
        result = solve_mean_payoff_lp(choice_mdp(), [1.0])
        assert result.strategy.action(0) == "good"


class TestSolveMeanPayoffFrontend:
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_returns_the_policy_iteration_result(self, mdp, expected):
        solution = solve_mean_payoff(mdp, [1.0])
        reference = policy_iteration(mdp, [1.0])
        assert isinstance(solution, PolicyIterationResult)
        assert solution.gain == reference.gain == pytest.approx(expected, abs=1e-9)
        assert solution.strategy == reference.strategy
        assert solution.bias.tobytes() == reference.bias.tobytes()
        assert solution.iterations == reference.iterations

    def test_iteration_budget_is_the_modules(self, model_d2f1, monkeypatch):
        mdp = model_d2f1.mdp
        weights = beta_reward_weights(0.3)
        rounds = solve_mean_payoff(mdp, weights).iterations
        assert rounds > 1
        monkeypatch.setattr(PI_MODULE, "MAX_ROUNDS", rounds)
        assert solve_mean_payoff(mdp, weights).iterations == rounds
        monkeypatch.setattr(PI_MODULE, "MAX_ROUNDS", rounds - 1)
        with pytest.raises(ConvergenceError):
            solve_mean_payoff(mdp, weights)

    def test_warm_start_accepted(self):
        mdp = cycle_mdp()
        first = solve_mean_payoff(mdp, [1.0])
        second = solve_mean_payoff(mdp, [1.0], warm_start=first.strategy)
        assert second.gain == pytest.approx(first.gain)


class TestBatchedSolvers:
    """Batched multi-reward solves must reproduce the sequential per-reward results."""

    WEIGHTS = [[1.0], [0.5], [-0.25], [2.0]]

    @pytest.mark.parametrize("factory", [choice_mdp, cycle_mdp, stochastic_mdp])
    def test_batch_matches_sequential(self, factory):
        mdp = factory()
        batch = solve_mean_payoff_batch(mdp, self.WEIGHTS)
        assert len(batch) == len(self.WEIGHTS)
        for weights, solution in zip(self.WEIGHTS, batch):
            reference = solve_mean_payoff(mdp, weights)
            assert solution.gain == pytest.approx(reference.gain, abs=1e-7)

    @pytest.mark.parametrize("factory", [choice_mdp, cycle_mdp, stochastic_mdp])
    def test_batch_gains_match_linear_program(self, factory):
        mdp = factory()
        for weights, solution in zip(self.WEIGHTS, solve_mean_payoff_batch(mdp, self.WEIGHTS)):
            assert solution.gain == pytest.approx(solve_mean_payoff_lp(mdp, weights).gain, abs=1e-7)

    def test_batch_is_a_warm_chained_loop(self):
        mdp = stochastic_mdp()
        batch = solve_mean_payoff_batch(mdp, self.WEIGHTS)
        warm = None
        for weights, solution in zip(self.WEIGHTS, batch):
            expected = solve_mean_payoff(mdp, weights, warm_start=warm)
            assert solution.gain == expected.gain
            assert solution.iterations == expected.iterations
            warm = expected.strategy

    def test_empty_batch(self):
        assert solve_mean_payoff_batch(choice_mdp(), np.empty((0, 1))) == []

    def test_bad_weight_matrix_shape_raises(self):
        with pytest.raises(SolverError):
            solve_mean_payoff_batch(choice_mdp(), [[1.0, 2.0]])

    def test_batched_warm_start_accepted(self):
        mdp = cycle_mdp()
        first = solve_mean_payoff(mdp, [1.0])
        batch = solve_mean_payoff_batch(mdp, self.WEIGHTS, warm_start=first.strategy)
        assert batch[0].gain == pytest.approx(first.gain)
