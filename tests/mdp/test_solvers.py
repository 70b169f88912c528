"""Tests of the mean-payoff solvers on MDPs with known optimal values."""

from __future__ import annotations

import pytest

from repro.exceptions import ConvergenceError, SolverError
from repro.mdp import (
    SOLVER_BACKENDS,
    MDPBuilder,
    policy_iteration,
    relative_value_iteration,
    solve_mean_payoff,
    solve_mean_payoff_batch,
    solve_mean_payoff_lp,
)


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


class TestRelativeValueIteration:
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_known_gains(self, mdp, expected):
        result = relative_value_iteration(mdp, [1.0], tolerance=1e-10)
        assert result.gain == pytest.approx(expected, abs=1e-6)
        assert result.lower_bound <= expected + 1e-9
        assert result.upper_bound >= expected - 1e-9

    def test_certified_bounds_bracket_gain(self):
        result = relative_value_iteration(stochastic_mdp(), [1.0], tolerance=1e-8)
        assert result.lower_bound <= result.gain <= result.upper_bound
        assert result.bound_width < 1e-7

    def test_optimal_strategy_extracted(self):
        result = relative_value_iteration(choice_mdp(), [1.0])
        assert result.strategy.action(0) == "good"

    def test_divergence_raises(self):
        with pytest.raises(ConvergenceError):
            relative_value_iteration(
                stochastic_mdp(), [1.0], tolerance=1e-12, max_iterations=1
            )

    def test_divergence_can_be_silenced(self):
        result = relative_value_iteration(
            stochastic_mdp(), [1.0], tolerance=1e-12, max_iterations=1, raise_on_divergence=False
        )
        assert not result.converged

    def test_invalid_damping_rejected(self):
        with pytest.raises(ValueError):
            relative_value_iteration(choice_mdp(), [1.0], damping=0.0)

    def test_negative_rewards(self):
        builder = MDPBuilder()
        builder.add_action("s", "loss", [("s", 1.0, (-1.5,))])
        mdp = builder.build(initial_state="s")
        result = relative_value_iteration(mdp, [1.0])
        assert result.gain == pytest.approx(-1.5, abs=1e-6)


class TestPolicyIteration:
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_known_gains(self, mdp, expected):
        result = policy_iteration(mdp, [1.0])
        assert result.gain == pytest.approx(expected, abs=1e-9)
        assert result.converged

    def test_optimal_strategy_extracted(self):
        result = policy_iteration(cycle_mdp(), [1.0])
        assert result.strategy.action_of_label("b") == "rich"

    def test_warm_start_converges_faster_or_equal(self):
        mdp = stochastic_mdp()
        cold = policy_iteration(mdp, [1.0])
        warm = policy_iteration(mdp, [1.0], initial_strategy=cold.strategy)
        assert warm.iterations <= cold.iterations
        assert warm.gain == pytest.approx(cold.gain)

    def test_iteration_budget_exhaustion_raises(self):
        # max_iterations=0 never evaluates, which must raise rather than return junk.
        with pytest.raises(ConvergenceError):
            policy_iteration(cycle_mdp(), [1.0], max_iterations=0)


class TestLinearProgram:
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_known_gains(self, mdp, expected):
        result = solve_mean_payoff_lp(mdp, [1.0])
        assert result.gain == pytest.approx(expected, abs=1e-7)

    def test_strategy_extraction(self):
        result = solve_mean_payoff_lp(choice_mdp(), [1.0])
        assert result.strategy.action(0) == "good"


class TestSolveMeanPayoffFrontend:
    @pytest.mark.parametrize("solver", ["policy_iteration", "value_iteration"])
    def test_backends_agree(self, solver):
        solution = solve_mean_payoff(stochastic_mdp(), [1.0], solver=solver)
        assert solution.gain == pytest.approx(1.5, abs=1e-6)
        assert solution.solver == solver

    def test_unknown_backend_raises(self):
        with pytest.raises(SolverError):
            solve_mean_payoff(choice_mdp(), [1.0], solver="magic")

    def test_only_pi_and_vi_are_backends(self):
        # The LP stays a test-only reference (solve_mean_payoff_lp), not a backend.
        assert SOLVER_BACKENDS == ("policy_iteration", "value_iteration")
        with pytest.raises(SolverError):
            solve_mean_payoff(stochastic_mdp(), [1.0], solver="linear_program")

    def test_bounds_contain_gain(self):
        solution = solve_mean_payoff(cycle_mdp(), [1.0], solver="value_iteration")
        assert solution.lower_bound <= solution.gain <= solution.upper_bound

    def test_warm_start_accepted(self):
        mdp = cycle_mdp()
        first = solve_mean_payoff(mdp, [1.0])
        second = solve_mean_payoff(mdp, [1.0], warm_start=first.strategy)
        assert second.gain == pytest.approx(first.gain)


class TestBatchedSolvers:
    """Batched multi-reward solves must reproduce the sequential per-reward results."""

    WEIGHTS = [[1.0], [0.5], [-0.25], [2.0]]

    @pytest.mark.parametrize("solver", ["policy_iteration", "value_iteration"])
    @pytest.mark.parametrize("factory", [choice_mdp, cycle_mdp, stochastic_mdp])
    def test_batch_matches_sequential(self, solver, factory):
        mdp = factory()
        batch = solve_mean_payoff_batch(mdp, self.WEIGHTS, solver=solver)
        assert len(batch) == len(self.WEIGHTS)
        for weights, solution in zip(self.WEIGHTS, batch):
            reference = solve_mean_payoff(mdp, weights, solver=solver)
            assert solution.gain == pytest.approx(reference.gain, abs=1e-7)
            assert solution.solver == solver

    def test_batched_value_iteration_bounds_certified(self):
        batch = solve_mean_payoff_batch(cycle_mdp(), self.WEIGHTS, solver="value_iteration")
        for solution in batch:
            assert solution.lower_bound <= solution.gain <= solution.upper_bound
            assert solution.upper_bound - solution.lower_bound < 1e-8

    @pytest.mark.parametrize("solver", ["policy_iteration", "value_iteration"])
    def test_batch_is_a_warm_chained_loop(self, solver):
        mdp = stochastic_mdp()
        batch = solve_mean_payoff_batch(mdp, self.WEIGHTS, solver=solver)
        warm, warm_bias = None, None
        for weights, solution in zip(self.WEIGHTS, batch):
            expected = solve_mean_payoff(
                mdp, weights, solver=solver, warm_start=warm, warm_start_bias=warm_bias
            )
            assert solution.gain == expected.gain
            assert solution.iterations == expected.iterations
            warm, warm_bias = expected.strategy, expected.bias

    def test_empty_batch(self):
        import numpy as np

        assert solve_mean_payoff_batch(choice_mdp(), np.empty((0, 1))) == []

    def test_bad_weight_matrix_shape_raises(self):
        with pytest.raises(SolverError):
            solve_mean_payoff_batch(choice_mdp(), [[1.0, 2.0]])

    def test_unknown_backend_raises(self):
        with pytest.raises(SolverError):
            solve_mean_payoff_batch(choice_mdp(), [[1.0]], solver="magic")

    def test_batched_warm_start_accepted(self):
        mdp = cycle_mdp()
        first = solve_mean_payoff(mdp, [1.0])
        batch = solve_mean_payoff_batch(
            mdp, self.WEIGHTS, warm_start=first.strategy, warm_start_bias=first.bias
        )
        assert batch[0].gain == pytest.approx(first.gain)
