"""Tests of Algorithm 1, the Dinkelbach cross-check and the theorem certificates."""

from __future__ import annotations

import importlib

import pytest

from lp_oracle import solve_mean_payoff_lp
from repro.config import AnalysisConfig
from repro.exceptions import ConvergenceError
from repro.analysis import certificates
from repro.analysis import (
    TOTAL_WEIGHTS,
    check_theorem_premises,
    dinkelbach_analysis,
    evaluate_strategy_errev,
    formal_analysis,
)
from repro.analysis.rewards import beta_reward_weights
from repro.mdp import MDPBuilder, Strategy, induced_markov_chain, solve_mean_payoff

#: The policy-iteration module; ``repro.mdp.policy_iteration`` is the function.
PI_MODULE = importlib.import_module("repro.mdp.policy_iteration")


class TestTable1Pin:
    """Table 1's ``d=2,f=2,l=4`` point at ``gamma=0.5, p=0.3``, pinned bit-for-bit."""

    CERTIFIED = [0.4384765625, 0.439453125]
    STRATEGY_ERREV = 0.43926890947519537

    @pytest.fixture(scope="class")
    def mdp_d2f2(self):
        from repro import AttackParams, ProtocolParams
        from repro.attacks import get_model_structure

        protocol = ProtocolParams(p=0.3, gamma=0.5)
        attack = AttackParams(depth=2, forks=2, max_fork_length=4)
        return get_model_structure(attack, protocol).instantiate(protocol)

    @pytest.fixture(scope="class")
    def default_result(self, mdp_d2f2):
        return formal_analysis(mdp_d2f2, AnalysisConfig())

    def test_default_interval_is_exact(self, default_result):
        assert [default_result.beta_low, default_result.beta_up] == self.CERTIFIED

    def test_strategy_errev_is_exact(self, default_result):
        # Pins the bits of the induced-chain and stationary-distribution path.
        assert default_result.strategy_errev == self.STRATEGY_ERREV

    def test_strategy_errev_inside_interval(self, default_result):
        assert default_result.beta_low <= default_result.strategy_errev <= default_result.beta_up


class TestAlgorithm1:
    def test_interval_width_below_epsilon(self, analysis_d2f1):
        assert analysis_d2f1.interval_width < analysis_d2f1.epsilon

    def test_lower_bound_is_achieved_by_strategy(self, model_d2f1, analysis_d2f1):
        achieved = evaluate_strategy_errev(model_d2f1.mdp, analysis_d2f1.strategy)
        # Theorem 3.1: the strategy optimal for r_{beta_low} achieves at least beta_low.
        assert achieved >= analysis_d2f1.errev_lower_bound - 1e-9

    def test_strategy_errev_recorded(self, analysis_d2f1):
        assert analysis_d2f1.strategy_errev is not None
        assert analysis_d2f1.strategy_errev >= analysis_d2f1.errev_lower_bound - 1e-9

    def test_number_of_iterations_matches_precision(self, model_d2f1):
        # Binary search over [0, 1] terminates once the width drops *below*
        # epsilon = 2^-5, which takes exactly 6 halvings.
        result = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=2**-5))
        assert result.num_iterations == 6

    def test_iteration_log_is_consistent(self, analysis_d2f1):
        for record in analysis_d2f1.iterations:
            assert 0.0 <= record.beta_low <= record.beta <= record.beta_up <= 1.0 or (
                record.beta_low <= record.beta_up
            )
            assert record.solve_seconds >= 0.0
        # The interval shrinks monotonically.
        widths = [record.beta_up - record.beta_low for record in analysis_d2f1.iterations]
        assert widths == sorted(widths, reverse=True)

    def test_tighter_epsilon_never_loosens_the_bound(self, model_d2f1):
        coarse = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=0.05))
        fine = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=0.005))
        assert fine.errev_lower_bound >= coarse.errev_lower_bound - 1e-9
        assert fine.beta_up <= coarse.beta_up + 1e-9

    def test_custom_initial_interval(self, model_d2f1, analysis_d2f1):
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-3), beta_low=0.3, beta_up=0.6
        )
        assert result.errev_lower_bound == pytest.approx(
            analysis_d2f1.errev_lower_bound, abs=2e-3
        )

    def test_solver_budget_reaches_policy_iteration(self, model_d2f1, monkeypatch):
        # The first solve starts from the first-action strategy and needs
        # several improvement rounds, so a budget of one must be exhausted.
        monkeypatch.setattr(PI_MODULE, "MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceError):
            formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-2))

    def test_invalid_interval_rejected(self, model_d2f1):
        with pytest.raises(ValueError):
            formal_analysis(model_d2f1.mdp, AnalysisConfig(), beta_low=0.9, beta_up=0.1)

    def test_evaluation_can_be_disabled(self, model_d1f1):
        result = formal_analysis(
            model_d1f1.mdp, AnalysisConfig(epsilon=1e-2, evaluate_strategy=False)
        )
        assert result.strategy_errev is None

    def test_d1f1_strategy_earns_the_honest_share(self, model_d1f1):
        result = formal_analysis(model_d1f1.mdp, AnalysisConfig(epsilon=1e-3))
        assert result.strategy_errev == pytest.approx(0.3, abs=2e-3)

    def test_exceeds_honest_mining_for_d2(self, analysis_d2f1):
        assert analysis_d2f1.strategy_errev > 0.3 + 0.05


class TestDinkelbach:
    def test_agrees_with_algorithm1(self, model_d2f1, analysis_d2f1):
        result = dinkelbach_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-4))
        assert result.errev == pytest.approx(analysis_d2f1.strategy_errev, abs=1e-3)

    def test_converges_in_few_iterations(self, model_d2f1):
        result = dinkelbach_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-6))
        assert result.num_iterations <= 10

    def test_iterates_are_monotone_non_decreasing(self, model_d2f1):
        result = dinkelbach_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-6))
        betas = [record.next_beta for record in result.iterations]
        assert all(later >= earlier - 1e-9 for earlier, later in zip(betas, betas[1:]))

    def test_warm_start_from_honest_value(self, model_d2f1, analysis_d2f1):
        result = dinkelbach_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-5), initial_beta=0.3
        )
        assert result.errev == pytest.approx(analysis_d2f1.strategy_errev, abs=1e-3)


class TestSolverAblation:
    """Every analysis variant reports the same optimum on the ``d=2,f=1`` model."""

    @pytest.fixture(scope="class")
    def dinkelbach_errev(self, model_d2f1):
        return dinkelbach_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-3)).errev

    @pytest.fixture(scope="class")
    def lp_gain(self, model_d2f1):
        return solve_mean_payoff_lp(model_d2f1.mdp, beta_reward_weights(0.35)).gain

    def test_algorithm1_agrees_with_dinkelbach(self, model_d2f1, dinkelbach_errev):
        result = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-3))
        assert result.strategy_errev == pytest.approx(dinkelbach_errev, abs=5e-3)
        assert result.beta_low <= dinkelbach_errev <= result.beta_up

    def test_single_solve_gain_matches_linear_program(self, model_d2f1, lp_gain):
        """One mean-payoff solve, the inner loop of the bisection."""
        solution = solve_mean_payoff(model_d2f1.mdp, beta_reward_weights(0.35))
        assert solution.gain == pytest.approx(lp_gain, abs=1e-6)


def negative_total_reward_mdp():
    """A unichain two-state cycle whose way back pays ``r_A = 1, r_H = -1.5``.

    Its block rate is ``(1 - 0.5) / 2 = 0.25 > 0``, so only premise 3 fails.
    """
    builder = MDPBuilder(num_reward_components=2)
    builder.add_action("a", "go", [("b", 1.0, (0.0, 1.0))])
    builder.add_action("b", "back", [("a", 1.0, (1.0, -1.5))])
    return builder.build(initial_state="a")


class TestCertificates:
    def test_premises_hold_on_small_model(self, model_d1f1):
        report = check_theorem_premises(model_d1f1.mdp)
        assert report.all_hold
        assert report.unichain
        assert report.monotone
        assert report.min_total_block_rate > 0.0

    def test_optimal_gain_decreases_on_a_beta_grid(self, model_d2f1):
        """What premise 3's sign check proves, sampled: ``g*`` falls from > 0 to < 0."""
        gains = [
            solve_mean_payoff(model_d2f1.mdp, beta_reward_weights(beta)).gain
            for beta in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert gains == sorted(gains, reverse=True)
        assert gains[0] > 0.0 > gains[-1]
        assert check_theorem_premises(model_d2f1.mdp).monotone

    def test_the_check_makes_one_solve(self, model_d2f1, monkeypatch):
        solves = []

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return solve_mean_payoff(*args, **kwargs)

        monkeypatch.setattr(certificates, "solve_mean_payoff", counting_solve)
        assert check_theorem_premises(model_d2f1.mdp).all_hold
        assert len(solves) == 1

    def test_a_negative_total_reward_is_named(self):
        report = check_theorem_premises(negative_total_reward_mdp())
        assert report.unichain and report.min_total_block_rate == pytest.approx(0.25)
        assert not report.monotone and not report.all_hold
        (problem,) = report.problems
        assert problem.startswith("r_A + r_H is negative on 1 transitions")

    def test_min_block_rate_is_below_the_first_action_rate(self, model_d2f2):
        """The minimum over strategies, not the rate of one representative strategy."""
        mdp = model_d2f2.mdp
        report = check_theorem_premises(mdp)
        first_action = induced_markov_chain(mdp, Strategy.first_action(mdp))
        first_action_rate = float(first_action.long_run_reward() @ TOTAL_WEIGHTS)
        assert first_action_rate == pytest.approx(0.226831, abs=1e-6)
        assert report.min_total_block_rate == pytest.approx(0.2227322, abs=1e-7)
        assert report.all_hold
