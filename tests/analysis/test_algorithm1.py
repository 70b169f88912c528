"""Tests of Algorithm 1, the Dinkelbach cross-check and the theorem certificates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AnalysisConfig
from repro.analysis import (
    check_theorem_premises,
    dinkelbach_analysis,
    evaluate_strategy_errev,
    formal_analysis,
)


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

    def test_value_iteration_interval_overlaps(self, mdp_d2f2):
        vi = formal_analysis(
            mdp_d2f2, AnalysisConfig(solver="value_iteration", evaluate_strategy=False)
        )
        low, up = self.CERTIFIED
        assert vi.beta_low <= up and low <= vi.beta_up


class TestInitialBiasValidation:
    """Mis-shaped warm-start bias vectors must fall back to a cold start."""

    def test_wrong_length_bias_ignored(self, model_d2f1):
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_bias=[1.0, 2.0, 3.0]
        )
        assert result.interval_width < 1e-2

    def test_ragged_bias_ignored(self, model_d2f1):
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_bias=[[1.0, 2.0], [3.0]]
        )
        assert result.interval_width < 1e-2

    def test_non_numeric_bias_ignored(self, model_d2f1):
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_bias=object()
        )
        assert result.interval_width < 1e-2

    def test_non_finite_bias_ignored(self, model_d2f1):
        bad = np.full(model_d2f1.mdp.num_states, np.nan)
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_bias=bad
        )
        assert result.interval_width < 1e-2
        assert np.isfinite(result.errev_lower_bound)

    def test_two_dimensional_bias_ignored(self, model_d2f1):
        bad = np.zeros((model_d2f1.mdp.num_states, 2))
        result = formal_analysis(
            model_d2f1.mdp,
            AnalysisConfig(epsilon=1e-2, solver="value_iteration"),
            initial_bias=bad,
        )
        assert result.interval_width < 1e-2

    def test_valid_bias_still_honoured(self, model_d2f1):
        config = AnalysisConfig(epsilon=1e-3, solver="value_iteration")
        seed = formal_analysis(model_d2f1.mdp, config)
        warm = formal_analysis(model_d2f1.mdp, config, initial_bias=seed.final_bias)
        assert warm.errev_lower_bound == pytest.approx(seed.errev_lower_bound, abs=1e-3)


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

    def test_invalid_interval_rejected(self, model_d2f1):
        with pytest.raises(ValueError):
            formal_analysis(model_d2f1.mdp, AnalysisConfig(), beta_low=0.9, beta_up=0.1)

    def test_evaluation_can_be_disabled(self, model_d1f1):
        result = formal_analysis(
            model_d1f1.mdp, AnalysisConfig(epsilon=1e-2, evaluate_strategy=False)
        )
        assert result.strategy_errev is None

    @pytest.mark.parametrize("solver", ["policy_iteration", "value_iteration"])
    def test_solver_backends_agree(self, model_d1f1, solver):
        result = formal_analysis(
            model_d1f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver)
        )
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


class TestCertificates:
    def test_premises_hold_on_small_model(self, model_d1f1):
        report = check_theorem_premises(
            model_d1f1.mdp, config=AnalysisConfig(epsilon=1e-3), strategy_samples=5
        )
        assert report.all_hold
        assert report.unichain
        assert report.monotone
        assert report.min_total_block_rate > 0.0

    def test_gain_grid_is_monotone_decreasing(self, model_d2f1):
        report = check_theorem_premises(
            model_d2f1.mdp,
            config=AnalysisConfig(epsilon=1e-3),
            betas=(0.0, 0.5, 1.0),
            strategy_samples=3,
        )
        assert report.probed_gains[0] >= report.probed_gains[1] >= report.probed_gains[2]

    def test_gain_at_beta_zero_positive_and_at_one_negative(self, model_d2f1):
        report = check_theorem_premises(
            model_d2f1.mdp,
            config=AnalysisConfig(epsilon=1e-3),
            betas=(0.0, 1.0),
            strategy_samples=2,
        )
        assert report.probed_gains[0] > 0.0
        assert report.probed_gains[-1] < 0.0
