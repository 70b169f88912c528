"""Tests of the r_beta reward family and exact strategy evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.analysis import evaluate_strategy_errev
from repro.analysis.rewards import (
    ADVERSARY_WEIGHTS,
    HONEST_WEIGHTS,
    TOTAL_WEIGHTS,
    beta_reward_weights,
)
from repro.mdp import Strategy, solve_mean_payoff
from simulator_oracle import greedy_lead_rows


class TestBetaRewards:
    def test_weight_vectors_select_components(self):
        assert ADVERSARY_WEIGHTS == (1.0, 0.0)
        assert HONEST_WEIGHTS == (0.0, 1.0)
        assert TOTAL_WEIGHTS == (1.0, 1.0)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
    def test_beta_weights_realise_the_papers_reward(self, beta):
        weights = np.asarray(beta_reward_weights(beta))
        r_adv, r_hon = 3.0, 2.0
        expected = r_adv - beta * (r_adv + r_hon)
        assert weights @ np.array([r_adv, r_hon]) == pytest.approx(expected)

    def test_beta_zero_is_pure_adversary_reward(self):
        assert beta_reward_weights(0.0) == (1.0, 0.0)

    def test_beta_one_is_negative_honest_reward(self):
        assert beta_reward_weights(1.0) == (0.0, -1.0)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            beta_reward_weights(1.5)


class TestStrategyEvaluation:
    def test_optimal_strategy_value_between_honest_and_one(self, model_d2f1, analysis_d2f1):
        value = evaluate_strategy_errev(model_d2f1.mdp, analysis_d2f1.strategy)
        assert 0.3 <= value <= 1.0

    def test_evaluation_is_deterministic(self, model_d2f1, analysis_d2f1):
        first = evaluate_strategy_errev(model_d2f1.mdp, analysis_d2f1.strategy)
        second = evaluate_strategy_errev(model_d2f1.mdp, analysis_d2f1.strategy)
        assert first == second

    def test_mean_payoff_sign_matches_errev_position(self, model_d2f1):
        # For beta strictly below the optimal ERRev the optimal mean payoff is
        # positive; strictly above it is negative (Theorem 3.1).
        below = solve_mean_payoff(model_d2f1.mdp, beta_reward_weights(0.05))
        above = solve_mean_payoff(model_d2f1.mdp, beta_reward_weights(0.95))
        assert below.gain > 0.0
        assert above.gain < 0.0

    def test_greedy_policy_is_dominated_by_optimal(self, model_d2f1, analysis_d2f1):
        # The greedy-lead heuristic as a positional strategy never beats the
        # strategy computed by Algorithm 1.
        mdp = model_d2f1.mdp
        rows = greedy_lead_rows(mdp, race_on_tie=True)
        greedy_value = evaluate_strategy_errev(mdp, Strategy(mdp, rows))
        optimal_value = evaluate_strategy_errev(mdp, analysis_d2f1.strategy)
        assert greedy_value <= optimal_value + 1e-9
