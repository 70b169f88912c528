"""Tests of the baseline attacks: honest mining, Eyal-Sirer, single-tree."""

from __future__ import annotations

import pytest

from repro.config import AttackParams, ProtocolParams
from repro.analysis import evaluate_strategy_errev
from repro.attacks import (
    build_selfish_forks_mdp,
    eyal_sirer_profitability_threshold,
    eyal_sirer_relative_revenue,
    honest_errev,
    simulate_single_tree_errev,
    single_tree_errev,
)
from repro.attacks.eyal_sirer import is_selfish_mining_profitable
from repro.attacks.honest import honest_strategy, immediate_release_strategy
from repro.attacks.single_tree import SingleTreeParams
from repro.exceptions import ConfigurationError


class TestHonestBaseline:
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 0.3, 0.5])
    def test_closed_form_equals_p(self, p):
        assert honest_errev(ProtocolParams(p=p, gamma=0.5)) == p

    def test_never_release_strategy_earns_nothing(self, model_d2f1):
        value = evaluate_strategy_errev(model_d2f1.mdp, honest_strategy(model_d2f1.mdp))
        assert value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4])
    def test_immediate_release_reproduces_honest_mining_for_d1f1(self, p):
        model = build_selfish_forks_mdp(
            ProtocolParams(p=p, gamma=0.5), AttackParams(depth=1, forks=1, max_fork_length=4)
        )
        value = evaluate_strategy_errev(model.mdp, immediate_release_strategy(model.mdp))
        assert value == pytest.approx(p, abs=1e-9)

    def test_immediate_release_is_gamma_independent_for_d1f1(self):
        attack = AttackParams(depth=1, forks=1, max_fork_length=4)
        values = []
        for gamma in (0.0, 1.0):
            model = build_selfish_forks_mdp(ProtocolParams(p=0.3, gamma=gamma), attack)
            values.append(
                evaluate_strategy_errev(model.mdp, immediate_release_strategy(model.mdp))
            )
        assert values[0] == pytest.approx(values[1], abs=1e-9)


class TestEyalSirer:
    def test_zero_and_full_power_boundaries(self):
        assert eyal_sirer_relative_revenue(0.0, 0.5) == 0.0
        assert eyal_sirer_relative_revenue(1.0, 0.5) == 1.0

    def test_known_value_at_one_third_gamma_zero(self):
        # At alpha = 1/3 and gamma = 0 the classic attack exactly breaks even.
        assert eyal_sirer_relative_revenue(1 / 3, 0.0) == pytest.approx(1 / 3, abs=1e-9)

    def test_unprofitable_below_threshold(self):
        assert eyal_sirer_relative_revenue(0.2, 0.0) < 0.2

    def test_profitable_above_threshold(self):
        assert eyal_sirer_relative_revenue(0.4, 0.0) > 0.4

    def test_gamma_one_always_profitable(self):
        for alpha in (0.05, 0.15, 0.3):
            assert eyal_sirer_relative_revenue(alpha, 1.0) > alpha

    def test_monotone_in_alpha(self):
        values = [eyal_sirer_relative_revenue(alpha, 0.5) for alpha in (0.1, 0.2, 0.3, 0.4)]
        assert values == sorted(values)

    def test_monotone_in_gamma(self):
        values = [eyal_sirer_relative_revenue(0.3, gamma) for gamma in (0.0, 0.5, 1.0)]
        assert values == sorted(values)

    def test_threshold_formula(self):
        assert eyal_sirer_profitability_threshold(0.0) == pytest.approx(1 / 3)
        assert eyal_sirer_profitability_threshold(1.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.75])
    def test_profitability_flips_at_the_threshold(self, gamma):
        threshold = eyal_sirer_profitability_threshold(gamma)
        assert not is_selfish_mining_profitable(threshold - 0.01, gamma)
        assert is_selfish_mining_profitable(threshold + 0.01, gamma)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            eyal_sirer_relative_revenue(1.5, 0.5)
        with pytest.raises(ConfigurationError):
            eyal_sirer_relative_revenue(0.5, -0.1)


class TestSingleTree:
    def test_boundaries(self):
        assert single_tree_errev(ProtocolParams(p=0.0, gamma=0.5)) == 0.0
        assert single_tree_errev(ProtocolParams(p=1.0, gamma=0.5)) == 1.0

    def test_monotone_in_p(self):
        values = [
            single_tree_errev(ProtocolParams(p=p, gamma=0.5)) for p in (0.1, 0.2, 0.3, 0.4)
        ]
        assert values == sorted(values)

    def test_monotone_in_gamma(self):
        values = [
            single_tree_errev(ProtocolParams(p=0.3, gamma=gamma)) for gamma in (0.0, 0.5, 1.0)
        ]
        assert values == sorted(values)

    def test_wider_tree_helps(self):
        narrow = single_tree_errev(
            ProtocolParams(p=0.3, gamma=0.5), SingleTreeParams(max_depth=4, max_width=1)
        )
        wide = single_tree_errev(
            ProtocolParams(p=0.3, gamma=0.5), SingleTreeParams(max_depth=4, max_width=5)
        )
        assert wide >= narrow

    def test_width_one_tree_close_to_classic_selfish_mining(self):
        # A width-1 tree is a single private chain; with the Eyal-Sirer
        # publication rule the result should be in the same ballpark as the
        # classic closed form (not identical: the fork length is capped at l).
        protocol = ProtocolParams(p=0.3, gamma=0.5)
        value = single_tree_errev(protocol, SingleTreeParams(max_depth=6, max_width=1))
        classic = eyal_sirer_relative_revenue(0.3, 0.5)
        assert value == pytest.approx(classic, abs=0.05)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_monte_carlo_matches_exact_recursion(self, gamma):
        protocol = ProtocolParams(p=0.3, gamma=gamma)
        exact = single_tree_errev(protocol)
        estimate = simulate_single_tree_errev(protocol, num_rounds=8000, seed=7)
        assert estimate == pytest.approx(exact, abs=0.02)

    def test_monte_carlo_boundaries(self):
        assert simulate_single_tree_errev(ProtocolParams(p=0.0, gamma=0.5)) == 0.0
        assert simulate_single_tree_errev(ProtocolParams(p=1.0, gamma=0.5)) == 1.0

    def test_value_is_a_probability(self):
        for p in (0.05, 0.2, 0.45):
            value = single_tree_errev(ProtocolParams(p=p, gamma=0.75))
            assert 0.0 <= value <= 1.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            SingleTreeParams(max_depth=0, max_width=5)
        with pytest.raises(ConfigurationError):
            SingleTreeParams(max_depth=4, max_width=0)
