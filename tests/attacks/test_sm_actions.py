"""Tests of the ADOPT/OVERRIDE/WAIT/MATCH scenario (:mod:`repro.attacks.sm_actions`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import evaluate_strategy_errev, formal_analysis
from repro.attacks import clear_structure_cache, structure_cache_stats
from repro.attacks.registry import SupportSignature, get_attack
from repro.attacks.sm_actions import (
    IRRELEVANT,
    build_sm_actions_mdp,
    honest_strategy_rows,
)
from repro.config import AnalysisConfig, AttackParams, ProtocolParams
from repro.exceptions import ConfigurationError, ModelError
from repro.mdp import Strategy
from sm_actions_replay import SmActionsPolicy, simulate_sm_actions


def sm_attack(l=6, variant=""):
    return AttackParams(
        depth=1, forks=1, max_fork_length=l, scenario="sm-actions", variant=variant
    )


PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)
ANALYSIS = AnalysisConfig(epsilon=1e-3)


class TestModelConstruction:
    def test_builds_and_probabilities_normalised(self):
        model = build_sm_actions_mdp(PROTOCOL, sm_attack())
        mdp = model.mdp
        assert mdp.num_states > 0
        sums = np.add.reduceat(mdp.trans_prob, mdp.row_trans_offsets[:-1])
        assert np.allclose(sums, 1.0)

    def test_initial_state_is_origin(self):
        model = build_sm_actions_mdp(PROTOCOL, sm_attack())
        assert model.mdp.state_of_label((0, 0, IRRELEVANT)) == model.mdp.initial_state

    def test_boundary_states_force_settlement(self):
        # Underpaying truncation: at a == l or h == l only adopt/override are
        # offered, so the truncated MDP stays unichain (no absorbing corner).
        attack = sm_attack(l=4)
        model = build_sm_actions_mdp(PROTOCOL, attack)
        mdp = model.mdp
        l = attack.max_fork_length
        for state_index, label in enumerate(mdp.state_labels):
            a, h, _fork = label
            if a == l or h == l:
                start = mdp.state_row_offsets[state_index]
                stop = mdp.state_row_offsets[state_index + 1]
                actions = {mdp.row_actions[row][0] for row in range(start, stop)}
                assert actions <= {"adopt", "override"}, label

    def test_overpaying_uses_settlement_rows(self):
        structure = get_attack("sm-actions").explore(
            sm_attack(l=4, variant="overpaying"), SupportSignature.of(PROTOCOL)
        )
        assert structure.settle_trans.size > 0
        rewards = structure._rewards_for(PROTOCOL)
        # Settlement rewards are patched in (attacker + honest components).
        assert not np.array_equal(
            rewards[structure.settle_trans], structure.trans_reward[structure.settle_trans]
        )

    def test_overpaying_rejects_majority_adversary(self):
        with pytest.raises(ModelError, match="p"):
            build_sm_actions_mdp(
                ProtocolParams(p=0.5, gamma=0.5), sm_attack(l=4, variant="overpaying")
            )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError, match="variant"):
            build_sm_actions_mdp(PROTOCOL, sm_attack(variant="nope"))


class TestValues:
    def test_honest_strategy_earns_exactly_p(self):
        model = build_sm_actions_mdp(PROTOCOL, sm_attack())
        honest = Strategy(model.mdp, honest_strategy_rows(model.mdp))
        assert evaluate_strategy_errev(model.mdp, honest) == pytest.approx(0.3, abs=1e-9)

    def test_optimal_beats_honest_and_regimes_sandwich(self):
        under = formal_analysis(build_sm_actions_mdp(PROTOCOL, sm_attack()).mdp, ANALYSIS)
        over = formal_analysis(
            build_sm_actions_mdp(PROTOCOL, sm_attack(variant="overpaying")).mdp, ANALYSIS
        )
        assert under.errev_lower_bound > 0.3  # strictly profitable at p=0.3, gamma=0.5
        # Underpaying under-estimates, overpaying over-estimates the
        # untruncated optimum, so the certified bounds must sandwich.
        assert over.errev_lower_bound >= under.errev_lower_bound - ANALYSIS.epsilon

    def test_truncation_tightens_with_l(self):
        coarse = formal_analysis(build_sm_actions_mdp(PROTOCOL, sm_attack(l=4)).mdp, ANALYSIS)
        fine = formal_analysis(build_sm_actions_mdp(PROTOCOL, sm_attack(l=8)).mdp, ANALYSIS)
        assert fine.errev_lower_bound >= coarse.errev_lower_bound - ANALYSIS.epsilon


class TestSimulationAgreement:
    def test_monte_carlo_replay_matches_analysis(self):
        attack = sm_attack(l=8)
        model = build_sm_actions_mdp(PROTOCOL, attack)
        formal = formal_analysis(model.mdp, ANALYSIS)
        policy = SmActionsPolicy(formal.strategy)
        result = simulate_sm_actions(PROTOCOL, attack, policy, num_steps=200_000, seed=3)
        assert result.relative_revenue == pytest.approx(formal.strategy_errev, abs=0.02)
        assert policy.unknown_states == 0

    def test_honest_replay_matches_p(self):
        attack = sm_attack(l=6)
        model = build_sm_actions_mdp(PROTOCOL, attack)
        policy = SmActionsPolicy(Strategy(model.mdp, honest_strategy_rows(model.mdp)))
        result = simulate_sm_actions(PROTOCOL, attack, policy, num_steps=200_000, seed=1)
        assert result.relative_revenue == pytest.approx(0.3, abs=0.02)


class TestStructureCache:
    def test_structure_cache_hit_across_points(self):
        clear_structure_cache()
        attack = sm_attack(l=5)
        build_sm_actions_mdp(ProtocolParams(p=0.2, gamma=0.5), attack)
        before = structure_cache_stats()
        build_sm_actions_mdp(ProtocolParams(p=0.25, gamma=0.5), attack)
        after = structure_cache_stats()
        # Same (attack, signature) key: the second point refills the cached
        # skeleton instead of exploring again.
        assert after["builds"] == before["builds"]
        assert after["entries"] == before["entries"]


class TestGridAndNames:
    def test_series_name_includes_l_and_variant(self):
        entry = get_attack("sm-actions")
        assert entry.series_name(sm_attack(l=8)) == "sm-actions(l=8)"
        assert "overpaying" in entry.series_name(sm_attack(l=8, variant="overpaying"))

    def test_grid_specs(self):
        entry = get_attack("sm-actions")
        default = entry.grid_configs("default")
        assert [a.max_fork_length for a in default] == [4, 8]
        assert all(a.scenario == "sm-actions" for a in default)
        custom = entry.grid_configs("l4,l8:overpaying")
        assert custom[1].variant == "overpaying"
        with pytest.raises(ConfigurationError):
            entry.grid_configs("d2f1")  # selfish-forks token, not an sm-actions one
