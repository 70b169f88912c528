"""Tests of the discrete-time selfish-mining simulator.

The most important test validates the whole pipeline end to end: the strategy
computed by the formal analysis, replayed in the simulator (whose revenue
accounting is independent of the MDP's reward bookkeeping), must reproduce the
ERRev computed from the stationary distribution up to Monte-Carlo noise.
"""

from __future__ import annotations

import pytest

from repro.config import AttackParams, ProtocolParams
from repro.attacks import build_selfish_forks_mdp, honest_errev
from repro.attacks.policies import GreedyLeadPolicy, HonestPolicy, SelfishForksPolicy
from repro.chain import SelfishMiningSimulator
from repro.exceptions import SimulationError


PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)
ATTACK = AttackParams(depth=2, forks=1, max_fork_length=4)


class TestSimulatorBasics:
    def test_honest_policy_matches_resource_fraction(self):
        simulator = SelfishMiningSimulator(PROTOCOL, ATTACK, HonestPolicy(), seed=11)
        result = simulator.run(20_000)
        assert result.relative_revenue == pytest.approx(0.0, abs=1e-9)
        # The honest policy never publishes, so all adversarial blocks stay
        # private and the chain is fully honest.
        assert result.releases_accepted == 0
        assert result.orphaned_blocks == 0

    def test_run_requires_positive_steps(self):
        simulator = SelfishMiningSimulator(PROTOCOL, ATTACK, HonestPolicy())
        with pytest.raises(SimulationError):
            simulator.run(0)

    def test_results_are_reproducible_with_same_seed(self):
        first = SelfishMiningSimulator(PROTOCOL, ATTACK, GreedyLeadPolicy(), seed=5).run(20_000)
        second = SelfishMiningSimulator(PROTOCOL, ATTACK, GreedyLeadPolicy(), seed=5).run(20_000)
        assert first.relative_revenue == second.relative_revenue
        assert first.releases_accepted == second.releases_accepted

    def test_different_seeds_differ(self):
        first = SelfishMiningSimulator(PROTOCOL, ATTACK, GreedyLeadPolicy(), seed=1).run(5_000)
        second = SelfishMiningSimulator(PROTOCOL, ATTACK, GreedyLeadPolicy(), seed=2).run(5_000)
        assert first.relative_revenue != second.relative_revenue

    def test_greedy_policy_gets_adversarial_blocks_on_chain(self):
        result = SelfishMiningSimulator(PROTOCOL, ATTACK, GreedyLeadPolicy(), seed=3).run(30_000)
        assert result.relative_revenue > 0.1
        assert result.releases_accepted > 0

    def test_policy_name_recorded(self):
        result = SelfishMiningSimulator(PROTOCOL, ATTACK, HonestPolicy(), seed=0).run(1_000)
        assert result.policy_name == "honest"

    def test_report_counts_are_consistent(self):
        result = SelfishMiningSimulator(PROTOCOL, ATTACK, GreedyLeadPolicy(), seed=9).run(10_000)
        assert result.steps == 10_000
        report = result.report
        assert report.total_blocks == report.adversarial_blocks + report.honest_blocks
        assert 0.0 <= report.relative_revenue <= 1.0

    @pytest.mark.parametrize(
        "attack",
        [
            AttackParams(depth=1, forks=1, max_fork_length=4),
            ATTACK,
            AttackParams(depth=2, forks=2, max_fork_length=4),
        ],
        ids=lambda attack: f"d{attack.depth}_f{attack.forks}",
    )
    def test_greedy_run_covers_every_step(self, attack):
        result = SelfishMiningSimulator(PROTOCOL, attack, GreedyLeadPolicy(), seed=0).run(5_000)
        assert result.steps == 5_000
        assert 0 < result.report.total_blocks <= result.steps


class TestSimulationMatchesAnalysis:
    @pytest.mark.parametrize(
        "protocol, attack",
        [
            (ProtocolParams(p=0.3, gamma=0.5), AttackParams(depth=2, forks=1, max_fork_length=4)),
            (ProtocolParams(p=0.3, gamma=1.0), AttackParams(depth=1, forks=1, max_fork_length=4)),
            (ProtocolParams(p=0.2, gamma=0.0), AttackParams(depth=2, forks=2, max_fork_length=3)),
        ],
    )
    def test_optimal_strategy_simulated_errev_matches_mdp(self, protocol, attack):
        from repro.analysis import formal_analysis
        from repro.config import AnalysisConfig

        model = build_selfish_forks_mdp(protocol, attack)
        analysis = formal_analysis(model.mdp, AnalysisConfig(epsilon=1e-3))
        policy = SelfishForksPolicy(analysis.strategy)
        simulator = SelfishMiningSimulator(protocol, attack, policy, seed=17)
        result = simulator.run(60_000)
        assert policy.unknown_states == 0
        assert result.relative_revenue == pytest.approx(analysis.strategy_errev, abs=0.03)

    def test_optimal_strategy_beats_honest_in_simulation(self):
        from repro.analysis import formal_analysis
        from repro.config import AnalysisConfig

        model = build_selfish_forks_mdp(PROTOCOL, ATTACK)
        analysis = formal_analysis(model.mdp, AnalysisConfig(epsilon=1e-3))
        policy = SelfishForksPolicy(analysis.strategy)
        result = SelfishMiningSimulator(PROTOCOL, ATTACK, policy, seed=23).run(50_000)
        assert result.relative_revenue > honest_errev(PROTOCOL)
