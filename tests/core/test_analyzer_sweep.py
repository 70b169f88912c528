"""Tests of the high-level analyzer, the sweep driver and result containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AnalysisConfig,
    AttackParams,
    ProtocolParams,
    SelfishMiningAnalyzer,
    SweepConfig,
    run_sweep,
)
from repro.attacks import build_selfish_forks_mdp
from repro.core.sweep import attack_series_name
from repro.mdp import MDP


@pytest.fixture(scope="module")
def analyzer_result():
    analyzer = SelfishMiningAnalyzer(
        ProtocolParams(p=0.3, gamma=0.5),
        AttackParams(depth=2, forks=1, max_fork_length=4),
        AnalysisConfig(epsilon=1e-3),
    )
    return analyzer, analyzer.run()


class TestAnalyzer:
    def test_result_fields(self, analyzer_result):
        _, result = analyzer_result
        assert result.num_states > 0
        assert result.num_transitions > 0
        assert result.build_seconds >= 0.0
        assert result.analysis_seconds >= 0.0
        assert result.total_seconds >= result.analysis_seconds

    def test_attack_beats_honest(self, analyzer_result):
        _, result = analyzer_result
        assert result.strategy_errev > result.honest_errev
        assert result.advantage_over_honest > 0.0

    def test_chain_quality_complement(self, analyzer_result):
        _, result = analyzer_result
        assert result.chain_quality == pytest.approx(1.0 - result.strategy_errev)

    def test_to_row_is_flat(self, analyzer_result):
        _, result = analyzer_result
        row = result.to_row()
        assert row["p"] == 0.3
        assert row["d"] == 2 and row["f"] == 1
        assert all(not isinstance(value, (dict, list)) for value in row.values())

    def test_model_is_cached(self, analyzer_result):
        analyzer, _ = analyzer_result
        assert analyzer.build_model() is analyzer.build_model()

    def test_build_model_returns_the_refilled_mdp(self, analyzer_result):
        """The analyzer refills the cached skeleton, exactly as the public builder does."""
        analyzer, result = analyzer_result
        mdp = analyzer.build_model()
        assert isinstance(mdp, MDP)
        assert mdp.num_states == result.num_states
        reference = build_selfish_forks_mdp(analyzer.protocol, analyzer.attack).mdp
        assert np.array_equal(mdp.trans_prob, reference.trans_prob)
        assert np.array_equal(mdp.trans_succ, reference.trans_succ)

    def test_default_construction(self):
        analyzer = SelfishMiningAnalyzer()
        assert analyzer.protocol.p == 0.3
        assert analyzer.attack.depth == 2


class TestSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        config = SweepConfig(
            p_values=(0.0, 0.15, 0.3),
            gammas=(0.5,),
            attack_configs=(AttackParams(depth=1, forks=1, max_fork_length=4),),
            analysis=AnalysisConfig(epsilon=1e-2),
        )
        messages = []
        sweep = run_sweep(config, progress=messages.append)
        return sweep, messages

    def test_all_series_present(self, small_sweep):
        sweep, _ = small_sweep
        names = sweep.series_names()
        assert "honest" in names
        assert any(name.startswith("single-tree") for name in names)
        assert "ours(d=1,f=1)" in names

    def test_point_counts(self, small_sweep):
        sweep, _ = small_sweep
        # 3 p-values x 1 gamma x 3 series.
        assert len(sweep.points) == 9

    def test_honest_series_is_the_diagonal(self, small_sweep):
        sweep, _ = small_sweep
        for point in sweep.series("honest"):
            assert point.errev == pytest.approx(point.p)

    def test_attack_series_dominates_honest(self, small_sweep):
        sweep, _ = small_sweep
        honest = {point.p: point.errev for point in sweep.series("honest")}
        for point in sweep.series("ours(d=1,f=1)"):
            assert point.errev >= honest[point.p] - 1e-2

    def test_progress_messages_emitted(self, small_sweep):
        _, messages = small_sweep
        assert len(messages) == 3
        assert all("ERRev" in message for message in messages)

    def test_gammas_and_series_helpers(self, small_sweep):
        sweep, _ = small_sweep
        assert sweep.gammas() == [0.5]
        assert sweep.series("honest", gamma=0.5)
        assert sweep.series("honest", gamma=0.9) == []

    def test_attack_series_name_format(self):
        assert attack_series_name(AttackParams(depth=3, forks=2)) == "ours(d=3,f=2)"
