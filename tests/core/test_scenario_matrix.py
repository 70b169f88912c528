"""Cross-scenario engine matrix: every engine feature on both attack scenarios.

The sweep engine and its worker pool are scenario-generic.  This module runs
both scenarios through serial and pooled (fork and spawn) execution and
checks bit-for-bit agreement with the serial run, plus the loud failure of
a mixed-scenario grid.
"""

from __future__ import annotations


import pytest

from repro.attacks.registry import get_attack, scenario_id_for
from repro.config import AnalysisConfig, AttackParams
from repro.core.sweep import SweepConfig, run_sweep
from repro.exceptions import ConfigurationError

SCENARIOS = ("selfish-forks", "sm-actions")


def scenario_grid(scenario: str, **overrides) -> SweepConfig:
    if scenario == "selfish-forks":
        attack_configs = (
            AttackParams(depth=1, forks=1, max_fork_length=4),
            AttackParams(depth=2, forks=1, max_fork_length=4),
        )
    else:
        attack_configs = (
            AttackParams(depth=1, forks=1, max_fork_length=4, scenario="sm-actions"),
            AttackParams(
                depth=1,
                forks=1,
                max_fork_length=4,
                scenario="sm-actions",
                variant="overpaying",
            ),
        )
    base = dict(
        p_values=(0.0, 0.15, 0.3),
        gammas=(0.5,),
        attack_configs=attack_configs,
        analysis=AnalysisConfig(epsilon=1e-2),
    )
    base.update(overrides)
    return SweepConfig(**base)


def point_tuples(sweep):
    return [
        (point.p, point.gamma, point.series, point.errev, point.beta_low, point.beta_up)
        for point in sweep.points
    ]


class TestPooledMatchesSerial:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_pooled_bit_for_bit(self, scenario):
        serial = run_sweep(scenario_grid(scenario))
        pooled = run_sweep(scenario_grid(scenario, workers=2))
        assert not serial.failures and not pooled.failures
        assert point_tuples(pooled) == point_tuples(serial)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_spawn_pool_bit_for_bit(self, scenario, monkeypatch):
        serial = run_sweep(scenario_grid(scenario))
        monkeypatch.setenv("REPRO_TEST_START_METHOD", "spawn")
        spawned = run_sweep(scenario_grid(scenario, workers=2))
        assert not spawned.failures
        assert point_tuples(spawned) == point_tuples(serial)

    def test_attack_points_carry_scenario_id(self):
        sweep = run_sweep(scenario_grid("sm-actions"))
        attack_points = [p for p in sweep.points if p.series.startswith("sm-actions")]
        assert attack_points
        for point in attack_points:
            assert point.scenario == scenario_id_for("sm-actions")
            assert point.to_row()["scenario"] == point.scenario
        for point in sweep.points:
            if point.series == "honest":
                assert point.scenario is None
                assert "scenario" not in point.to_row()


class TestConfigurationGuards:
    def test_mixed_scenario_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="mixed-scenario"):
            SweepConfig(
                p_values=(0.1,),
                gammas=(0.5,),
                attack_configs=(
                    AttackParams(depth=1, forks=1),
                    AttackParams(depth=1, forks=1, scenario="sm-actions"),
                ),
            )

    def test_default_grid_of_each_scenario_comes_from_grid_configs(self):
        for scenario in SCENARIOS:
            configs = get_attack(scenario).grid_configs("default")
            config = SweepConfig(p_values=(0.1,), gammas=(0.5,), attack_configs=configs)
            assert all(a.scenario == scenario for a in config.attack_configs)
            assert len(config.attack_configs) >= 2
        assert get_attack("selfish-forks").grid_configs("default") == (
            SweepConfig().attack_configs
        )
