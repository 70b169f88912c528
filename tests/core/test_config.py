"""Tests of the parameter containers."""

from __future__ import annotations

import dataclasses

import pytest

from repro import AnalysisConfig, AttackParams, ProtocolParams, SweepConfig
from repro.attacks import SingleTreeParams
from repro.config import PAPER_ATTACK_CONFIGS, PAPER_GAMMAS
from repro.exceptions import ConfigurationError


class TestProtocolParams:
    def test_defaults(self):
        params = ProtocolParams()
        assert params.p == 0.3
        assert params.gamma == 0.5

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ConfigurationError):
            ProtocolParams(p=p)

    @pytest.mark.parametrize("gamma", [-0.5, 1.5])
    def test_invalid_gamma_rejected(self, gamma):
        with pytest.raises(ConfigurationError):
            ProtocolParams(gamma=gamma)

    def test_boundary_values_allowed(self):
        assert ProtocolParams(p=0.0, gamma=0.0).p == 0.0
        assert ProtocolParams(p=1.0, gamma=1.0).gamma == 1.0

    def test_to_dict(self):
        assert ProtocolParams(p=0.1, gamma=0.2).to_dict() == {"p": 0.1, "gamma": 0.2}

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ProtocolParams().p = 0.5  # type: ignore[misc]


class TestAttackParams:
    def test_defaults_and_aliases(self):
        params = AttackParams()
        assert (params.d, params.f, params.l) == (params.depth, params.forks, params.max_fork_length)

    @pytest.mark.parametrize("field", ["depth", "forks", "max_fork_length"])
    @pytest.mark.parametrize("value", [0, -1, 1.5, "two"])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            AttackParams(**{field: value})

    def test_to_dict(self):
        params = AttackParams(depth=2, forks=2, max_fork_length=3)
        assert params.to_dict() == {
            "depth": 2,
            "forks": 2,
            "max_fork_length": 3,
            "scenario": "selfish-forks",
            "variant": "",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            AttackParams(scenario="no-such-scenario")

    def test_variant_must_be_string(self):
        with pytest.raises(ConfigurationError, match="variant"):
            AttackParams(variant=3)

    def test_paper_configurations(self):
        assert len(PAPER_ATTACK_CONFIGS) == 5
        assert all(config.max_fork_length == 4 for config in PAPER_ATTACK_CONFIGS)
        assert [(c.depth, c.forks) for c in PAPER_ATTACK_CONFIGS] == [
            (1, 1),
            (2, 1),
            (2, 2),
            (3, 2),
            (4, 2),
        ]

    def test_paper_gammas(self):
        assert PAPER_GAMMAS == (0.0, 0.25, 0.5, 0.75, 1.0)


class TestAnalysisConfig:
    def test_defaults(self):
        config = AnalysisConfig()
        assert config.evaluate_strategy

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(epsilon=0.0)

    def test_to_dict_roundtrip_keys(self):
        config = AnalysisConfig(epsilon=1e-2)
        data = config.to_dict()
        assert data["epsilon"] == 1e-2
        assert set(data) == {"epsilon", "evaluate_strategy"}

    def test_negative_epsilon_message_names_parameter(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            AnalysisConfig(epsilon=-1e-3)

    @pytest.mark.parametrize(
        "config, option",
        [
            *(
                pytest.param(AnalysisConfig, {key: value}, id=f"{key}={value}")
                for key, value in [
                    ("solver", "policy_iteration"),
                    ("solver", "value_iteration"),
                    ("solver", "portfolio"),
                    ("solver", "linear_program"),
                    ("warm_start", False),
                    ("solver_tolerance", 1e-7),
                    ("max_solver_iterations", 1),
                ]
            ),
            pytest.param(SweepConfig, {"include_honest": False}, id="sweep-include_honest"),
            pytest.param(
                SweepConfig, {"include_single_tree": False}, id="sweep-include_single_tree"
            ),
            pytest.param(
                SweepConfig,
                {"single_tree": SingleTreeParams(max_depth=4, max_width=1)},
                id="sweep-single_tree",
            ),
        ],
    )
    def test_removed_options_rejected(self, config, option):
        """Removed options are refused.

        Policy iteration is the only solver, every search is warm-started, and
        its threshold and budget are constants of ``repro.mdp.policy_iteration``.
        Every sweep evaluates both baselines, the single tree at
        ``DEFAULT_SINGLE_TREE``.
        """
        with pytest.raises(TypeError, match=next(iter(option))):
            config(**option)


class TestSweepConfigValidation:
    def test_defaults_valid(self):
        from repro import SweepConfig

        assert SweepConfig().workers == 1

    @pytest.mark.parametrize("workers", [0, -2])
    def test_invalid_workers_rejected_with_message(self, workers):
        from repro import SweepConfig

        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            SweepConfig(workers=workers)

    def test_non_integer_workers_rejected(self):
        from repro import SweepConfig

        with pytest.raises(ConfigurationError, match="workers"):
            SweepConfig(workers=2.5)

    def test_negative_epsilon_surfaces_from_analysis_config(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            AnalysisConfig(epsilon=-0.5)

    def test_empty_grids_rejected(self):
        from repro import SweepConfig

        with pytest.raises(ConfigurationError, match="p_values"):
            SweepConfig(p_values=())
        with pytest.raises(ConfigurationError, match="gammas"):
            SweepConfig(gammas=())

    @pytest.mark.parametrize(
        "grid",
        [
            {"p_values": (0.1, 1.5)},
            {"p_values": (-0.1,)},
            {"p_values": (float("nan"),)},
            {"gammas": (0.5, 1.2)},
            {"gammas": (-0.5,)},
        ],
    )
    def test_grid_values_outside_unit_interval_rejected(self, grid):
        from repro import SweepConfig

        with pytest.raises(ConfigurationError, match=f"{next(iter(grid))} must be in \\[0, 1\\]"):
            SweepConfig(**grid)

    @pytest.mark.parametrize(
        "grid",
        [
            {"p_values": (0.1, 0.1)},
            {"p_values": (0.0, 0.05, 0.0)},
            {"gammas": (0.5, 0.5)},
        ],
    )
    def test_repeated_grid_values_rejected(self, grid):
        """A repeated value would compute (and report) the same points twice."""
        from repro import SweepConfig

        with pytest.raises(ConfigurationError, match=f"{next(iter(grid))} must not repeat"):
            SweepConfig(**grid)

    def test_non_config_analysis_rejected(self):
        from repro import SweepConfig

        with pytest.raises(ConfigurationError, match="AnalysisConfig"):
            SweepConfig(analysis={"epsilon": 1e-3})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p_values", (1.5,)),
            ("gammas", (0.5,)),
            ("workers", 2),
            ("warm_start_across_points", True),
        ],
    )
    def test_frozen(self, field, value):
        """A validated grid stays valid: no field can be set afterwards."""
        config = SweepConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, value)

    def test_sequences_are_stored_as_tuples(self):
        attack = AttackParams(depth=1, forks=1)
        config = SweepConfig(p_values=[0.1, 0.2], gammas=[0.5], attack_configs=[attack])
        assert config.p_values == (0.1, 0.2)
        assert config.gammas == (0.5,)
        assert config.attack_configs == (attack,)
        assert config == SweepConfig(p_values=(0.1, 0.2), gammas=(0.5,), attack_configs=(attack,))
