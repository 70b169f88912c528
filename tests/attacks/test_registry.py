"""Unit tests of the attack-scenario registry (:mod:`repro.attacks.registry`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.registry import (
    ScenarioStructure,
    SupportSignature,
    get_attack,
    list_attacks,
    register_attack,
    scenario_id_for,
    unregister_attack,
)
from repro.attacks.sm_actions import SmActionsStructure
from repro.attacks.structure import SelfishForksStructure
from repro.config import AttackParams, ProtocolParams, known_scenario_names
from repro.exceptions import ConfigurationError
from repro.mdp import validate_mdp

#: Engine hooks every registered scenario class defines in its own body, so
#: that the structure cache, sweep workers and reporting work on any scenario.
REQUIRED_HOOKS = (
    "explore",
    "series_name",
    "grid_configs",
    "build_model",
    "make_policy",
    "simulate",
    "honest_strategy",
)

#: A small and a larger configuration of each built-in scenario.
REFILL_GRID = [
    AttackParams(depth=1, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=1, max_fork_length=4),
    AttackParams(depth=1, forks=1, max_fork_length=8, scenario="sm-actions"),
    AttackParams(
        depth=1, forks=1, max_fork_length=12, scenario="sm-actions", variant="overpaying"
    ),
]


def _refill_id(attack: AttackParams) -> str:
    suffix = f"_{attack.variant}" if attack.variant else ""
    return f"{attack.scenario}_d{attack.depth}_f{attack.forks}_l{attack.max_fork_length}{suffix}"


class TestLookup:
    def test_builtins_are_registered(self):
        assert list_attacks() == (SelfishForksStructure, SmActionsStructure)
        names = [scenario.SCENARIO_NAME for scenario in list_attacks()]
        assert names == ["selfish-forks", "sm-actions"]

    def test_get_attack_returns_entry(self):
        """The registry hands out the registered structure class itself."""
        scenario = get_attack("selfish-forks")
        assert scenario is SelfishForksStructure
        assert issubclass(scenario, ScenarioStructure)
        assert scenario.SCENARIO_NAME == "selfish-forks"

    def test_unknown_name_raises_and_lists_known(self):
        with pytest.raises(ConfigurationError, match="selfish-forks"):
            get_attack("no-such-attack")

    def test_scenario_id_format(self):
        for scenario in list_attacks():
            name = scenario.SCENARIO_NAME
            assert scenario_id_for(name) == f"{name}@{scenario.SCENARIO_VERSION}"

    def test_entries_carry_descriptions(self):
        """`repro attacks` prints the first docstring line of every scenario."""
        for scenario in list_attacks():
            assert (scenario.__doc__ or "").strip()

    def test_scenario_id_for_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown attack scenario"):
            scenario_id_for("no-such-attack")


class TestRegistration:
    def test_duplicate_name_different_class_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_attack("selfish-forks")
            class Imposter(ScenarioStructure):
                """An imposter scenario."""

    def test_reregistering_same_class_is_idempotent(self):
        cls = get_attack("sm-actions")
        assert register_attack("sm-actions")(cls) is cls
        assert list_attacks().count(cls) == 1

    def test_runtime_registration_roundtrip(self):
        @register_attack("test-dummy-scenario")
        class Dummy(ScenarioStructure):
            """A dummy scenario for registry tests."""

            SCENARIO_VERSION = 7

        try:
            assert get_attack("test-dummy-scenario") is Dummy
            assert scenario_id_for("test-dummy-scenario") == "test-dummy-scenario@7"
            assert "test-dummy-scenario" in known_scenario_names()
            # AttackParams accepts the runtime-registered name.
            AttackParams(scenario="test-dummy-scenario")
        finally:
            unregister_attack("test-dummy-scenario")
        assert "test-dummy-scenario" not in known_scenario_names()
        with pytest.raises(ConfigurationError):
            get_attack("test-dummy-scenario")

    def test_builtins_cannot_be_unregistered(self):
        with pytest.raises(ConfigurationError, match="built-in"):
            unregister_attack("selfish-forks")


class TestAttackParamsIntegration:
    def test_unknown_scenario_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            AttackParams(scenario="no-such-attack")

    def test_scenario_and_variant_flow_into_to_dict(self):
        attack = AttackParams(scenario="sm-actions", variant="overpaying")
        row = attack.to_dict()
        assert row["scenario"] == "sm-actions"
        assert row["variant"] == "overpaying"


class TestConcurrency:
    def test_concurrent_builtin_loading_is_safe(self):
        """Racing threads through the lazy built-in import must not error.

        Regression for the unguarded ``_BUILTINS_LOADED`` rebinding (the
        fork-safety invariant of ``tests/test_source_invariants.py``): the
        flag is now double-checked under a dedicated lock.
        """
        import threading

        from repro.attacks import registry as registry_mod

        registry_mod._BUILTINS_LOADED = False
        barrier = threading.Barrier(8)
        errors = []

        def hit():
            barrier.wait()
            try:
                get_attack("selfish-forks")
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert registry_mod._BUILTINS_LOADED

    @pytest.mark.parametrize("hook", REQUIRED_HOOKS)
    def test_builtin_scenarios_define_every_hook_in_their_own_body(self, hook):
        """The hooks are contract, not inheritance accident."""
        for scenario in list_attacks():
            assert hook in scenario.__dict__, (scenario.SCENARIO_NAME, hook)


class TestStructureRefill:
    """Every scenario rides the same explore-once / refill-per-point machinery."""

    PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)

    @pytest.mark.parametrize("attack", REFILL_GRID, ids=_refill_id)
    def test_explore_then_refill_per_point(self, attack):
        scenario = get_attack(attack.scenario)
        structure = scenario.explore(attack, SupportSignature.of(self.PROTOCOL))
        mdp = structure.instantiate(self.PROTOCOL)
        assert mdp.num_states == structure.num_states > 0
        validate_mdp(mdp)
        # Another p of the same support reuses the skeleton with new numbers.
        other = structure.instantiate(ProtocolParams(p=0.2, gamma=0.5))
        validate_mdp(other)
        assert np.array_equal(other.trans_succ, mdp.trans_succ)
        assert not np.array_equal(other.trans_prob, mdp.trans_prob)

    def test_grid_spans_both_scenarios_with_distinct_series(self):
        assert {scenario_id_for(a.scenario).split("@")[0] for a in REFILL_GRID} == {
            "selfish-forks",
            "sm-actions",
        }
        names = {get_attack(a.scenario).series_name(a) for a in REFILL_GRID}
        assert len(names) == len(REFILL_GRID)
