"""Unit tests of the attack-scenario registry (:mod:`repro.attacks.registry`)."""

from __future__ import annotations

import pytest

from repro.attacks.registry import (
    AttackScenario,
    ScenarioStructure,
    get_attack,
    list_attacks,
    register_attack,
    resolve_scenario,
    scenario_id_for,
    unregister_attack,
)
from repro.config import AttackParams, known_scenario_names
from repro.exceptions import ConfigurationError, ModelError
from repro.lint.rules.scenario_contract import REQUIRED_HOOKS


class TestLookup:
    def test_builtins_are_registered(self):
        names = [entry.name for entry in list_attacks()]
        assert names == ["selfish-forks", "sm-actions"]

    def test_get_attack_returns_entry(self):
        entry = get_attack("selfish-forks")
        assert isinstance(entry, AttackScenario)
        assert entry.name == "selfish-forks"
        assert issubclass(entry.structure_cls, ScenarioStructure)

    def test_unknown_name_raises_and_lists_known(self):
        with pytest.raises(ConfigurationError, match="selfish-forks"):
            get_attack("no-such-attack")

    def test_scenario_id_format(self):
        for entry in list_attacks():
            assert entry.scenario_id == f"{entry.name}@{entry.version}"
            assert scenario_id_for(entry.name) == entry.scenario_id

    def test_entries_carry_descriptions(self):
        for entry in list_attacks():
            assert entry.description.strip()

    def test_proof_systems_resolve_to_classes(self):
        systems = get_attack("selfish-forks").proof_systems()
        assert "pow" in systems
        assert all(isinstance(cls, type) for cls in systems.values())


class TestRegistration:
    def test_duplicate_name_different_class_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_attack("selfish-forks")
            class Imposter(ScenarioStructure):
                """An imposter scenario."""

    def test_reregistering_same_class_is_idempotent(self):
        cls = get_attack("sm-actions").structure_cls
        assert register_attack("sm-actions")(cls) is cls
        assert [entry.name for entry in list_attacks()].count("sm-actions") == 1

    def test_runtime_registration_roundtrip(self):
        @register_attack("test-dummy-scenario")
        class Dummy(ScenarioStructure):
            """A dummy scenario for registry tests."""

            SCENARIO_VERSION = 7

        try:
            entry = get_attack("test-dummy-scenario")
            assert entry.scenario_id == "test-dummy-scenario@7"
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


class TestResolveScenario:
    def test_resolves_builtin_ids(self):
        for entry in list_attacks():
            assert resolve_scenario(entry.scenario_id) is entry

    @pytest.mark.parametrize("bad", ["selfish-forks", "@1", "selfish-forks@"])
    def test_malformed_id_raises(self, bad):
        with pytest.raises(ModelError, match="malformed"):
            resolve_scenario(bad)

    def test_unknown_name_raises(self):
        with pytest.raises(ModelError, match="cannot resolve"):
            resolve_scenario("no-such-attack@1")

    def test_version_mismatch_raises(self):
        with pytest.raises(ModelError, match="version mismatch"):
            resolve_scenario("selfish-forks@999")


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

        Regression for the unguarded ``_BUILTINS_LOADED`` rebinding (RL002):
        the flag is now double-checked under a dedicated lock.
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
        """The hooks are contract, not inheritance accident (RL005)."""
        for entry in list_attacks():
            assert hook in entry.structure_cls.__dict__, (entry.name, hook)
