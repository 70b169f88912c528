"""Unit tests of the closed attack-scenario table (:mod:`repro.attacks.registry`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.registry import (
    ScenarioStructure,
    SupportSignature,
    get_attack,
    scenario_id_for,
)
from repro.attacks.sm_actions import SmActionsStructure
from repro.attacks.structure import SelfishForksStructure
from repro.config import SCENARIO_NAMES, SCENARIO_VARIANTS, AttackParams, ProtocolParams
from repro.exceptions import ConfigurationError
from repro.mdp import validate_mdp

#: Engine hooks each scenario class defines in its own body, so that the
#: structure cache, sweep workers and reporting work on both scenarios.
REQUIRED_HOOKS = (
    "explore",
    "series_name",
    "grid_configs",
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


SCENARIOS = (SelfishForksStructure, SmActionsStructure)


class TestLookup:
    def test_table_holds_exactly_the_scenario_names(self):
        assert tuple(get_attack(name) for name in SCENARIO_NAMES) == SCENARIOS
        assert [scenario.SCENARIO_NAME for scenario in SCENARIOS] == list(SCENARIO_NAMES)
        assert tuple(SCENARIO_VARIANTS) == SCENARIO_NAMES

    def test_get_attack_returns_entry(self):
        """The table hands out the scenario class itself."""
        scenario = get_attack("selfish-forks")
        assert scenario is SelfishForksStructure
        assert issubclass(scenario, ScenarioStructure)
        assert scenario.SCENARIO_NAME == "selfish-forks"

    def test_unknown_name_raises_and_lists_known(self):
        with pytest.raises(ConfigurationError, match="selfish-forks"):
            get_attack("no-such-attack")

    def test_scenario_id_format(self):
        assert scenario_id_for("selfish-forks") == "selfish-forks@1"
        assert scenario_id_for("sm-actions") == "sm-actions@1"

    def test_entries_carry_descriptions(self):
        """`repro attacks` prints the first docstring line of every scenario."""
        for scenario in SCENARIOS:
            assert (scenario.__doc__ or "").strip()

    def test_scenario_id_for_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown attack scenario"):
            scenario_id_for("no-such-attack")

    @pytest.mark.parametrize("hook", REQUIRED_HOOKS)
    def test_scenarios_define_every_hook_in_their_own_body(self, hook):
        """The hooks are contract, not inheritance accident."""
        for scenario in SCENARIOS:
            assert hook in scenario.__dict__, (scenario.SCENARIO_NAME, hook)

    def test_scenarios_name_themselves_in_their_own_body(self):
        for scenario in SCENARIOS:
            assert "SCENARIO_NAME" in scenario.__dict__


class TestAttackParamsIntegration:
    def test_unknown_scenario_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            AttackParams(scenario="no-such-attack")

    def test_scenario_and_variant_flow_into_to_dict(self):
        attack = AttackParams(scenario="sm-actions", variant="overpaying")
        row = attack.to_dict()
        assert row["scenario"] == "sm-actions"
        assert row["variant"] == "overpaying"

    @pytest.mark.parametrize("variant", ["typo", "overpaying", "underpaying"])
    def test_selfish_forks_accepts_no_variant(self, variant):
        """A misspelt variant once built a second model under the same series label."""
        with pytest.raises(ConfigurationError, match="variant"):
            AttackParams(depth=1, forks=1, variant=variant)

    @pytest.mark.parametrize("variant", ["typo", "underpaying", "Overpaying"])
    def test_sm_actions_accepts_only_its_variants(self, variant):
        with pytest.raises(ConfigurationError, match="variant"):
            AttackParams(scenario="sm-actions", variant=variant)

    @pytest.mark.parametrize(
        "scenario, variant",
        [(name, variant) for name in SCENARIO_NAMES for variant in SCENARIO_VARIANTS[name]],
    )
    def test_every_listed_variant_is_accepted(self, scenario, variant):
        assert AttackParams(scenario=scenario, variant=variant).variant == variant


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
