"""Tests of the reachable-state MDP construction."""

from __future__ import annotations

import math

import pytest

from repro.config import AttackParams, ProtocolParams
from repro.exceptions import ConfigurationError
from repro.mdp import validate_mdp
from repro.attacks import (
    SupportSignature,
    build_model_structure,
    build_selfish_forks_mdp,
    clear_structure_cache,
    structure,
)
from repro.attacks.fork_state import TYPE_MINING
from repro.attacks.honest import honest_strategy
from repro.attacks.structure import state_code_radices

#: Configurations of growing size, in the order their state counts grow.
EXPLORATION_GRID = [
    AttackParams(depth=1, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=1, max_fork_length=2),
    AttackParams(depth=2, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=2, max_fork_length=4),
]


def code_space_size(attack: AttackParams) -> int:
    """``(l + 1)^(d*f)`` fork configurations, ``2^(d-1)`` owner vectors, three state types."""
    return math.prod(state_code_radices(attack))


def _grid_id(attack: AttackParams) -> str:
    return f"d{attack.depth}_f{attack.forks}_l{attack.max_fork_length}"


class TestModelConstruction:
    def test_initial_state_is_registered(self, model_d2f1):
        labels = model_d2f1.mdp.state_labels
        initial = labels[model_d2f1.mdp.initial_state]
        c_matrix, owners, state_type = initial
        assert state_type == TYPE_MINING
        assert all(length == 0 for row in c_matrix for length in row)

    def test_models_are_structurally_valid(self, model_d1f1, model_d2f1, model_d2f2):
        for model in (model_d1f1, model_d2f1, model_d2f2):
            assert validate_mdp(model.mdp).is_valid

    def test_reward_components(self, model_d2f1):
        assert model_d2f1.mdp.num_reward_components == 2

    def test_state_space_grows_with_depth_and_forks(self, model_d1f1, model_d2f1, model_d2f2):
        assert model_d1f1.num_states < model_d2f1.num_states < model_d2f2.num_states

    def test_state_space_within_theoretical_bound(self, model_d1f1, model_d2f1, model_d2f2):
        for model in (model_d1f1, model_d2f1, model_d2f2):
            assert model.num_states <= code_space_size(model.attack)

    def test_state_space_grows_with_max_fork_length(self, protocol_default):
        small = build_selfish_forks_mdp(
            protocol_default, AttackParams(depth=2, forks=1, max_fork_length=2)
        )
        large = build_selfish_forks_mdp(
            protocol_default, AttackParams(depth=2, forks=1, max_fork_length=4)
        )
        assert small.num_states < large.num_states

    def test_describe_mentions_parameters(self, model_d2f1):
        text = model_d2f1.describe()
        assert "d=2" in text and "f=1" in text and "states" in text

    @pytest.mark.parametrize("use_structure_cache", [True, False])
    def test_max_states_cap_enforced(self, protocol_default, monkeypatch, use_structure_cache):
        clear_structure_cache()
        monkeypatch.setattr(structure, "DEFAULT_MAX_STATES", 10)
        with pytest.raises(ConfigurationError, match="exceeded 10 states"):
            build_selfish_forks_mdp(
                protocol_default,
                AttackParams(depth=2, forks=2, max_fork_length=4),
                use_structure_cache=use_structure_cache,
            )

    def test_gamma_does_not_change_state_space(self, attack_d2f1):
        low = build_selfish_forks_mdp(ProtocolParams(p=0.3, gamma=0.0), attack_d2f1)
        high = build_selfish_forks_mdp(ProtocolParams(p=0.3, gamma=1.0), attack_d2f1)
        # gamma only changes transition probabilities, not reachability...
        # except gamma in {0, 1} prunes zero-probability race branches, so the
        # gamma = 0 model can only be smaller or equal.
        assert low.num_states <= high.num_states

    def test_p_changes_probabilities_not_structure(self, attack_d2f1):
        small_p = build_selfish_forks_mdp(ProtocolParams(p=0.1, gamma=0.5), attack_d2f1)
        large_p = build_selfish_forks_mdp(ProtocolParams(p=0.4, gamma=0.5), attack_d2f1)
        assert small_p.num_states == large_p.num_states
        assert small_p.mdp.num_rows == large_p.mdp.num_rows

    def test_honest_strategy_always_mines(self, model_d2f1):
        strategy = honest_strategy(model_d2f1.mdp)
        for state in range(model_d2f1.mdp.num_states):
            assert strategy.action(state) == ("mine",)

    def test_all_actions_are_mine_or_release(self, model_d2f1):
        for action in model_d2f1.mdp.row_actions:
            assert action[0] in ("mine", "release")

    def test_release_labels_reference_valid_forks(self, model_d2f1):
        attack = model_d2f1.attack
        for action in model_d2f1.mdp.row_actions:
            if action[0] != "release":
                continue
            _, depth, fork, blocks = action
            assert 1 <= depth <= attack.depth
            assert 1 <= fork <= attack.forks
            assert 1 <= blocks <= attack.max_fork_length


class TestExploration:
    """The uncached skeleton exploration a sweep runs once per configuration."""

    @pytest.mark.parametrize("attack", EXPLORATION_GRID, ids=_grid_id)
    def test_explored_states_within_theoretical_bound(self, protocol_default, attack):
        structure = build_model_structure(attack, SupportSignature.of(protocol_default))
        assert structure.num_states <= code_space_size(attack)
        # Every state keeps an action and every action a transition.
        assert structure.num_states <= structure.num_rows <= structure.num_transitions

    def test_explored_state_count_grows_along_the_grid(self, protocol_default):
        signature = SupportSignature.of(protocol_default)
        counts = [build_model_structure(a, signature).num_states for a in EXPLORATION_GRID]
        assert counts == sorted(set(counts))
