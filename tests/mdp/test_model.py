"""Tests of the MDP container and builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.mdp import MDP, MDPBuilder, policy_iteration
from repro.mdp.markov_chain import row_table


def expected_row_rewards(mdp: MDP, weights) -> np.ndarray:
    """The expected one-step reward of every row under ``weights``, as policy iteration forms it."""
    return row_table(mdp).expected_rewards @ np.asarray(weights, dtype=float)


def build_two_state_mdp() -> MDP:
    """A tiny two-state MDP used across several tests.

    State "a" can stay (reward 1) or move to "b" (reward 0); state "b" always
    returns to "a" with reward 2.
    """
    builder = MDPBuilder(num_reward_components=1)
    builder.add_action("a", "stay", [("a", 1.0, (1.0,))])
    builder.add_action("a", "go", [("b", 1.0, (0.0,))])
    builder.add_action("b", "back", [("a", 1.0, (2.0,))])
    return builder.build(initial_state="a")


class TestMDPBuilder:
    def test_add_state_is_idempotent(self):
        builder = MDPBuilder()
        assert builder.add_state("s") == builder.add_state("s")
        assert builder.num_states == 1

    def test_state_index_unknown_label_raises(self):
        builder = MDPBuilder()
        with pytest.raises(ModelError):
            builder.state_index("missing")

    def test_add_action_registers_successors(self):
        builder = MDPBuilder()
        builder.add_action("a", "go", [("b", 0.5, (0.0,)), ("c", 0.5, (0.0,))])
        assert (builder.state_index("b"), builder.state_index("c")) == (1, 2)
        assert builder.num_states == 3

    def test_add_action_rejects_bad_probability_sum(self):
        builder = MDPBuilder()
        with pytest.raises(ModelError):
            builder.add_action("a", "go", [("b", 0.5, (0.0,)), ("c", 0.4, (0.0,))])

    def test_add_action_rejects_negative_probability(self):
        builder = MDPBuilder()
        with pytest.raises(ModelError):
            builder.add_action("a", "go", [("b", -0.5, (0.0,)), ("c", 1.5, (0.0,))])

    def test_add_action_rejects_empty_distribution(self):
        builder = MDPBuilder()
        with pytest.raises(ModelError):
            builder.add_action("a", "go", [])

    def test_add_action_rejects_wrong_reward_length(self):
        builder = MDPBuilder(num_reward_components=2)
        with pytest.raises(ModelError):
            builder.add_action("a", "go", [("b", 1.0, (1.0,))])

    def test_add_action_rejects_duplicate_action(self):
        builder = MDPBuilder()
        builder.add_action("a", "go", [("a", 1.0, (0.0,))])
        with pytest.raises(ModelError):
            builder.add_action("a", "go", [("a", 1.0, (0.0,))])

    def test_zero_probability_transitions_are_dropped(self):
        builder = MDPBuilder()
        builder.add_action("a", "go", [("a", 1.0, (0.0,)), ("b", 0.0, (0.0,))])
        mdp = builder.build(initial_state="a")
        # "b" was registered but the zero-probability edge is absent.
        assert mdp.num_transitions == 1

    def test_build_requires_actions_in_every_state(self):
        builder = MDPBuilder()
        builder.add_action("a", "go", [("b", 1.0, (0.0,))])
        with pytest.raises(ModelError):
            builder.build(initial_state="a")

    def test_build_rejects_unknown_initial_state(self):
        builder = MDPBuilder()
        builder.add_action("a", "stay", [("a", 1.0, (0.0,))])
        with pytest.raises(ModelError):
            builder.build(initial_state="nope")

    def test_num_reward_components_must_be_positive(self):
        with pytest.raises(ModelError):
            MDPBuilder(num_reward_components=0)

    def test_probabilities_are_renormalised_on_build(self):
        builder = MDPBuilder()
        builder.add_action(
            "a", "go", [("a", 0.3333333, (0.0,)), ("b", 0.6666667, (0.0,))]
        )
        builder.add_action("b", "stay", [("b", 1.0, (0.0,))])
        mdp = builder.build(initial_state="a")
        sums = np.add.reduceat(mdp.trans_prob, mdp.row_trans_offsets[:-1])
        assert np.allclose(sums, 1.0)


class TestMDPQueries:
    def test_counts(self):
        mdp = build_two_state_mdp()
        assert mdp.num_states == 2
        assert mdp.num_rows == 3
        assert mdp.num_transitions == 3
        assert mdp.num_reward_components == 1

    def test_initial_state_index(self):
        mdp = build_two_state_mdp()
        assert mdp.state_labels[mdp.initial_state] == "a"

    def test_num_actions_of(self):
        mdp = build_two_state_mdp()
        state_a = mdp.state_of_label("a")
        assert [mdp.row_actions[row] for row in mdp.rows_of(state_a)] == ["stay", "go"]
        assert mdp.num_actions_of(state_a) == 2

    def test_row_index_lookup(self):
        mdp = build_two_state_mdp()
        state_a = mdp.state_of_label("a")
        row = mdp.row_index(state_a, "go")
        assert mdp.row_actions[row] == "go"
        assert mdp.row_state[row] == state_a

    def test_row_index_unknown_action_raises(self):
        mdp = build_two_state_mdp()
        with pytest.raises(ModelError):
            mdp.row_index(0, "missing")

    def test_state_of_label_unknown_raises(self):
        mdp = build_two_state_mdp()
        with pytest.raises(ModelError):
            mdp.state_of_label("zzz")

    def test_expected_row_rewards(self):
        mdp = build_two_state_mdp()
        rewards = expected_row_rewards(mdp, [1.0])
        state_a = mdp.state_of_label("a")
        stay_row = mdp.row_index(state_a, "stay")
        go_row = mdp.row_index(state_a, "go")
        assert rewards[stay_row] == pytest.approx(1.0)
        assert rewards[go_row] == pytest.approx(0.0)

    def test_wrong_weight_length_is_rejected(self):
        mdp = build_two_state_mdp()
        with pytest.raises(ModelError, match="expected 1 reward weights"):
            policy_iteration(mdp, [1.0, 2.0])

    def test_reward_weights_scale_linearly(self):
        mdp = build_two_state_mdp()
        single = expected_row_rewards(mdp, [1.0])
        double = expected_row_rewards(mdp, [2.0])
        assert np.allclose(double, 2.0 * single)

    def test_first_row_choice_picks_first_rows(self):
        mdp = build_two_state_mdp()
        rows = mdp.first_row_choice()
        assert np.array_equal(mdp.row_state[rows], np.arange(mdp.num_states))

    def test_multi_component_rewards(self):
        builder = MDPBuilder(num_reward_components=2)
        builder.add_action("s", "loop", [("s", 1.0, (1.0, 3.0))])
        mdp = builder.build(initial_state="s")
        assert expected_row_rewards(mdp, [1.0, 0.0])[0] == pytest.approx(1.0)
        assert expected_row_rewards(mdp, [0.0, 1.0])[0] == pytest.approx(3.0)
        assert expected_row_rewards(mdp, [1.0, -1.0])[0] == pytest.approx(-2.0)
