"""Tests of positional strategies."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.mdp import MDPBuilder, Strategy


@pytest.fixture()
def mdp():
    builder = MDPBuilder()
    builder.add_action("a", "stay", [("a", 1.0, (1.0,))])
    builder.add_action("a", "go", [("b", 1.0, (0.0,))])
    builder.add_action("b", "back", [("a", 1.0, (2.0,))])
    builder.add_action("b", "loop", [("b", 1.0, (0.5,))])
    return builder.build(initial_state="a")


class TestStrategy:
    def test_first_action(self, mdp):
        strategy = Strategy.first_action(mdp)
        assert strategy.action(mdp.state_of_label("a")) == "stay"
        assert strategy.action(mdp.state_of_label("b")) == "back"

    def test_from_action_map(self, mdp):
        strategy = Strategy.from_action_map(mdp, {"a": "go", "b": "loop"})
        assert strategy.action_of_label("a") == "go"
        assert strategy.action_of_label("b") == "loop"

    def test_from_action_map_defaults_missing_states(self, mdp):
        strategy = Strategy.from_action_map(mdp, {"a": "go"})
        assert strategy.action_of_label("b") == "back"

    def test_rejects_wrong_shape(self, mdp):
        with pytest.raises(ModelError):
            Strategy(mdp, np.array([0]))

    def test_rejects_rows_of_other_states(self, mdp):
        # Row 0 belongs to state "a"; assigning it to state "b" must fail.
        with pytest.raises(ModelError):
            Strategy(mdp, np.array([0, 0]))

    # -1 and -2 would index rows of state "b" and -4 the first row of state
    # "a", so each wraps onto a row of the right state; 4 and 99 are past the
    # last row.
    @pytest.mark.parametrize("rows", [[0, -1], [0, 4], [99, 2], [-4, 2], [0, -2]])
    def test_rejects_rows_outside_the_model(self, mdp, rows):
        with pytest.raises(ModelError, match="outside the model's 4 rows"):
            Strategy(mdp, np.array(rows))

    def test_rows_are_read_only(self, mdp):
        strategy = Strategy.from_action_map(mdp, {"a": "go"})
        with pytest.raises(ValueError, match="read-only"):
            strategy.rows[0] = 0
        assert strategy.action_of_label("a") == "go"

    def test_rows_stay_read_only_through_pickle(self, mdp):
        strategy = pickle.loads(pickle.dumps(Strategy.from_action_map(mdp, {"b": "loop"})))
        assert strategy.action_of_label("b") == "loop"
        assert not strategy.rows.flags.writeable

    def test_rows_are_a_copy_of_the_source(self, mdp):
        source = mdp.first_row_choice()
        strategy = Strategy(mdp, source)
        source[mdp.state_of_label("a")] = mdp.row_index(mdp.state_of_label("a"), "go")
        assert strategy.action_of_label("a") == "stay"
        assert source.flags.writeable

    def test_equality(self, mdp):
        assert Strategy.first_action(mdp) == Strategy.first_action(mdp)
        assert Strategy.first_action(mdp) != Strategy.from_action_map(mdp, {"a": "go"})

    def test_iteration_yields_rows(self, mdp):
        strategy = Strategy.first_action(mdp)
        assert list(strategy) == strategy.rows.tolist()

    def test_row_accessor(self, mdp):
        strategy = Strategy.from_action_map(mdp, {"a": "go"})
        state_a = mdp.state_of_label("a")
        assert mdp.row_actions[strategy.row(state_a)] == "go"
