"""Tests of graph analysis (reachability, end components, unavoidable states) and validation."""

from __future__ import annotations

import copy
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import TOTAL_WEIGHTS, check_theorem_premises
from repro.attacks import build_selfish_forks_mdp
from repro.attacks.sm_actions import build_sm_actions_mdp
from repro.config import AttackParams, ProtocolParams
from repro.exceptions import ModelError
from repro.mdp import (
    MDPBuilder,
    Strategy,
    end_components,
    reachable_states,
    unavoidable_state,
    validate_mdp,
)
from strategy_oracle import (
    all_strategies,
    avoidable,
    long_run_rates,
    num_recurrent_classes,
    reach,
    recurrent,
    transition_matrices,
)


FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
FULL_ONLY = pytest.mark.skipif(not FULL, reason="the d=3,f=2 model is large; set REPRO_FULL=1")


def chain_mdp():
    """a -> b -> c (c absorbing), all deterministic."""
    builder = MDPBuilder()
    builder.add_action("a", "go", [("b", 1.0, (0.0,))])
    builder.add_action("b", "go", [("c", 1.0, (0.0,))])
    builder.add_action("c", "stay", [("c", 1.0, (0.0,))])
    return builder.build(initial_state="a")


def two_component_mdp():
    """Two disjoint absorbing loops reachable by a single initial choice."""
    builder = MDPBuilder()
    builder.add_action("s", "left", [("l", 1.0, (0.0,))])
    builder.add_action("s", "right", [("r", 1.0, (0.0,))])
    builder.add_action("l", "stay", [("l", 1.0, (1.0,))])
    builder.add_action("r", "stay", [("r", 1.0, (2.0,))])
    return builder.build(initial_state="s")


def stay_or_go_mdp():
    """``a`` may stay or move to ``b``; both loops are absorbing."""
    builder = MDPBuilder()
    builder.add_action("a", "stay", [("a", 1.0, (0.0,))])
    builder.add_action("b", "stay", [("b", 1.0, (0.0,))])
    builder.add_action("a", "go", [("b", 1.0, (0.0,))])
    return builder.build(initial_state="a")


def leaking_mdp():
    """State 0 stays w.p. 0.5 and leaks into absorbing states 1 and 2 w.p. 0.25 each."""
    builder = MDPBuilder()
    builder.add_action(0, "go", [(0, 0.5, (0.0,)), (1, 0.25, (0.0,)), (2, 0.25, (0.0,))])
    builder.add_action(1, "loop", [(1, 1.0, (0.0,))])
    builder.add_action(2, "loop", [(2, 1.0, (0.0,))])
    return builder.build(initial_state=0)


def strategy_closure(mdp, strategy):
    """The reachability closure of one strategy's chain."""
    return reach(transition_matrices(mdp, strategy.rows[None, :]))


def with_initial_state(mdp, state):
    """The same model, started in ``state``."""
    moved = copy.copy(mdp)
    moved.initial_state = state
    return moved


class TestReachability:
    def test_all_states_reachable_in_chain(self):
        mdp = chain_mdp()
        assert reachable_states(mdp) == {0, 1, 2}

    def test_reachable_from_intermediate_state(self):
        mdp = chain_mdp()
        state_b = mdp.state_of_label("b")
        assert reachable_states(mdp, from_state=state_b) == {state_b, mdp.state_of_label("c")}

    def test_reachable_states_follow_edges(self):
        # Edges a -> b and b -> c, and none back from c.
        mdp = chain_mdp()
        assert reachable_states(mdp, from_state=0) == {0, 1, 2}
        assert reachable_states(mdp, from_state=1) == {1, 2}
        assert reachable_states(mdp, from_state=2) == {2}

    def test_reachable_states_ignore_zero_probability_transitions(self):
        mdp = copy.copy(chain_mdp())
        mdp.trans_prob = mdp.trans_prob.copy()
        mdp.trans_prob[0] = 0.0  # a -> b
        assert reachable_states(mdp) == {0}

    def test_strategy_chain_follows_choice(self):
        mdp = two_component_mdp()
        strategy = Strategy.from_action_map(mdp, {"s": "right"})
        reached = strategy_closure(mdp, strategy)[0, mdp.state_of_label("s")]
        assert set(np.flatnonzero(reached).tolist()) == {
            mdp.state_of_label("s"),
            mdp.state_of_label("r"),
        }
        assert reachable_states(mdp) == {0, 1, 2}


class TestRecurrence:
    def test_single_recurrent_class_in_chain(self):
        mdp = chain_mdp()
        closure = strategy_closure(mdp, Strategy.first_action(mdp))
        assert np.flatnonzero(recurrent(closure)[0]).tolist() == [mdp.state_of_label("c")]
        assert unavoidable_state(mdp) == mdp.state_of_label("c")

    def test_two_component_mdp_is_not_unichain(self):
        # Under any fixed strategy the loop that was not chosen is still a bottom
        # SCC of the induced chain, so the model has two recurrent classes.
        mdp = two_component_mdp()
        assert unavoidable_state(mdp) is None
        closure = reach(transition_matrices(mdp, all_strategies(mdp)))
        assert np.all(num_recurrent_classes(closure) == 2)

    def test_multichain_strategy_detected(self):
        mdp = stay_or_go_mdp()
        stay_everywhere = Strategy.from_action_map(mdp, {"a": "stay", "b": "stay"})
        assert num_recurrent_classes(strategy_closure(mdp, stay_everywhere))[0] == 2
        assert unavoidable_state(mdp) is None

    def test_leaking_chain_has_no_unavoidable_state(self):
        assert unavoidable_state(leaking_mdp()) is None

    def test_end_components_of_two_component_mdp(self):
        mdp = two_component_mdp()
        components = end_components(mdp)
        as_sets = {frozenset(component) for component in components}
        assert as_sets == {
            frozenset({mdp.state_of_label("l")}),
            frozenset({mdp.state_of_label("r")}),
        }

    def test_end_components_of_selfish_mining_model(self, model_d1f1):
        # The selfish-mining MDP is strongly connected enough that the initial
        # state lies inside a maximal end component.
        components = end_components(model_d1f1.mdp)
        assert any(model_d1f1.mdp.initial_state in component for component in components)


@st.composite
def sparse_mdps(draw):
    """Random MDPs with 2-6 states, 1-3 actions and 1-3 successors per action."""
    num_states = draw(st.integers(min_value=2, max_value=6))
    builder = MDPBuilder()
    for state in range(num_states):
        builder.add_state(state)
    for state in range(num_states):
        for action in range(draw(st.integers(min_value=1, max_value=3))):
            successors = draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_states - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
            weights = [draw(st.integers(min_value=1, max_value=4)) for _ in successors]
            total = sum(weights)
            transitions = [(succ, w / total, (0.0,)) for succ, w in zip(successors, weights)]
            builder.add_action(state, action, transitions)
    return builder.build(initial_state=0)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mdp=sparse_mdps())
def test_unavoidable_state_is_exact(mdp):
    closure = reach(transition_matrices(mdp, all_strategies(mdp)))
    state = unavoidable_state(mdp)
    if state is not None:
        # Every strategy has exactly one bottom SCC, and it contains the state.
        assert np.all(num_recurrent_classes(closure) == 1)
        assert np.all(recurrent(closure)[:, state])
    else:
        # Every state is avoided forever by some strategy.
        assert np.all(np.any(avoidable(closure), axis=0))


class TestPremiseModels:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("depth,forks", [(1, 1), (2, 1), (2, 2)])
    def test_selfish_forks_initial_state_is_unavoidable(self, depth, forks, gamma):
        model = build_selfish_forks_mdp(
            ProtocolParams(p=0.3, gamma=gamma), AttackParams(depth=depth, forks=forks)
        )
        assert unavoidable_state(model.mdp) == model.mdp.initial_state

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("depth,forks", [(1, 1), (2, 1), (2, 2)])
    def test_selfish_forks_premises_hold(self, depth, forks, gamma):
        """No transition pays a negative ``r_A + r_H``, so premise 3 needs no solve."""
        model = build_selfish_forks_mdp(
            ProtocolParams(p=0.3, gamma=gamma), AttackParams(depth=depth, forks=forks)
        )
        assert (model.mdp.trans_reward >= 0.0).all()
        report = check_theorem_premises(model.mdp)
        assert report.monotone and report.all_hold

    @FULL_ONLY
    def test_d3f2_initial_state_is_unavoidable(self):
        model = build_selfish_forks_mdp(
            ProtocolParams(p=0.3, gamma=0.5), AttackParams(depth=3, forks=2)
        )
        assert model.mdp.num_states == 133_299
        assert unavoidable_state(model.mdp) == model.mdp.initial_state

    @FULL_ONLY
    def test_d3f2_premises_hold(self):
        """The whole check at Table 1's 133k-state model: premises 1 and 3, and one solve."""
        model = build_selfish_forks_mdp(
            ProtocolParams(p=0.3, gamma=0.5), AttackParams(depth=3, forks=2)
        )
        report = check_theorem_premises(model.mdp)
        assert report.all_hold
        assert report.min_total_block_rate > 0.0

    def test_every_d1f1_strategy_is_unichain_through_the_initial_state(self, model_d1f1):
        mdp = model_d1f1.mdp
        strategies = all_strategies(mdp)
        assert len(strategies) == 14_400
        closure = reach(transition_matrices(mdp, strategies))
        assert np.all(num_recurrent_classes(closure) == 1)
        assert np.all(recurrent(closure)[:, mdp.initial_state])

    def test_d1f1_minimum_block_rate_is_the_enumerated_minimum(self, model_d1f1):
        mdp = model_d1f1.mdp
        rates = long_run_rates(mdp, all_strategies(mdp), TOTAL_WEIGHTS)
        report = check_theorem_premises(mdp)
        assert report.min_total_block_rate == pytest.approx(rates.min(), abs=1e-12)
        assert report.min_total_block_rate == pytest.approx(0.35, abs=1e-12)

    @pytest.mark.parametrize("variant", ["", "overpaying"])
    def test_sm_actions_premises_hold(self, variant):
        """The overpaying settlement pays ``r_H < 0``, but never ``r_A + r_H < 0``."""
        model = build_sm_actions_mdp(
            ProtocolParams(p=0.3, gamma=0.5),
            AttackParams(
                depth=1, forks=1, max_fork_length=8, scenario="sm-actions", variant=variant
            ),
        )
        assert bool((model.mdp.trans_reward[:, 1] < 0.0).any()) == (variant == "overpaying")
        report = check_theorem_premises(model.mdp)
        assert report.monotone and report.all_hold

    def test_sm_actions_initial_state_is_transient(self):
        model = build_sm_actions_mdp(
            ProtocolParams(p=0.3, gamma=0.5),
            AttackParams(depth=1, forks=1, max_fork_length=8, scenario="sm-actions"),
        )
        mdp = model.mdp
        assert mdp.state_labels[mdp.initial_state] == (0, 0, 0)
        assert all(mdp.initial_state not in component for component in end_components(mdp))
        state = unavoidable_state(mdp)
        assert state is not None and state != mdp.initial_state
        for label in [(1, 0, 0), (0, 1, 1)]:
            other = mdp.state_of_label(label)
            assert unavoidable_state(with_initial_state(mdp, other)) == other


class TestValidation:
    def test_valid_model_passes(self):
        report = validate_mdp(chain_mdp())
        assert report.is_valid
        assert report.num_states == 3
        assert report.num_unreachable == 0

    def test_unreachable_states_detected(self):
        builder = MDPBuilder()
        builder.add_action("a", "stay", [("a", 1.0, (0.0,))])
        builder.add_action("zombie", "stay", [("zombie", 1.0, (0.0,))])
        mdp = builder.build(initial_state="a")
        with pytest.raises(ModelError):
            validate_mdp(mdp)
        report = validate_mdp(mdp, raise_on_error=False)
        assert report.num_unreachable == 1
        assert not report.is_valid

    def test_unreachable_states_can_be_allowed(self):
        builder = MDPBuilder()
        builder.add_action("a", "stay", [("a", 1.0, (0.0,))])
        builder.add_action("zombie", "stay", [("zombie", 1.0, (0.0,))])
        mdp = builder.build(initial_state="a")
        report = validate_mdp(mdp, require_reachable=False, raise_on_error=False)
        assert report.is_valid

    def test_corrupted_probabilities_detected(self):
        mdp = chain_mdp()
        mdp.trans_prob = np.array([0.5, 1.0, 1.0])  # break row 0 on purpose
        report = validate_mdp(mdp, raise_on_error=False)
        assert any("probability" in problem for problem in report.problems)

    def test_selfish_mining_models_are_valid(self, model_d1f1, model_d2f1):
        assert validate_mdp(model_d1f1.mdp).is_valid
        assert validate_mdp(model_d2f1.mdp).is_valid
