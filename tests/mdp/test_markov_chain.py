"""Tests of induced Markov chains: stationary distributions, gain/bias, ratios."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import beta_reward_weights, check_theorem_premises, evaluate_strategy_errev
from repro.exceptions import ModelError, SolverError
from repro.mdp import MDPBuilder, MarkovChain, Strategy, induced_markov_chain

#: spsolve warns before returning NaN on the singular systems of a multichain chain.
SINGULAR = pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")


def two_state_chain(p_stay: float = 0.5, rewards=((1.0,), (0.0,))) -> MarkovChain:
    """Simple two-state chain with symmetric switching probability."""
    matrix = sp.csr_matrix(
        np.array([[p_stay, 1.0 - p_stay], [1.0 - p_stay, p_stay]])
    )
    return MarkovChain(transition_matrix=matrix, expected_rewards=np.array(rewards))


class TestMarkovChain:
    def test_validate_accepts_stochastic_matrix(self):
        two_state_chain().validate()

    def test_validate_rejects_non_stochastic_matrix(self):
        matrix = sp.csr_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
        chain = MarkovChain(transition_matrix=matrix, expected_rewards=np.zeros((2, 1)))
        with pytest.raises(ModelError):
            chain.validate()

    def test_stationary_distribution_symmetric_chain(self):
        pi = two_state_chain().stationary_distribution()
        assert np.allclose(pi, [0.5, 0.5])

    def test_stationary_distribution_asymmetric_chain(self):
        # Birth-death chain: P(0->1)=0.2, P(1->0)=0.4 => pi = (2/3, 1/3).
        matrix = sp.csr_matrix(np.array([[0.8, 0.2], [0.4, 0.6]]))
        chain = MarkovChain(transition_matrix=matrix, expected_rewards=np.zeros((2, 1)))
        assert np.allclose(chain.stationary_distribution(), [2 / 3, 1 / 3])

    def test_stationary_distribution_single_state(self):
        matrix = sp.csr_matrix(np.array([[1.0]]))
        chain = MarkovChain(transition_matrix=matrix, expected_rewards=np.ones((1, 1)))
        assert np.allclose(chain.stationary_distribution(), [1.0])

    def test_stationary_distribution_sums_to_one(self):
        rng = np.random.default_rng(3)
        raw = rng.random((5, 5)) + 0.01
        matrix = sp.csr_matrix(raw / raw.sum(axis=1, keepdims=True))
        chain = MarkovChain(transition_matrix=matrix, expected_rewards=np.zeros((5, 1)))
        assert chain.stationary_distribution().sum() == pytest.approx(1.0)

    def test_long_run_reward_vector(self):
        chain = two_state_chain(rewards=((1.0, 2.0), (3.0, 0.0)))
        averages = chain.long_run_reward()
        assert np.allclose(averages, [2.0, 1.0])

    def test_long_run_reward_weighted(self):
        chain = two_state_chain(rewards=((1.0,), (0.0,)))
        assert chain.long_run_reward([2.0])[0] == pytest.approx(1.0)

    def test_gain_and_bias_satisfy_poisson_equation(self):
        chain = two_state_chain(p_stay=0.7, rewards=((1.0,), (0.0,)))
        gain, bias = chain.gain_and_bias([1.0])
        rewards = chain.expected_rewards @ np.array([1.0])
        lhs = bias + gain
        rhs = rewards + chain.transition_matrix @ bias
        assert np.allclose(lhs, rhs, atol=1e-8)
        assert gain == pytest.approx(0.5)

    def test_gain_reference_state_bias_is_zero(self):
        chain = two_state_chain(p_stay=0.25)
        _, bias = chain.gain_and_bias([1.0], reference_state=1)
        assert bias[1] == pytest.approx(0.0, abs=1e-9)

    def test_occupancy_ratio(self):
        chain = two_state_chain(rewards=((1.0, 0.0), (0.0, 1.0)))
        ratio = chain.occupancy_ratio([1.0, 0.0], [1.0, 1.0])
        assert ratio == pytest.approx(0.5)

    def test_occupancy_ratio_zero_denominator_raises(self):
        chain = two_state_chain(rewards=((0.0, 0.0), (0.0, 0.0)))
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            chain.occupancy_ratio([1.0, 0.0], [1.0, 1.0])


class TestInducedChain:
    @pytest.fixture()
    def mdp(self):
        builder = MDPBuilder()
        builder.add_action("a", "stay", [("a", 0.5, (1.0,)), ("b", 0.5, (0.0,))])
        builder.add_action("a", "jump", [("b", 1.0, (0.0,))])
        builder.add_action("b", "back", [("a", 1.0, (2.0,))])
        return builder.build(initial_state="a")

    def test_induced_chain_shape(self, mdp):
        chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
        assert chain.num_states == 2
        chain.validate()

    def test_induced_chain_respects_strategy(self, mdp):
        strategy = Strategy.from_action_map(mdp, {"a": "jump"})
        chain = induced_markov_chain(mdp, strategy)
        row = chain.transition_matrix.getrow(mdp.state_of_label("a")).toarray().ravel()
        assert row[mdp.state_of_label("b")] == pytest.approx(1.0)

    def test_induced_chain_expected_rewards(self, mdp):
        chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
        state_a = mdp.state_of_label("a")
        assert chain.expected_rewards[state_a, 0] == pytest.approx(0.5)

    def test_strategy_of_other_mdp_rejected(self, mdp):
        builder = MDPBuilder()
        builder.add_action("x", "loop", [("x", 1.0, (0.0,))])
        other = builder.build(initial_state="x")
        with pytest.raises(ModelError):
            induced_markov_chain(mdp, Strategy.first_action(other))

    def test_long_run_reward_of_alternating_strategy(self, mdp):
        strategy = Strategy.from_action_map(mdp, {"a": "jump", "b": "back"})
        chain = induced_markov_chain(mdp, strategy)
        # Deterministic 2-cycle alternating rewards 0 and 2 -> average 1.
        assert chain.long_run_reward([1.0])[0] == pytest.approx(1.0)


def multichain_mdp():
    """State 0 stays w.p. 0.5 and leaks into absorbing states 1 and 2 w.p. 0.25 each."""
    builder = MDPBuilder(num_reward_components=2)
    zero = (0.0, 0.0)
    builder.add_action(0, "go", [(0, 0.5, zero), (1, 0.25, zero), (2, 0.25, zero)])
    builder.add_action(1, "loop", [(1, 1.0, (1.0, 0.0))])
    builder.add_action(2, "loop", [(2, 1.0, (0.0, 1.0))])
    return builder.build(initial_state=0)


@SINGULAR
class TestNonUnichainIsLoud:
    """Two recurrent classes make both linear systems singular; no NaN, no guess."""

    @pytest.fixture()
    def chain(self):
        mdp = multichain_mdp()
        return induced_markov_chain(mdp, Strategy.first_action(mdp))

    def test_stationary_distribution_raises(self, chain):
        with pytest.raises(SolverError, match="not unichain"):
            chain.stationary_distribution()

    def test_gain_and_bias_raises_instead_of_least_squares(self, chain):
        with pytest.raises(SolverError, match="not unichain"):
            chain.gain_and_bias([1.0, 0.0])

    def test_strategy_errev_raises_instead_of_nan(self):
        mdp = multichain_mdp()
        with pytest.raises(SolverError, match="not unichain"):
            evaluate_strategy_errev(mdp, Strategy.first_action(mdp))

    def test_premise_check_reports_undefined_block_rate(self):
        report = check_theorem_premises(multichain_mdp(), betas=())
        assert not report.unichain
        assert np.isnan(report.min_total_block_rate)
        assert any("block rate is undefined" in problem for problem in report.problems)
        assert not report.all_hold


def loop_oracle(mdp, strategy):
    """The per-state construction of the induced chain, plus its number of merged entries."""
    data, indices, indptr = [], [], [0]
    expected = np.zeros((mdp.num_states, mdp.num_reward_components))
    for state, row in enumerate(strategy.rows):
        start, end = mdp.row_trans_offsets[row], mdp.row_trans_offsets[row + 1]
        probs = mdp.trans_prob[start:end]
        data.extend(probs.tolist())
        indices.extend(mdp.trans_succ[start:end].tolist())
        indptr.append(len(data))
        expected[state] = probs @ mdp.trans_reward[start:end]
    matrix = sp.csr_matrix((np.asarray(data), np.asarray(indices), np.asarray(indptr)))
    matrix.sum_duplicates()
    return matrix, expected, len(data) - matrix.nnz


class TestVectorisedChain:
    def test_repeated_successor_is_merged_and_rewards_are_per_transition(self):
        builder = MDPBuilder(num_reward_components=2)
        builder.add_action(
            "a", "fork", [("b", 0.25, (1.0, 0.0)), ("b", 0.5, (0.0, 3.0)), ("a", 0.25, (2.0, 2.0))]
        )
        builder.add_action("b", "back", [("a", 1.0, (0.0, 1.0))])
        mdp = builder.build(initial_state="a")
        chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
        a, b = mdp.state_of_label("a"), mdp.state_of_label("b")
        assert chain.transition_matrix[a, b] == 0.75
        assert chain.transition_matrix[a, a] == 0.25
        assert chain.transition_matrix.nnz == 3
        expected_a = [0.25 * 1.0 + 0.25 * 2.0, 0.5 * 3.0 + 0.25 * 2.0]
        assert chain.expected_rewards[a].tolist() == expected_a
        assert chain.expected_rewards[b].tolist() == [0.0, 1.0]
        # The model's own transition arrays are untouched by the in-place merge.
        assert mdp.trans_prob.tolist() == [0.25, 0.5, 0.25, 1.0]

    @pytest.fixture(
        scope="class", params=[("model_d1f1", True), ("model_d2f2", False)], ids=["d1f1", "d2f2"]
    )
    def strategies(self, request):
        """Ten seeded random strategies, and whether any of them picks a repeated successor.

        Only ``d=1,f=1`` has a row with a repeated successor (a capped fork).
        """
        name, merges = request.param
        mdp = request.getfixturevalue(name).mdp
        rng = np.random.default_rng(14)
        counts = np.diff(mdp.state_row_offsets)
        sampled = [
            Strategy(mdp, mdp.state_row_offsets[:-1] + rng.integers(0, counts))
            for _ in range(10)
        ]
        return mdp, sampled, merges

    def test_matches_per_state_loop_bit_for_bit(self, strategies):
        mdp, sampled, merges = strategies
        merged = 0
        for strategy in sampled:
            chain = induced_markov_chain(mdp, strategy)
            matrix, expected, merged_entries = loop_oracle(mdp, strategy)
            merged += merged_entries
            assert np.array_equal(chain.transition_matrix.indptr, matrix.indptr)
            assert np.array_equal(chain.transition_matrix.indices, matrix.indices)
            assert chain.transition_matrix.data.tobytes() == matrix.data.tobytes()
            assert chain.expected_rewards.tobytes() == expected.tobytes()
        assert (merged > 0) == merges

    def test_poisson_and_balance_residuals(self, strategies):
        mdp, sampled, _ = strategies
        weights = beta_reward_weights(0.3)
        for strategy in sampled:
            chain = induced_markov_chain(mdp, strategy)
            matrix = chain.transition_matrix
            gain, bias = chain.gain_and_bias(weights, reference_state=mdp.initial_state)
            rewards = chain.expected_rewards @ weights
            assert np.max(np.abs(bias + gain - rewards - matrix @ bias)) <= 1e-10
            pi = chain.stationary_distribution()
            assert np.max(np.abs(matrix.T @ pi - pi)) <= 1e-10
