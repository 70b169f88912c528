"""Tests of induced Markov chains: stationary distribution, gain/bias, row table, column order.

Chains of explicit matrices are built as models with one row per state
(:func:`chain_oracle.explicit_chain`).
"""

from __future__ import annotations

import importlib
import os
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chain_oracle import explicit_chain, induced_transition_matrix
from repro import AnalysisConfig, AttackParams, ProtocolParams
from repro.analysis import (
    beta_reward_weights,
    check_theorem_premises,
    evaluate_strategy_errev,
    formal_analysis,
)
from repro.attacks import (
    SelfishForksStructure,
    SupportSignature,
    build_selfish_forks_mdp,
    get_model_structure,
)
from repro.exceptions import ModelError, SolverError
from repro.mdp import (
    MDPBuilder,
    EvaluationCache,
    PolicyEvaluation,
    Strategy,
    induced_markov_chain,
    policy_iteration,
)
from repro.mdp import markov_chain

#: The policy-iteration module; ``repro.mdp.policy_iteration`` is the function.
PI_MODULE = importlib.import_module("repro.mdp.policy_iteration")

FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
FULL_ONLY = pytest.mark.skipif(not FULL, reason="the d=3,f=2 model is large; set REPRO_FULL=1")

#: The stationary solve's spsolve warns before returning NaN on a multichain
#: chain's singular system; the Poisson factorization raises instead.
SINGULAR = pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")


def two_state_matrix(p_stay: float = 0.5) -> sp.csr_matrix:
    """Two states with a symmetric switching probability."""
    return sp.csr_matrix(np.array([[p_stay, 1.0 - p_stay], [1.0 - p_stay, p_stay]]))


def two_state_chain(p_stay: float = 0.5, rewards=((1.0,), (0.0,)), initial_state: int = 0):
    """The chain of :func:`two_state_matrix`."""
    return explicit_chain(two_state_matrix(p_stay), np.array(rewards), initial_state)


class TestMarkovChain:
    def test_stationary_distribution_symmetric_chain(self):
        pi = two_state_chain().stationary_distribution()
        assert np.allclose(pi, [0.5, 0.5])

    def test_stationary_distribution_asymmetric_chain(self):
        # Birth-death chain: P(0->1)=0.2, P(1->0)=0.4 => pi = (2/3, 1/3).
        matrix = sp.csr_matrix(np.array([[0.8, 0.2], [0.4, 0.6]]))
        chain = explicit_chain(matrix, np.zeros((2, 1)))
        assert np.allclose(chain.stationary_distribution(), [2 / 3, 1 / 3])

    def test_stationary_distribution_single_state(self):
        matrix = sp.csr_matrix(np.array([[1.0]]))
        chain = explicit_chain(matrix, np.ones((1, 1)))
        assert np.allclose(chain.stationary_distribution(), [1.0])

    def test_stationary_distribution_sums_to_one(self):
        rng = np.random.default_rng(3)
        raw = rng.random((5, 5)) + 0.01
        matrix = sp.csr_matrix(raw / raw.sum(axis=1, keepdims=True))
        chain = explicit_chain(matrix, np.zeros((5, 1)))
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
        rewards = chain.expected_rewards @ np.array([1.0])
        gain, bias = chain.gain_and_bias(rewards)
        lhs = bias + gain
        rhs = rewards + two_state_matrix(0.7) @ bias
        assert np.allclose(lhs, rhs, atol=1e-8)
        assert gain == pytest.approx(0.5)

    @pytest.mark.parametrize("initial_state", [0, 1])
    def test_bias_is_zero_at_the_initial_state(self, initial_state):
        chain = two_state_chain(p_stay=0.25, initial_state=initial_state)
        _, bias = chain.gain_and_bias(chain.expected_rewards @ [1.0])
        assert bias[initial_state] == pytest.approx(0.0, abs=1e-12)
        # Only the pin moves: h[0] - h[1] = 2/3 whichever state is pinned.
        assert bias[0] - bias[1] == pytest.approx(2 / 3, abs=1e-12)


def stay_or_jump_mdp():
    """State ``a`` stays or jumps to ``b``; ``b`` goes back."""
    builder = MDPBuilder()
    builder.add_action("a", "stay", [("a", 0.5, (1.0,)), ("b", 0.5, (0.0,))])
    builder.add_action("a", "jump", [("b", 1.0, (0.0,))])
    builder.add_action("b", "back", [("a", 1.0, (2.0,))])
    return builder.build(initial_state="a")


class TestInducedChain:
    @pytest.fixture()
    def mdp(self):
        return stay_or_jump_mdp()

    def test_induced_chain_shape(self, mdp):
        chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
        assert chain.num_states == 2

    def test_induced_chain_respects_strategy(self, mdp):
        a, b = mdp.state_of_label("a"), mdp.state_of_label("b")
        # Staying half the time in a, a holds 2/3 of the mass; jumping, half.
        for choice, mass in (("stay", 2 / 3), ("jump", 1 / 2)):
            chain = induced_markov_chain(mdp, Strategy.from_action_map(mdp, {"a": choice}))
            pi = chain.stationary_distribution()
            assert (pi[a], pi[b]) == (pytest.approx(mass), pytest.approx(1 - mass))

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


def test_the_bias_is_pinned_at_an_initial_state_other_than_state_0():
    """Every Poisson solve pins the model's initial state, not the state with index 0."""
    builder = MDPBuilder()
    builder.add_action("a", "stay", [("a", 0.5, (1.0,)), ("b", 0.5, (0.0,))])
    builder.add_action("b", "back", [("a", 1.0, (2.0,))])
    mdp = builder.build(initial_state="b")
    assert mdp.initial_state == 1
    chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
    gain, bias = chain.gain_and_bias(chain.expected_rewards @ [1.0])
    # g = 1, and b earns 2 on its way to a: h[b] + 1 = 2 + h[a].
    assert gain == pytest.approx(1.0, abs=1e-12)
    assert bias.tolist() == [pytest.approx(-1.0, abs=1e-12), pytest.approx(0.0, abs=1e-12)]
    result = policy_iteration(mdp, [1.0])
    assert result.bias[mdp.initial_state] == pytest.approx(0.0, abs=1e-12)


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
            chain.gain_and_bias(chain.expected_rewards @ [1.0, 0.0])

    def test_strategy_errev_raises_instead_of_nan(self):
        mdp = multichain_mdp()
        with pytest.raises(SolverError, match="not unichain"):
            evaluate_strategy_errev(mdp, Strategy.first_action(mdp))

    def test_premise_check_reports_undefined_block_rate(self):
        report = check_theorem_premises(multichain_mdp())
        assert not report.unichain
        assert np.isnan(report.min_total_block_rate)
        assert any("block rate is undefined" in problem for problem in report.problems)
        assert not report.all_hold


def test_strategy_errev_without_finalised_blocks_raises():
    builder = MDPBuilder(num_reward_components=2)
    builder.add_action("a", "go", [("b", 1.0, (0.0, 0.0))])
    builder.add_action("b", "back", [("a", 1.0, (0.0, 0.0))])
    mdp = builder.build(initial_state="a")
    with pytest.raises(SolverError, match="finalises no blocks"):
        evaluate_strategy_errev(mdp, Strategy.first_action(mdp))


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
        # Equation a of the Poisson system: (1 - 0.25) h[a] - (0.25 + 0.5) h[b] + g.
        equation_a = chain.poisson_matrix().toarray()[a]
        rank = chain.column_rank()
        assert (equation_a[rank[a]], equation_a[rank[b]], equation_a[-1]) == (0.75, -0.75, 1.0)
        assert np.count_nonzero(equation_a) == 3
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
            # The vectorised oracle that test_chain_oracle.py checks the systems against.
            oracle_matrix, _ = induced_transition_matrix(mdp, strategy.rows)
            assert np.array_equal(oracle_matrix.indptr, matrix.indptr)
            assert np.array_equal(oracle_matrix.indices, matrix.indices)
            assert oracle_matrix.data.tobytes() == matrix.data.tobytes()
            assert chain.expected_rewards.tobytes() == expected.tobytes()
        assert (merged > 0) == merges

    def test_poisson_and_balance_residuals(self, strategies):
        mdp, sampled, _ = strategies
        weights = beta_reward_weights(0.3)
        for strategy in sampled:
            chain = induced_markov_chain(mdp, strategy)
            matrix, _ = induced_transition_matrix(mdp, strategy.rows)
            rewards = chain.expected_rewards @ weights
            gain, bias = chain.gain_and_bias(rewards)
            assert np.max(np.abs(bias + gain - rewards - matrix @ bias)) <= 1e-10
            pi = chain.stationary_distribution()
            assert np.max(np.abs(matrix.T @ pi - pi)) <= 1e-10


def sampled_strategies(mdp, count=6, seed=16):
    rng = np.random.default_rng(seed)
    counts = np.diff(mdp.state_row_offsets)
    return [
        Strategy(mdp, mdp.state_row_offsets[:-1] + rng.integers(0, counts)) for _ in range(count)
    ]


class _NaNFactor:
    """A factor of a numerically singular matrix: it solves, but to NaN."""

    def solve(self, rhs):
        return np.full_like(rhs, np.nan)


def test_numerically_singular_factor_is_loud():
    with pytest.raises(SolverError, match="not unichain"):
        two_state_chain().gain_and_bias(np.ones(2), factor=_NaNFactor())


class _UnusableFactor:
    """Stands in for a SuperLU factor that must never be solved with."""

    nnz = 0

    def solve(self, rhs):
        raise AssertionError("a factor of other rows was used")


def _no_factorization(*args, **kwargs):
    raise AssertionError("a strategy the cache holds was factored again")


@pytest.fixture()
def no_cached_factors(monkeypatch):
    """Cap the evaluation cache at 0 entries: it holds the latest evaluation only."""
    monkeypatch.setattr(PI_MODULE, "CACHED_FACTOR_ENTRIES", 0)


class TestFactorReuse:
    """One Poisson factor per strategy serves every reward weighting, bit for bit."""

    @pytest.fixture(params=["model_d1f1", "model_d2f2"])
    def mdp(self, request):
        return request.getfixturevalue(request.param).mdp

    def test_reused_factor_matches_fresh_factorization(self, mdp):
        for strategy in sampled_strategies(mdp):
            chain = induced_markov_chain(mdp, strategy)
            factor = chain.poisson_factor()
            for beta in (0.0, 0.3, 0.61, 1.0):
                rewards = chain.expected_rewards @ beta_reward_weights(beta)
                fresh_gain, fresh_bias = chain.gain_and_bias(rewards)
                gain, bias = chain.gain_and_bias(rewards, factor=factor)
                assert gain == fresh_gain
                assert bias.tobytes() == fresh_bias.tobytes()

    def test_cache_holds_the_final_strategy_evaluation(self, mdp, monkeypatch):
        cache = EvaluationCache()
        weights = beta_reward_weights(0.3)
        result = policy_iteration(mdp, weights, evaluation_cache=cache)
        monkeypatch.setattr(spla, "splu", _no_factorization)
        evaluation = cache.evaluation(mdp, result.strategy.rows)
        assert np.array_equal(evaluation.rows, result.strategy.rows)
        assert evaluation.rows is not result.strategy.rows
        # The solve's right-hand side: its one reward vector, gathered by the rows.
        rewards = (markov_chain.row_table(mdp).expected_rewards @ weights)[evaluation.rows]
        gain, bias = evaluation.chain.gain_and_bias(rewards, factor=evaluation.factor)
        assert gain == result.gain
        assert bias.tobytes() == result.bias.tobytes()

    def test_warm_evaluation_gives_the_cold_values(self, mdp):
        cache = EvaluationCache()
        incumbent = policy_iteration(mdp, beta_reward_weights(0.2), evaluation_cache=cache)
        weights = beta_reward_weights(0.45)
        cold = policy_iteration(mdp, weights, initial_strategy=incumbent.strategy)
        warm = policy_iteration(
            mdp, weights, initial_strategy=incumbent.strategy, evaluation_cache=cache
        )
        assert warm.gain == cold.gain
        assert warm.bias.tobytes() == cold.bias.tobytes()
        assert np.array_equal(warm.strategy.rows, cold.strategy.rows)
        assert warm.iterations == cold.iterations

    @pytest.mark.parametrize("mismatch", ["other_row", "shorter", "longer"])
    def test_evaluation_of_other_rows_is_never_used(self, mdp, mismatch, monkeypatch):
        start = Strategy.first_action(mdp)
        rows = {
            # -1 is no row of any state, so no iterate of the solve can match it.
            "other_row": np.concatenate([[-1], start.rows[1:]]),
            # Their bytes start or end like the start's, but are not equal.
            "shorter": start.rows[:-1],
            "longer": np.concatenate([start.rows, [0]]),
        }[mismatch]
        poisoned = PolicyEvaluation(
            rows=rows, chain=induced_markov_chain(mdp, start), factor=_UnusableFactor()
        )
        cache = EvaluationCache()
        with monkeypatch.context() as patch:
            patch.setattr(PI_MODULE, "_evaluate", lambda mdp, rows: poisoned)
            assert cache.evaluation(mdp, rows) is poisoned
        weights = beta_reward_weights(0.3)
        cold = policy_iteration(mdp, weights, initial_strategy=start)
        result = policy_iteration(mdp, weights, initial_strategy=start, evaluation_cache=cache)
        assert result.gain == cold.gain
        assert result.bias.tobytes() == cold.bias.tobytes()
        assert cache.evaluation(mdp, result.strategy.rows) is not poisoned

    def test_incumbent_is_freed_before_another_strategy_is_factored(
        self, mdp, monkeypatch, no_cached_factors
    ):
        """At cap 0 the cache hands the factor over: no second factor is built beside it."""
        cache = EvaluationCache()
        incumbent = policy_iteration(mdp, beta_reward_weights(0.0), evaluation_cache=cache)
        alive = weakref.ref(cache.evaluation(mdp, incumbent.strategy.rows))
        alive_at_factorization = []
        splu = spla.splu

        def recording_splu(*args, **kwargs):
            alive_at_factorization.append(alive() is not None)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", recording_splu)
        warm = policy_iteration(
            mdp, beta_reward_weights(0.9), initial_strategy=incumbent.strategy,
            evaluation_cache=cache,
        )
        # The first evaluation reused the incumbent; every later one factored.
        assert warm.iterations >= 2
        assert alive_at_factorization == [False] * (warm.iterations - 1)
        assert alive() is None


@pytest.mark.parametrize("start_from", ["this_model", "sibling_model"])
@pytest.mark.parametrize("depth, forks", [(1, 1), (2, 2)], ids=["d1f1", "d2f2"])
def test_policy_iteration_checks_only_a_start_from_another_model(
    depth, forks, start_from, monkeypatch
):
    """A strategy of this model was checked when built; the greedy step's rows are the solver's own.

    A model of another point of the same skeleton has the same rows, so its
    strategies fit, but they are checked against this model.
    """
    attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
    mdp, sibling = (
        get_model_structure(attack, protocol).instantiate(protocol)
        for protocol in (ProtocolParams(p=0.3, gamma=0.5), ProtocolParams(p=0.2, gamma=0.5))
    )
    start = Strategy.first_action(mdp if start_from == "this_model" else sibling)
    checked = []
    init = Strategy.__init__

    def counting_init(self, model, rows):
        checked.append(model)
        init(self, model, rows)

    monkeypatch.setattr(Strategy, "__init__", counting_init)
    result = policy_iteration(mdp, beta_reward_weights(0.9), initial_strategy=start)
    assert result.iterations >= 3
    assert result.strategy.mdp is mdp
    assert checked == ([] if start_from == "this_model" else [mdp])


def strategies_of(mdp, count):
    """The first-action strategy and ``count - 1`` seeded random ones."""
    return [Strategy.first_action(mdp), *sampled_strategies(mdp, count - 1)]


@pytest.mark.parametrize(
    "depth, forks",
    [(1, 1), (2, 2), pytest.param(3, 2, marks=FULL_ONLY)],
    ids=["d1f1", "d2f2", "d3f2"],
)
def test_a_miss_past_the_cap_frees_every_held_factor(depth, forks, monkeypatch):
    """Under the cap every factor stays; past it the latest is freed before the next is built.

    One ``d=1,f=1`` factor has tens of L+U entries and one ``d>=2,f=2`` factor
    more than the cap, so at ``d=3,f=2`` (133k states) at most one is alive.
    """
    protocol = ProtocolParams(p=0.3, gamma=0.5)
    attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
    mdp = get_model_structure(attack, protocol).instantiate(protocol)
    strategies = strategies_of(mdp, 3)
    cache = EvaluationCache()
    held = []
    alive_at_factorization = []
    splu = spla.splu

    def recording_splu(*args, **kwargs):
        alive_at_factorization.append(sum(ref() is not None for ref in held))
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    for strategy in strategies:
        held.append(weakref.ref(cache.evaluation(mdp, strategy.rows)))
    past_the_cap = forks == 2
    if past_the_cap:
        assert alive_at_factorization == [0, 0, 0]
        assert [ref() is not None for ref in held] == [False, False, True]
    else:
        assert alive_at_factorization == [0, 1, 2]
        assert all(ref() is not None for ref in held)
        monkeypatch.setattr(spla, "splu", _no_factorization)
        for strategy, ref in zip(strategies, held):
            assert cache.evaluation(mdp, strategy.rows) is ref()


class TestRowTable:
    """The per-model table is built once, from copies: solving never writes to the model."""

    @pytest.mark.parametrize("depth,forks", [(1, 1), (2, 2)], ids=["d1f1", "d2f2"])
    def test_solving_never_writes_to_the_model(self, depth, forks, monkeypatch):
        attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
        mdp = build_selfish_forks_mdp(ProtocolParams(p=0.3, gamma=0.5), attack).mdp
        names = ("trans_prob", "trans_succ", "trans_reward", "row_trans_offsets", "row_state")
        before = {name: getattr(mdp, name).tobytes() for name in names}
        built = []
        build = markov_chain._generator_table

        def counting_build(model, expected_rewards):
            built.append(model)
            return build(model, expected_rewards)

        monkeypatch.setattr(markov_chain, "_generator_table", counting_build)
        result = formal_analysis(mdp, AnalysisConfig(epsilon=1e-2))
        evaluate_strategy_errev(mdp, Strategy.first_action(mdp))
        assert result.num_iterations > 1 and result.strategy_errev is not None
        assert len(built) == 1 and built[0] is mdp
        assert {name: getattr(mdp, name).tobytes() for name in names} == before


@pytest.fixture()
def orders_computed(monkeypatch):
    """Count the column orders computed (each is one incomplete factorization)."""
    computed = []
    compute = markov_chain._fill_reducing_rank

    def counting_compute(*args):
        computed.append(args[0])
        return compute(*args)

    monkeypatch.setattr(markov_chain, "_fill_reducing_rank", counting_compute)
    return computed


class TestColumnOrder:
    """One fill-reducing Poisson column order per sparsity pattern, computed on first use."""

    def test_instantiations_of_a_skeleton_share_one_order(self, orders_computed):
        attack = AttackParams(depth=2, forks=1, max_fork_length=4)
        points = [ProtocolParams(p=0.3, gamma=0.5), ProtocolParams(p=0.15, gamma=0.9)]
        structure = SelfishForksStructure.explore(attack, SupportSignature.of(points[0]))
        models = [structure.instantiate(point) for point in points]
        # Neither exploring nor refilling computes the order.
        assert structure.column_order.rank is None
        for mdp in models:
            assert mdp.column_order is structure.column_order
            policy_iteration(mdp, beta_reward_weights(0.3))
        assert orders_computed == [structure.num_states]
        rank = structure.column_order.rank
        assert sorted(rank.tolist()) == list(range(structure.num_states))
        assert not rank.flags.writeable
        # The Poisson template sits beside the order; each model has its own values.
        template = structure.column_order.template
        assert not any(array.flags.writeable for array in template)
        systems = [markov_chain.poisson_system(mdp) for mdp in models]
        assert all(system[0] is template for system in systems)
        assert systems[0][1].tobytes() != systems[1][1].tobytes()

    def test_a_model_without_a_skeleton_orders_its_own_pattern(self, orders_computed):
        mdp, other = stay_or_jump_mdp(), stay_or_jump_mdp()
        for strategy in (Strategy.first_action(mdp), Strategy.from_action_map(mdp, {"a": "jump"})):
            chain = induced_markov_chain(mdp, strategy)
            chain.gain_and_bias(chain.expected_rewards @ [1.0])
        assert orders_computed == [2]
        assert other.column_order is not mdp.column_order and other.column_order.rank is None
        # The stay row's self-loop leaves a diagonal the table keeps, so no entry is pruned.
        assert markov_chain.poisson_system(mdp)[0] is mdp.column_order.template

    @SINGULAR
    @pytest.mark.parametrize("kind", ["leaking", "absorbing"])
    def test_multichain_patterns_are_ordered_and_their_own_factor_raises(self, kind):
        if kind == "leaking":
            mdp = multichain_mdp()
            chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
        else:
            # Every state absorbing: I - P has no entry left at all.
            chain = explicit_chain(sp.identity(3, format="csr"), np.zeros((3, 1)))
        assert sorted(chain.column_rank().tolist()) == list(range(chain.num_states))
        with pytest.raises(SolverError, match="not unichain"):
            chain.poisson_factor()
