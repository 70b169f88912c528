"""The row table and both linear systems of a policy evaluation equal the scipy-arithmetic oracle.

Every model's row table (:func:`repro.mdp.markov_chain.row_table`), its
probabilities summed into the skeleton's pattern of ``E - P``, must equal
:func:`chain_oracle.generator_rows`, the scipy subtraction it replaced, in
``indptr``, ``indices`` and ``data`` bytes, dtypes included: on every
``(depth, forks)`` up to ``(3,1)`` at five ``p`` and three ``gamma``, on
chains of explicit matrices (models with one row per state, their last state
initial, so the Poisson system pins a state other than 0), and with
``REPRO_FULL=1`` on the ``d=3,f=2`` model at three ``p``.

:class:`repro.mdp.MarkovChain` gathers an induced chain's generator ``I - P``
from the model's row table and assembles the Poisson and stationary matrices
directly as CSC arrays, the Poisson system's columns already in the model's
cached order; :mod:`chain_oracle` builds them the way it replaced, through
``(I - P)`` and ``(P^T - I)``, COO and ``tocsc``, and permutes the Poisson
columns by scipy indexing.  For seeded random strategies the two must hand
SuperLU the same ``indptr``, ``indices`` (dtype included) and ``data`` bytes,
and the same expected rewards; the gain and bias must agree within 1e-12 with
a factorization of the unpermuted system under SuperLU's own COLAMD order.  The cases cover a
repeated successor (``d=1,f=1``), a larger model (``d=2,f=2``), the ``p=0``
model (its support signature drops the adversary's transitions, leaving a
2-state cycle of probability-1 moves), and a toy model whose explicit zero
probability and probability-1 self-loop make scipy prune entries of ``I - P``.
The ``d=3,f=2`` model (133k states) runs with ``REPRO_FULL=1``.

The Poisson matrix is masked out of its skeleton's template
(:func:`repro.mdp.markov_chain.poisson_system`), so the grid test compares it
with the oracle at every point of the Figure 2 grid, for ``d=1,f=1``,
``d=2,f=1`` and ``d=2,f=2``, under the first-action strategy, two sampled ones
and the strategy Algorithm 1 certifies there: every skeleton those models
have, and every model's own values.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import scipy.sparse as sp

from chain_oracle import (
    explicit_chain,
    gain_and_bias,
    generator_rows,
    induced_transition_matrix,
    poisson_matrix,
    stationary_matrix,
)
from repro import AnalysisConfig, AttackParams, ProtocolParams, SweepConfig
from repro.analysis import beta_reward_weights, formal_analysis
from repro.attacks import build_selfish_forks_mdp, get_model_structure
from repro.mdp import MDP, Strategy, induced_markov_chain
from repro.mdp.markov_chain import poisson_system, row_table

FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
FULL_ONLY = pytest.mark.skipif(not FULL, reason="the d=3,f=2 model is large; set REPRO_FULL=1")


def selfish_forks(depth, forks, p=0.3):
    attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
    return build_selfish_forks_mdp(ProtocolParams(p=p, gamma=0.5), attack).mdp


def toy_with_zero_and_self_loop():
    """Three states: state 2 loops on itself with probability 1, state 0 lists a 0.0."""
    return MDP(
        num_states=3,
        initial_state=0,
        row_state=np.array([0, 0, 1, 2]),
        state_row_offsets=np.array([0, 2, 3, 4]),
        row_trans_offsets=np.array([0, 3, 4, 6, 7]),
        trans_succ=np.array([2, 1, 0, 1, 0, 2, 2]),
        trans_prob=np.array([0.25, 0.0, 0.75, 1.0, 0.5, 0.5, 1.0]),
        trans_reward=np.arange(14, dtype=float).reshape(7, 2),
        row_actions=["a", "b", "c", "d"],
    )


#: ``(builder, number of sampled strategies)``.
MODELS = {
    "d1f1": (lambda: selfish_forks(1, 1), 10),
    "d2f2": (lambda: selfish_forks(2, 2), 10),
    "p0": (lambda: selfish_forks(2, 2, p=0.0), 3),
    "toy": (toy_with_zero_and_self_loop, 4),
    "d3f2": (lambda: selfish_forks(3, 2), 2),
}


def sampled(mdp, count, seed=24):
    rng = np.random.default_rng(seed)
    counts = np.diff(mdp.state_row_offsets)
    return [
        Strategy(mdp, mdp.state_row_offsets[:-1] + rng.integers(0, counts)) for _ in range(count)
    ]


def assert_same_arrays(actual, expected):
    """Equal ``indptr``, ``indices`` and ``data``: dtypes and bytes."""
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def assert_same_csc(actual, expected):
    assert actual.format == expected.format == "csc"
    assert actual.shape == expected.shape
    assert_same_arrays(actual, expected)


ROW_TABLE_SIZES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]
ROW_TABLE_POINTS = [(p, gamma) for p in (0.0, 0.05, 0.2, 0.3, 0.45) for gamma in (0.0, 0.5, 1.0)]
ROW_TABLE_MODELS = [
    pytest.param(depth, forks, p, gamma, id=f"d{depth}f{forks}-p{p}-g{gamma}")
    for depth, forks in ROW_TABLE_SIZES
    for p, gamma in ROW_TABLE_POINTS
] + [
    # One skeleton: the later models sum into the pattern the first one computed.
    pytest.param(3, 2, p, 0.5, id=f"d3f2-p{p}-g0.5", marks=FULL_ONLY)
    for p in (0.05, 0.3, 0.45)
]


@pytest.mark.parametrize("depth,forks,p,gamma", ROW_TABLE_MODELS)
def test_row_table_equals_the_scipy_subtraction_bit_for_bit(depth, forks, p, gamma):
    protocol = ProtocolParams(p=p, gamma=gamma)
    attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
    structure = get_model_structure(attack, protocol)
    mdp = structure.instantiate(protocol)
    table = row_table(mdp)
    rows, expected = generator_rows(mdp)
    assert_same_arrays(table, rows)
    assert table.expected_rewards.dtype == expected.dtype
    assert table.expected_rewards.tobytes() == expected.tobytes()
    # A table that pruned nothing shares the skeleton's read-only index arrays.
    pattern = structure.column_order.pattern
    shared = table.indptr is pattern.indptr and table.indices is pattern.indices
    assert shared == (rows.nnz == len(pattern.indices))
    assert not (pattern.indptr.flags.writeable or pattern.indices.flags.writeable)


#: Explicit transition matrices: merged, pruned, and with nothing left at all.
EXPLICIT_MATRICES = {
    "two_state": sp.csr_matrix(np.array([[0.3, 0.7], [0.6, 0.4]])),
    # Row 0 lists successor 1 twice and out of order.
    "repeated_successor": sp.csr_matrix(
        (np.array([0.25, 0.5, 0.25, 1.0, 0.5, 0.5]), np.array([1, 0, 1, 2, 0, 2]), [0, 3, 4, 6]),
        shape=(3, 3),
    ),
    # An explicit 0.0 off the diagonal and a probability-1 self-loop.
    "zero_and_self_loop": sp.csr_matrix(
        (np.array([0.0, 0.2, 0.8, 1.0, 1.0]), np.array([2, 0, 1, 1, 0]), [0, 3, 4, 5]),
        shape=(3, 3),
    ),
    "absorbing": sp.identity(3, format="csr"),
}


@pytest.mark.parametrize("name", list(EXPLICIT_MATRICES))
def test_explicit_matrix_row_table_equals_the_scipy_subtraction(name):
    matrix = EXPLICIT_MATRICES[name]
    n = matrix.shape[0]
    rewards = np.arange(2.0 * n).reshape(-1, 2) / 3.0
    chain = explicit_chain(matrix, rewards, initial_state=n - 1)
    mdp = chain._mdp
    table = row_table(mdp)
    rows, expected = generator_rows(mdp)
    assert_same_arrays(table, rows)
    assert table.expected_rewards.tobytes() == expected.tobytes()
    assert np.allclose(expected, rewards, rtol=1e-15, atol=0.0)
    pruned = len(mdp.column_order.pattern.indices) - rows.nnz
    assert pruned == {"zero_and_self_loop": 2, "absorbing": 3}.get(name, 0)
    oracle_matrix, _ = induced_transition_matrix(mdp, np.arange(n))
    assert_same_csc(
        chain.poisson_matrix(), poisson_matrix(oracle_matrix, n - 1, chain.column_rank())
    )


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(name, marks=[FULL_ONLY] if name == "d3f2" else []) for name in MODELS
    ],
)
def case(request):
    build, count = MODELS[request.param]
    mdp = build()
    return request.param, mdp, [Strategy.first_action(mdp), *sampled(mdp, count)]


def test_systems_equal_the_oracle_bit_for_bit(case):
    _, mdp, strategies = case
    for strategy in strategies:
        chain = induced_markov_chain(mdp, strategy)
        matrix, expected = induced_transition_matrix(mdp, strategy.rows)
        assert chain.expected_rewards.tobytes() == expected.tobytes()
        assert_same_csc(
            chain.poisson_matrix(),
            poisson_matrix(matrix, mdp.initial_state, chain.column_rank()),
        )
        assert_same_csc(chain.stationary_matrix(), stationary_matrix(matrix))


def test_template_is_the_skeletons_unless_the_table_pruned_an_entry(case):
    name, mdp, _ = case
    system = poisson_system(mdp)
    assert (system[0] is mdp.column_order.template) == (name != "toy")
    # The model gathers its values once.
    assert poisson_system(mdp) is system


GRID_ATTACKS = {
    "d1f1": AttackParams(depth=1, forks=1, max_fork_length=4),
    "d2f1": AttackParams(depth=2, forks=1, max_fork_length=4),
    "d2f2": AttackParams(depth=2, forks=2, max_fork_length=4),
}


@pytest.mark.parametrize("name", list(GRID_ATTACKS))
def test_figure2_grid_poisson_systems_equal_the_oracle(name):
    grid = SweepConfig()
    skeletons = set()
    for gamma in grid.gammas:
        for p in grid.p_values:
            protocol = ProtocolParams(p=p, gamma=gamma)
            structure = get_model_structure(GRID_ATTACKS[name], protocol)
            mdp = structure.instantiate(protocol)
            certified = formal_analysis(mdp, AnalysisConfig(epsilon=1e-3)).strategy
            for strategy in [Strategy.first_action(mdp), *sampled(mdp, 2), certified]:
                chain = induced_markov_chain(mdp, strategy)
                matrix, _ = induced_transition_matrix(mdp, strategy.rows)
                assert_same_csc(
                    chain.poisson_matrix(),
                    poisson_matrix(matrix, mdp.initial_state, chain.column_rank()),
                )
            assert poisson_system(mdp)[0] is structure.column_order.template
            skeletons.add(id(structure))
    # p = 0 drops the adversary's transitions, gamma 0 and 1 drop one race branch.
    assert len(skeletons) == 6


def test_gain_and_bias_agree_with_a_colamd_factorization(case):
    _, mdp, strategies = case
    weights = beta_reward_weights(0.3)
    for strategy in strategies:
        chain = induced_markov_chain(mdp, strategy)
        matrix, expected = induced_transition_matrix(mdp, strategy.rows)
        gain, bias = chain.gain_and_bias(chain.expected_rewards @ weights)
        want_gain, want_bias = gain_and_bias(matrix, expected @ weights, mdp.initial_state)
        assert abs(gain - want_gain) <= 1e-12
        assert np.max(np.abs(bias - want_bias)) <= 1e-12


def test_cases_exercise_merging_and_pruning(case):
    """Each small case really has what it is listed for."""
    name, mdp, strategies = case
    merged = pruned = zeros = 0
    for strategy in strategies:
        matrix, _ = induced_transition_matrix(mdp, strategy.rows)
        merged += int(np.diff(mdp.row_trans_offsets)[strategy.rows].sum()) - matrix.nnz
        pruned += int(np.count_nonzero(matrix.diagonal() == 1.0))
        zeros += int(np.count_nonzero(matrix.data == 0.0))
    if name == "d1f1":
        assert merged > 0
    if name == "toy":
        assert pruned > 0 and zeros > 0
