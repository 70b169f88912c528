"""Every Poisson factorization and stationary solve runs in the thread's container of its size.

:meth:`repro.mdp.MarkovChain.poisson_factor` hands ``splu``, and
:meth:`~repro.mdp.MarkovChain.stationary_distribution` hands ``spsolve``, the
calling thread's CSC container of the system's size
(:func:`repro.mdp.markov_chain.thread_container`), refilled through its
public arrays and flagged canonical, so scipy's constructor checks never run.
Every factorization and every stationary solve of every Algorithm 1 search at
the Figure 2 grid points of ``d=1,f=1`` and ``d=2,f=1``, and at the six
``point-d2f2`` benchmark points, must hand over a matrix that

- scipy, recomputing from copies of its arrays, finds canonical;
- factors exactly as ``splu`` of a fresh ``csc_matrix`` of those copies under
  the same options: ``solve`` bit for bit, ``perm_c``, ``perm_r`` and ``nnz``;
  or solves exactly as ``spsolve`` of that fresh matrix, bit for bit;

every system of one size in one thread must be the same container, the
previous factor's ``solve`` must be unchanged bit for bit after the container
is refilled and factored again, and the container must hold no arrays once the
solver returns.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import AnalysisConfig, AttackParams, ProtocolParams, SweepConfig
from repro.analysis import beta_reward_weights, formal_analysis
from repro.attacks import get_model_structure
from repro.mdp import EvaluationCache, Strategy, induced_markov_chain, policy_iteration
from repro.mdp.markov_chain import thread_container

FIGURE2 = SweepConfig()
FIGURE2_POINTS = [(gamma, p) for gamma in FIGURE2.gammas for p in FIGURE2.p_values]
#: The ``point-d2f2`` benchmark inputs at its default seed, as ``(gamma, p)``.
D2F2_POINTS = [(gamma, p) for gamma in (0.5, 1.0) for p in (0.1, 0.2, 0.3)]
SEARCHES = {
    "d1f1": ((1, 1), FIGURE2_POINTS),
    "d2f1": ((2, 1), FIGURE2_POINTS),
    "d2f2": ((2, 2), D2F2_POINTS),
}


def model(depth, forks, gamma, p):
    protocol = ProtocolParams(p=p, gamma=gamma)
    attack = AttackParams(depth=depth, forks=forks, max_fork_length=4)
    return get_model_structure(attack, protocol).instantiate(protocol)


class FactorChecker:
    """Check every ``splu`` call against a factor of fresh copies, and the call before it."""

    def __init__(self, monkeypatch):
        self.matrices = []
        self.previous = None
        self.rng = np.random.default_rng(35)
        splu = spla.splu

        def checking_splu(matrix, **options):
            copies = fresh_copy(matrix)
            factor = splu(matrix, **options)
            fresh = splu(copies, **options)
            rhs = self.rng.standard_normal(matrix.shape[0])
            solution = factor.solve(rhs)
            assert solution.tobytes() == fresh.solve(rhs).tobytes()
            assert np.array_equal(factor.perm_c, fresh.perm_c)
            assert np.array_equal(factor.perm_r, fresh.perm_r)
            assert factor.nnz == fresh.nnz
            if self.previous is not None:
                earlier, earlier_rhs, earlier_solution = self.previous
                assert earlier.solve(earlier_rhs).tobytes() == earlier_solution.tobytes()
            self.previous = (factor, rhs, solution)
            self.matrices.append(matrix)
            return factor

        monkeypatch.setattr(spla, "splu", checking_splu)


def fresh_copy(matrix):
    """A ``csc_matrix`` built by scipy's constructor from copies of ``matrix``'s arrays."""
    copies = sp.csc_matrix(
        (matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy()), shape=matrix.shape
    )
    assert copies.has_canonical_format  # recomputed from the arrays, not copied from a flag
    return copies


def assert_emptied(container):
    assert container.data.size == container.indices.size == container.indptr.size == 0


class StationaryChecker:
    """Check every ``spsolve`` call against a solve of fresh copies, and its container."""

    def __init__(self, monkeypatch):
        self.containers = {}
        self.solves = 0
        spsolve = spla.spsolve

        def checking_spsolve(matrix, rhs, *args, **kwargs):
            assert self.containers.setdefault(matrix.shape, matrix) is matrix
            assert matrix is thread_container(matrix.shape[0])
            copies = fresh_copy(matrix)
            solution = spsolve(matrix, rhs, *args, **kwargs)
            assert solution.tobytes() == spsolve(copies, rhs, *args, **kwargs).tobytes()
            self.solves += 1
            return solution

        monkeypatch.setattr(spla, "spsolve", checking_spsolve)


@pytest.mark.parametrize("name", list(SEARCHES))
def test_every_stationary_solve_runs_in_the_threads_container(name, monkeypatch):
    (depth, forks), points = SEARCHES[name]
    checker = StationaryChecker(monkeypatch)
    for gamma, p in points:
        result = formal_analysis(model(depth, forks, gamma, p), AnalysisConfig(epsilon=1e-3))
        assert result.strategy_errev is not None
    assert checker.solves == len(points)
    for container in checker.containers.values():
        assert_emptied(container)


def test_the_fresh_stationary_matrix_is_no_container():
    mdp = model(2, 1, gamma=0.5, p=0.3)
    chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
    container = thread_container(mdp.num_states)
    first, second = chain.stationary_matrix(), chain.stationary_matrix()
    assert first is not container and second is not first
    assert first.data.tobytes() == second.data.tobytes()
    assert_emptied(container)


@pytest.mark.parametrize("name", list(SEARCHES))
def test_every_search_factors_in_one_reused_container(name, monkeypatch):
    (depth, forks), points = SEARCHES[name]
    checker = FactorChecker(monkeypatch)
    factorizations = 0
    for gamma, p in points:
        checker.matrices.clear()
        mdp = model(depth, forks, gamma, p)
        formal_analysis(mdp, AnalysisConfig(epsilon=1e-3))
        first = checker.matrices[0]
        assert first is thread_container(mdp.num_states + 1)
        assert all(matrix is first for matrix in checker.matrices)
        assert_emptied(first)
        factorizations += len(checker.matrices)
    assert factorizations >= 2 * len(points)


def test_a_poisson_matrix_without_a_container_is_fresh():
    mdp = model(2, 1, gamma=0.5, p=0.3)
    chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
    first = chain.poisson_matrix()
    data = first.data.copy()
    second = chain.poisson_matrix()
    assert first is not thread_container(mdp.num_states + 1)
    assert second is not first
    assert first.data.tobytes() == data.tobytes()
    assert second.data.tobytes() == data.tobytes()


def test_a_cache_reused_on_a_model_of_another_size_gets_a_container_of_that_size():
    weights = beta_reward_weights(0.3)
    small, large = model(1, 1, gamma=0.5, p=0.3), model(2, 1, gamma=0.5, p=0.3)
    cache = EvaluationCache()
    policy_iteration(small, weights, evaluation_cache=cache)
    shared = policy_iteration(large, weights, evaluation_cache=cache)
    alone = policy_iteration(large, weights)
    assert shared.gain == alone.gain
    assert shared.bias.tobytes() == alone.bias.tobytes()
