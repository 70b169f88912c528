"""Every Poisson factorization of a search builds its matrix in the search's one container.

:class:`repro.mdp.EvaluationCache` hands ``splu`` one CSC container per
search, refilled through its public arrays and flagged canonical, so scipy's
constructor checks never run.  Every factorization of every Algorithm 1
search at the Figure 2 grid points of ``d=1,f=1`` and ``d=2,f=1``, and at the
six ``point-d2f2`` benchmark points, must hand over a matrix that

- scipy, recomputing from copies of its arrays, finds canonical;
- factors exactly as ``splu`` of a fresh ``csc_matrix`` of those copies under
  the same options: ``solve`` bit for bit, ``perm_c``, ``perm_r`` and ``nnz``;

and the previous factor's ``solve`` must be unchanged bit for bit after the
container is refilled and factored again.
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
            copies = sp.csc_matrix(
                (matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy()),
                shape=matrix.shape,
            )
            assert copies.has_canonical_format
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


@pytest.mark.parametrize("name", list(SEARCHES))
def test_every_search_factors_in_one_reused_container(name, monkeypatch):
    (depth, forks), points = SEARCHES[name]
    checker = FactorChecker(monkeypatch)
    factorizations = 0
    for gamma, p in points:
        checker.matrices.clear()
        formal_analysis(model(depth, forks, gamma, p), AnalysisConfig(epsilon=1e-3))
        first = checker.matrices[0]
        assert all(matrix is first for matrix in checker.matrices)
        factorizations += len(checker.matrices)
    assert factorizations >= 2 * len(points)


def test_a_factor_without_a_cache_gets_a_fresh_container():
    mdp = model(2, 1, gamma=0.5, p=0.3)
    chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
    first = chain.poisson_matrix()
    data = first.data.copy()
    second = chain.poisson_matrix()
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
