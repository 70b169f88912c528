"""Reference assembly of a policy evaluation's row table and two sparse linear systems.

:func:`explicit_chain` builds the chain of an explicit transition matrix the
only way :class:`repro.mdp.MarkovChain` is built: as a model, with one row per
state.

:func:`repro.mdp.markov_chain.row_table` sums each model's probabilities into
its skeleton's pattern of ``E - P``; :func:`generator_rows` is the scipy
subtraction it replaced, and ``test_chain_oracle.py`` asserts that both give
the same arrays, bit for bit.

:class:`repro.mdp.markov_chain.MarkovChain` builds the Poisson and stationary
systems of an induced chain directly as CSC arrays, gathered from a per-model
table of ``E - P`` rows.  This module keeps the construction it replaced,
written with scipy sparse arithmetic: gather the chosen rows of the MDP into a
CSR ``P`` and merge duplicate successors, then form ``(I - P)`` or
``(P^T - I)``, go through COO to add the extra entries, and convert to CSC.
The Poisson system's columns are then permuted into the chain's column order
with scipy's column indexing.  ``test_chain_oracle.py`` asserts that both
constructions hand SuperLU the same arrays, bit for bit.  :func:`gain_and_bias`
solves the unpermuted system under SuperLU's own per-matrix COLAMD order.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.mdp import MDP, MarkovChain


def explicit_chain(transition_matrix, expected_rewards, initial_state: int = 0) -> MarkovChain:
    """The chain of a row-stochastic ``(n, n)`` matrix: a model with one row per state.

    Duplicate successors are merged and explicit zeros kept.  Every transition
    out of state ``s`` carries the reward vector ``expected_rewards[s]``, so
    the chain's expected rewards are ``expected_rewards`` up to the rounding
    of each row's probability sum.
    """
    matrix = sp.csr_matrix(transition_matrix, copy=True)
    matrix.sum_duplicates()
    n = matrix.shape[0]
    rewards = np.asarray(expected_rewards, dtype=float)
    mdp = MDP(
        num_states=n,
        initial_state=initial_state,
        row_state=np.arange(n),
        state_row_offsets=np.arange(n + 1),
        row_trans_offsets=matrix.indptr.astype(np.int64),
        trans_succ=matrix.indices.astype(np.int64),
        trans_prob=matrix.data,
        trans_reward=np.repeat(rewards, np.diff(matrix.indptr), axis=0),
        row_actions=[None] * n,
    )
    return MarkovChain(mdp, np.arange(n))


def generator_rows(mdp, expected_rewards=None) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Rows ``E - P`` of every row of ``mdp``, with ``E[r, owner of r] = 1``, and their rewards.

    ``P`` is the CSR of every row's transitions with duplicate successors
    merged; the rewards are ``expected_rewards``, or each row's probability-
    weighted transition rewards.
    """
    # Copies: csr_matrix keeps the buffers it is given, and sum_duplicates()
    # rewrites them in place.
    probabilities = sp.csr_matrix(
        (mdp.trans_prob.copy(), mdp.trans_succ.copy(), mdp.row_trans_offsets.copy()),
        shape=(mdp.num_rows, mdp.num_states),
    )
    probabilities.sum_duplicates()
    count = mdp.num_rows
    own = sp.csr_matrix(
        (np.ones(count), mdp.row_state, np.arange(count + 1)), shape=probabilities.shape
    )
    if expected_rewards is None:
        expected_rewards = np.add.reduceat(
            mdp.trans_prob[:, None] * mdp.trans_reward, mdp.row_trans_offsets[:-1], axis=0
        )
    return own - probabilities, np.asarray(expected_rewards)


def induced_transition_matrix(mdp, rows: np.ndarray) -> Tuple[sp.csr_matrix, np.ndarray]:
    """The chain of ``rows``: its CSR transition matrix and expected reward vectors."""
    n = mdp.num_states
    starts = mdp.row_trans_offsets[rows]
    lengths = mdp.row_trans_offsets[rows + 1] - starts
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    picked = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    probs = mdp.trans_prob[picked]
    expected = np.add.reduceat(probs[:, None] * mdp.trans_reward[picked], indptr[:-1], axis=0)
    matrix = sp.csr_matrix((probs, mdp.trans_succ[picked], indptr), shape=(n, n))
    matrix.sum_duplicates()
    return matrix, expected


def poisson_matrix(
    transition_matrix: sp.csr_matrix, reference_state: int, rank: np.ndarray
) -> sp.csc_matrix:
    """``h + g = r + P h`` with ``h[ref] = 0``: ``h[s]`` in column ``rank[s]``, ``g`` in n."""
    n = transition_matrix.shape[0]
    poisson = (sp.identity(n, format="csr") - transition_matrix).tocoo()
    data = np.concatenate([poisson.data, np.ones(n), [1.0]])
    row = np.concatenate([poisson.row, np.arange(n), [n]])
    col = np.concatenate([poisson.col, np.full(n, n), [reference_state]])
    natural = sp.coo_matrix((data, (row, col)), shape=(n + 1, n + 1)).tocsc()
    columns = np.append(np.argsort(rank), n)
    return natural[:, columns]


def gain_and_bias(
    transition_matrix: sp.csr_matrix, rewards: np.ndarray, reference_state: int
) -> Tuple[float, np.ndarray]:
    """``(g, h)`` of the Poisson system in natural column order, factored under COLAMD."""
    n = transition_matrix.shape[0]
    system = poisson_matrix(transition_matrix, reference_state, np.arange(n))
    solution = spla.splu(system).solve(np.append(rewards, 0.0))
    return float(solution[n]), solution[:n]


def stationary_matrix(transition_matrix: sp.csr_matrix) -> sp.csc_matrix:
    """``(P^T - I) pi = 0`` with its last equation replaced by ``sum(pi) = 1``."""
    n = transition_matrix.shape[0]
    balance = (transition_matrix.T - sp.identity(n, format="csr")).tocoo()
    keep = balance.row != n - 1
    data = np.concatenate([balance.data[keep], np.ones(n)])
    row = np.concatenate([balance.row[keep], np.full(n, n - 1)])
    col = np.concatenate([balance.col[keep], np.arange(n)])
    return sp.coo_matrix((data, (row, col)), shape=(n, n)).tocsc()
