"""Brute-force reference for the structural premise checks: every positional strategy.

:func:`repro.mdp.unavoidable_state` decides by end-component pruning whether
every strategy's chain has one recurrent class through a common state.  This
oracle checks that claim the slow way, on models small enough to enumerate:
it builds the chain of every positional strategy as a dense matrix and takes
the reflexive-transitive closure of its graph, all strategies at once in
numpy.
"""

from __future__ import annotations

import numpy as np


def all_strategies(mdp) -> np.ndarray:
    """Every positional strategy as one row choice per state, shape ``(strategies, states)``."""
    offsets = mdp.state_row_offsets
    choices = [np.arange(offsets[state], offsets[state + 1]) for state in range(mdp.num_states)]
    grids = np.meshgrid(*choices, indexing="ij")
    return np.stack([grid.ravel() for grid in grids], axis=1)


def transition_matrices(mdp, strategies: np.ndarray) -> np.ndarray:
    """The dense transition matrix of each strategy's chain, shape ``(strategies, n, n)``."""
    dense_rows = np.zeros((mdp.num_rows, mdp.num_states))
    trans_row = np.repeat(np.arange(mdp.num_rows), np.diff(mdp.row_trans_offsets))
    np.add.at(dense_rows, (trans_row, mdp.trans_succ), mdp.trans_prob)
    return dense_rows[strategies]


def reach(matrices: np.ndarray) -> np.ndarray:
    """``reach[k, i, j]``: state ``j`` is reachable from ``i`` in chain ``k`` (``i`` included)."""
    closure = (matrices > 0) | np.eye(matrices.shape[-1], dtype=bool)
    while True:
        as_float = closure.astype(np.float64)
        wider = (as_float @ as_float) > 0
        if np.array_equal(wider, closure):
            return closure
        closure = wider


def recurrent(closure: np.ndarray) -> np.ndarray:
    """``recurrent[k, i]``: state ``i`` lies in a bottom SCC of chain ``k``."""
    return np.all(~closure | np.swapaxes(closure, -1, -2), axis=-1)


def num_recurrent_classes(closure: np.ndarray) -> np.ndarray:
    """The number of bottom SCCs of each chain.

    A recurrent state reaches exactly its own class, so it is the smallest
    state of its class when it reaches no smaller state.
    """
    n = closure.shape[-1]
    reaches_smaller = np.any(closure & np.tri(n, k=-1, dtype=bool), axis=-1)
    return np.sum(recurrent(closure) & ~reaches_smaller, axis=-1)


def avoidable(closure: np.ndarray) -> np.ndarray:
    """``avoidable[k, t]``: chain ``k`` has a bottom SCC without state ``t``."""
    return np.any(recurrent(closure)[:, :, None] & ~closure, axis=1)


def long_run_rates(mdp, strategies: np.ndarray, weights) -> np.ndarray:
    """Each unichain strategy's long-run weighted reward rate, from its stationary distribution."""
    matrices = transition_matrices(mdp, strategies)
    n = mdp.num_states
    system = np.swapaxes(matrices, -1, -2) - np.eye(n)
    system[:, -1, :] = 1.0
    rhs = np.zeros((len(strategies), n, 1))
    rhs[:, -1, 0] = 1.0
    stationary = np.linalg.solve(system, rhs)[:, :, 0]
    trans_value = mdp.trans_prob * (mdp.trans_reward @ np.asarray(weights, dtype=float))
    row_value = np.add.reduceat(trans_value, mdp.row_trans_offsets[:-1])
    return np.sum(stationary * row_value[strategies], axis=1)
