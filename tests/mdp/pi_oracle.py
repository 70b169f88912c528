"""Howard policy iteration with the per-round work it did before the loop was stripped.

:func:`repro.mdp.policy_iteration` forms one reward vector per solve from the
model's row table, gathers each round's Poisson right-hand side from it by the
chosen rows, learns from its greedy step whether a row switched, and checks a
strategy against its model only once.  This oracle keeps the old loop: the
expected reward of every row summed over its transitions
(:func:`expected_row_rewards`), a right-hand side formed again from the
chain's own ``(n, k)`` reward matrix and the weights in every evaluation, the
old greedy step, a fresh ``Strategy`` check of every round's rows, and
``np.array_equal`` between consecutive row choices as the stopping test.  Every
round factors its chain afresh; refactoring the same rows gives the same
factor bit for bit, so that changes no value.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.mdp import MDP, Strategy, induced_markov_chain

#: A row switches only if it beats the chosen row by more than this.
THRESHOLD = 1e-9


def expected_row_rewards(mdp: MDP, weights: Sequence[float]) -> np.ndarray:
    """The expected immediate reward of every row: transition rewards weighted, then summed."""
    scalar = mdp.trans_reward @ np.asarray(weights, dtype=float)
    return np.add.reduceat(scalar * mdp.trans_prob, mdp.row_trans_offsets[:-1])


def greedy_improvement(
    mdp: MDP, row_rewards: np.ndarray, bias: np.ndarray, current_rows: np.ndarray
) -> np.ndarray:
    """Improved row choices; ties are broken in favour of the incumbent."""
    continuation = mdp.trans_prob * bias[mdp.trans_succ]
    row_values = row_rewards + np.add.reduceat(continuation, mdp.row_trans_offsets[:-1])
    state_best = np.maximum.reduceat(row_values, mdp.state_row_offsets[:-1])
    new_rows = current_rows.copy()
    improvable = state_best > row_values[current_rows] + THRESHOLD
    if not np.any(improvable):
        return new_rows
    is_best = row_values >= state_best[mdp.row_state] - 1e-12
    candidate_rows = np.arange(mdp.num_rows)[is_best]
    candidate_states = mdp.row_state[is_best]
    best_rows = np.full(mdp.num_states, -1, dtype=np.int64)
    best_rows[candidate_states[::-1]] = candidate_rows[::-1]
    new_rows[improvable] = best_rows[improvable]
    return new_rows


def rounds(
    mdp: MDP, weights: Sequence[float], initial_rows: np.ndarray
) -> Iterator[Tuple[float, np.ndarray]]:
    """Yield the gain and the greedy rows of every round, up to and including the fixed point."""
    weights = np.asarray(weights, dtype=float)
    row_rewards = expected_row_rewards(mdp, weights)
    rows = np.array(initial_rows, dtype=np.int64)
    while True:
        chain = induced_markov_chain(mdp, Strategy(mdp, rows))
        gain, bias = chain.gain_and_bias(chain.expected_rewards @ weights)
        new_rows = greedy_improvement(mdp, row_rewards, bias, rows)
        yield gain, new_rows
        if np.array_equal(new_rows, rows):
            return
        rows = new_rows
