"""Linear-programming formulation of the unichain mean-payoff MDP problem.

The primal LP (Puterman 1994, Section 9.3) over variables ``g`` (gain) and
``h`` (bias) is::

    minimise    g
    subject to  g + h(s) - sum_{s'} P(s'|s,a) h(s')  >=  r(s, a)     for all (s, a)

For unichain MDPs its optimal value equals the optimal mean payoff.  The LP is
solved with scipy's HiGHS backend.  No certified path solves an LP: this is a
test oracle, an independent cross-check of policy and value iteration on small
and medium models (``tests/mdp`` and ``tests/analysis`` import it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.exceptions import SolverError
from repro.mdp import MDP, Strategy
from repro.mdp.markov_chain import row_table


@dataclass
class LinearProgramResult:
    """Result of the LP-based mean-payoff solver.

    Attributes:
        gain: Optimal mean payoff (the LP optimum).
        bias: Bias vector from the LP solution.
        strategy: Greedy strategy extracted from the bias vector.
        status: Solver status string reported by scipy.
    """

    gain: float
    bias: np.ndarray
    strategy: Strategy
    status: str


def solve_mean_payoff_lp(mdp: MDP, reward_weights: Sequence[float]) -> LinearProgramResult:
    """Solve the mean-payoff MDP via linear programming.

    Args:
        mdp: The model to solve (assumed unichain under every strategy).
        reward_weights: Weights combining reward components into the scalar
            reward being maximised.

    Raises:
        SolverError: If the LP solver does not report success.
    """
    num_states = mdp.num_states
    num_rows = mdp.num_rows
    row_rewards = row_table(mdp).expected_rewards @ np.asarray(reward_weights, dtype=float)

    # Variables: x = [g, h_0, ..., h_{n-1}].
    # Constraint per row: -g - h(s) + sum P h(s') <= -r(s, a).
    gain_column = -np.ones((num_rows, 1))
    owner = sp.csr_matrix(
        (np.ones(num_rows), (np.arange(num_rows), mdp.row_state)),
        shape=(num_rows, num_states),
    )
    trans_rows = np.repeat(
        np.arange(num_rows), np.diff(mdp.row_trans_offsets)
    )
    successor = sp.csr_matrix(
        (mdp.trans_prob, (trans_rows, mdp.trans_succ)), shape=(num_rows, num_states)
    )
    a_ub = sp.hstack([sp.csr_matrix(gain_column), successor - owner], format="csr")
    b_ub = -row_rewards

    cost = np.zeros(num_states + 1)
    cost[0] = 1.0  # minimise the gain variable
    bounds = [(None, None)] * (num_states + 1)

    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise SolverError(f"mean-payoff LP failed: {result.message}")

    gain = float(result.x[0])
    bias = np.asarray(result.x[1:], dtype=float)

    # Extract a greedy strategy with respect to the LP bias vector.
    continuation = mdp.trans_prob * bias[mdp.trans_succ]
    row_values = row_rewards + np.add.reduceat(continuation, mdp.row_trans_offsets[:-1])
    state_best = np.maximum.reduceat(row_values, mdp.state_row_offsets[:-1])
    is_best = row_values >= state_best[mdp.row_state] - 1e-9
    best_rows = np.full(num_states, -1, dtype=np.int64)
    row_indices = np.arange(num_rows)
    candidate_rows = row_indices[is_best]
    candidate_states = mdp.row_state[is_best]
    best_rows[candidate_states[::-1]] = candidate_rows[::-1]

    return LinearProgramResult(
        gain=gain,
        bias=bias,
        strategy=Strategy(mdp, best_rows),
        status=str(result.message),
    )
