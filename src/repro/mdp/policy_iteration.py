"""Howard policy iteration for unichain mean-payoff MDPs.

Each iteration evaluates the current positional strategy exactly (gain / bias via
a sparse linear solve on the induced Markov chain) and then improves it greedily.
For unichain models the procedure terminates after finitely many iterations with
an optimal positional strategy and the exact optimal gain, which makes it the
default solver of the formal analysis.

A strategy's Poisson matrix does not depend on the reward weights, so the
evaluation of the strategy being improved -- its rows, induced chain and sparse
LU factor, one :class:`PolicyEvaluation` -- can outlive the solve.  A caller
that solves the same model again under other weights hands it over in an
:class:`EvaluationSlot`: the solve takes the incumbent out of the slot, reuses it
only while its rows equal the rows being evaluated, frees it before factoring
another strategy, and puts the final strategy's evaluation back.  At most one
factor is therefore alive at a time, and reuse never changes a value, only the
number of factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from ..exceptions import ConvergenceError
from .markov_chain import MarkovChain, induced_markov_chain
from .model import MDP
from .strategy import Strategy


@dataclass
class PolicyEvaluation:
    """A strategy's induced chain with its Poisson system factored once.

    Attributes:
        rows: The evaluated row choices (one per state).
        chain: The Markov chain induced by ``rows``.
        factor: ``chain.poisson_factor`` at the model's initial state.
    """

    rows: np.ndarray
    chain: MarkovChain
    factor: spla.SuperLU


@dataclass
class EvaluationSlot:
    """Holds at most one :class:`PolicyEvaluation` between solves of one model.

    The owner keeps the slot and passes it to every solve; the slot is the only
    reference to the evaluation, so emptying or dropping it frees the factor.
    """

    evaluation: Optional[PolicyEvaluation] = None

    def take(self) -> Optional[PolicyEvaluation]:
        """Empty the slot and return what it held."""
        evaluation, self.evaluation = self.evaluation, None
        return evaluation


@dataclass
class PolicyIterationResult:
    """Result of Howard policy iteration.

    Attributes:
        gain: Optimal mean payoff (exact up to linear-algebra accuracy).
        bias: Bias (relative value) vector of the optimal strategy.
        strategy: The optimal positional strategy found.
        iterations: Number of policy-improvement rounds performed.
        converged: Whether a fixed point was reached within the budget.
    """

    gain: float
    bias: np.ndarray
    strategy: Strategy
    iterations: int
    converged: bool


def _greedy_improvement(
    mdp: MDP, row_rewards: np.ndarray, bias: np.ndarray, current_rows: np.ndarray, tolerance: float
) -> np.ndarray:
    """Return improved row choices; ties are broken in favour of the incumbent."""
    continuation = mdp.trans_prob * bias[mdp.trans_succ]
    row_values = row_rewards + np.add.reduceat(continuation, mdp.row_trans_offsets[:-1])
    state_best = np.maximum.reduceat(row_values, mdp.state_row_offsets[:-1])
    new_rows = current_rows.copy()
    current_values = row_values[current_rows]
    # Only switch when the improvement is strictly larger than the tolerance;
    # this is the standard rule that guarantees termination of policy iteration.
    improvable = state_best > current_values + tolerance
    if not np.any(improvable):
        return new_rows
    is_best = row_values >= state_best[mdp.row_state] - 1e-12
    row_indices = np.arange(mdp.num_rows)
    candidate_rows = row_indices[is_best]
    candidate_states = mdp.row_state[is_best]
    best_rows = np.full(mdp.num_states, -1, dtype=np.int64)
    best_rows[candidate_states[::-1]] = candidate_rows[::-1]
    new_rows[improvable] = best_rows[improvable]
    return new_rows


def policy_iteration(
    mdp: MDP,
    reward_weights: Sequence[float],
    *,
    tolerance: float = 1e-9,
    max_iterations: int = 1_000,
    initial_strategy: Optional[Strategy] = None,
    evaluation_slot: Optional[EvaluationSlot] = None,
) -> PolicyIterationResult:
    """Solve the mean-payoff MDP with Howard policy iteration.

    Args:
        mdp: The model to solve (assumed unichain under every strategy).
        reward_weights: Weights combining reward components into the scalar
            reward being maximised.
        tolerance: Improvement threshold below which actions are not switched.
        max_iterations: Maximum number of improvement rounds.
        initial_strategy: Optional warm start (e.g. the previous binary-search
            iterate); defaults to the first-action strategy.
        evaluation_slot: Optional slot handing over the evaluation of a
            strategy of this same model (typically the one an earlier solve
            converged to, passed as ``initial_strategy``).  It is taken out
            when the solve starts and used only while its rows match the rows
            being evaluated; the final strategy's evaluation is put back.

    Raises:
        ConvergenceError: If no fixed point is reached within the budget.
    """
    row_rewards = mdp.expected_row_rewards(reward_weights)
    strategy = initial_strategy if initial_strategy is not None else Strategy.first_action(mdp)
    rows = strategy.rows.copy()
    gain = 0.0
    bias = np.zeros(mdp.num_states)
    converged = False
    iterations = 0
    evaluation = evaluation_slot.take() if evaluation_slot is not None else None

    for iterations in range(1, max_iterations + 1):
        if evaluation is None or not np.array_equal(evaluation.rows, rows):
            evaluation = None  # the only reference: free the stale factor first
            evaluation = _evaluate(mdp, rows)
        gain, bias = evaluation.chain.gain_and_bias(
            reward_weights, reference_state=mdp.initial_state, factor=evaluation.factor
        )
        new_rows = _greedy_improvement(mdp, row_rewards, bias, rows, tolerance)
        if np.array_equal(new_rows, rows):
            converged = True
            break
        rows = new_rows

    if not converged:
        raise ConvergenceError(
            f"policy iteration did not converge within {max_iterations} iterations"
        )
    if evaluation_slot is not None:
        evaluation_slot.evaluation = evaluation
    return PolicyIterationResult(
        gain=float(gain),
        bias=bias,
        strategy=Strategy(mdp, rows),
        iterations=iterations,
        converged=converged,
    )


def _evaluate(mdp: MDP, rows: np.ndarray) -> PolicyEvaluation:
    """Build the induced chain of ``rows`` and factor its Poisson system."""
    chain = induced_markov_chain(mdp, Strategy(mdp, rows))
    # A private copy: the returned strategy shares ``rows`` with its caller.
    return PolicyEvaluation(rows.copy(), chain, chain.poisson_factor(mdp.initial_state))
