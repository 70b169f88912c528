"""Relative value iteration for mean-payoff (average-reward) MDPs.

For unichain MDPs the optimal gain is constant across states and relative value
iteration converges to it; the span of the Bellman residual gives certified lower
and upper bounds on the optimal gain at every iteration (Puterman 1994, Section
8.5.5), which is the formal guarantee the analysis relies on.

An aperiodicity transformation (damping) is applied so that convergence does not
depend on the periodicity of the underlying graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import ConvergenceError
from .model import MDP
from .strategy import Strategy


@dataclass
class RelativeValueIterationResult:
    """Result of relative value iteration.

    Attributes:
        gain: Estimated optimal mean payoff (midpoint of the certified bounds).
        lower_bound: Certified lower bound on the optimal gain.
        upper_bound: Certified upper bound on the optimal gain.
        bias: Relative value (bias) vector at termination.
        strategy: A greedy strategy with respect to the final bias vector.
        iterations: Number of iterations performed.
        converged: Whether the span criterion was met within the budget.
    """

    gain: float
    lower_bound: float
    upper_bound: float
    bias: np.ndarray
    strategy: Strategy
    iterations: int
    converged: bool

    @property
    def bound_width(self) -> float:
        """Width of the certified gain interval."""
        return self.upper_bound - self.lower_bound


def _first_best_rows(mdp: MDP, row_values: np.ndarray, state_values: np.ndarray) -> np.ndarray:
    """Return, per state, the smallest row index attaining the state's maximum."""
    is_best = row_values >= state_values[mdp.row_state] - 1e-12
    row_indices = np.arange(mdp.num_rows)
    best_rows = np.full(mdp.num_states, -1, dtype=np.int64)
    candidate_rows = row_indices[is_best]
    candidate_states = mdp.row_state[is_best]
    # Reverse order so that the final assignment per state is the smallest row.
    best_rows[candidate_states[::-1]] = candidate_rows[::-1]
    return best_rows


def _bellman_backup(
    mdp: MDP, row_rewards: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return per-state optimal backup values and the arg-max rows."""
    continuation = mdp.trans_prob * values[mdp.trans_succ]
    row_values = row_rewards + np.add.reduceat(continuation, mdp.row_trans_offsets[:-1])
    state_values = np.maximum.reduceat(row_values, mdp.state_row_offsets[:-1])
    return state_values, _first_best_rows(mdp, row_values, state_values)


def relative_value_iteration(
    mdp: MDP,
    reward_weights: Sequence[float],
    *,
    tolerance: float = 1e-9,
    max_iterations: int = 100_000,
    damping: float = 0.5,
    initial_bias: Optional[np.ndarray] = None,
    raise_on_divergence: bool = True,
) -> RelativeValueIterationResult:
    """Solve the mean-payoff MDP with relative value iteration.

    Args:
        mdp: The model to solve.
        reward_weights: Weights combining the model's reward components into the
            scalar reward being maximised.
        tolerance: Termination threshold on the span of the Bellman residual;
            the certified gain interval has at most this width at termination.
        max_iterations: Iteration budget.
        damping: Aperiodicity-transformation parameter in (0, 1]; the update is
            ``h <- (1 - damping) * h + damping * T h``.  The reported gain is
            rescaled back to the original model.
        initial_bias: Optional warm-start bias vector.
        raise_on_divergence: If true, exceeding the budget raises
            :class:`~repro.exceptions.ConvergenceError`; otherwise the best
            available bounds are returned with ``converged=False``.

    Returns:
        A :class:`RelativeValueIterationResult` with certified gain bounds and a
        greedy strategy.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    row_rewards = mdp.expected_row_rewards(reward_weights)
    if initial_bias is not None:
        initial_bias = np.asarray(initial_bias, dtype=float)
        if initial_bias.shape != (mdp.num_states,):
            raise ValueError(
                f"initial_bias must have shape ({mdp.num_states},), "
                f"got {initial_bias.shape}"
            )
    values = np.zeros(mdp.num_states) if initial_bias is None else initial_bias.copy()
    reference = mdp.initial_state
    lower = -np.inf
    upper = np.inf
    best_rows = mdp.uniform_random_row_choice()
    iterations = 0
    converged = False

    for iterations in range(1, max_iterations + 1):
        backup, best_rows = _bellman_backup(mdp, row_rewards, values)
        # Damped update keeps the iteration aperiodic:  T_damp h = (1-d) h + d T h.
        residual = backup - values
        lower = float(np.min(residual))
        upper = float(np.max(residual))
        if upper - lower < tolerance:
            converged = True
            break
        values = (1.0 - damping) * values + damping * backup
        values = values - values[reference]

    if not converged and raise_on_divergence:
        raise ConvergenceError(
            f"relative value iteration did not converge within {max_iterations} iterations "
            f"(residual span {upper - lower:.3e})"
        )

    # The residual of the damped operator relates to the original gain by 1/damping.
    # We compute the final (undamped) residual bounds explicitly for the certificate.
    backup, best_rows = _bellman_backup(mdp, row_rewards, values)
    residual = backup - values
    lower = float(np.min(residual))
    upper = float(np.max(residual))
    gain = 0.5 * (lower + upper)
    return RelativeValueIterationResult(
        gain=gain,
        lower_bound=lower,
        upper_bound=upper,
        bias=values - values[reference],
        strategy=Strategy(mdp, best_rows),
        iterations=iterations,
        converged=converged,
    )
