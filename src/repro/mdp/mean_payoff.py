"""Unified front-end for the mean-payoff solvers.

Algorithm 1 only needs a single entry point that, given an MDP and reward
weights, returns the optimal gain together with an optimal (or epsilon-optimal)
strategy.  :func:`solve_mean_payoff` dispatches to policy iteration (exact, the
default) or relative value iteration (certified span bounds) and normalises the
result into a :class:`MeanPayoffSolution`.  :func:`solve_mean_payoff_batch` is
a convenience loop over several reward weightings of the same model.

Callers that warm-start each solve of a model with the previous solve's
strategy also pass one :class:`EvaluationCache` to every solve: policy
iteration looks every strategy up in it before factoring, so the next solve
skips the factorization of the strategy it starts from, and of any other the
search has met while the cache still holds it.  No solution holds a factor.

The LP formulation is deliberately not a backend here, nor part of the
package: it is a test oracle (``tests/mdp/lp_oracle.py``) that the tests
compare policy and value iteration against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import SolverError
from .model import MDP
from .policy_iteration import EvaluationCache, policy_iteration
from .strategy import Strategy
from .value_iteration import relative_value_iteration

#: Names of the available solver backends.
SOLVER_BACKENDS = ("policy_iteration", "value_iteration")


@dataclass
class MeanPayoffSolution:
    """Solver-independent mean-payoff result.

    Attributes:
        gain: Best estimate of the optimal mean payoff.
        lower_bound: Certified (or numerically exact) lower bound on the gain.
        upper_bound: Certified (or numerically exact) upper bound on the gain.
        strategy: Optimal (or epsilon-optimal) positional strategy.
        bias: Bias vector associated with the solution.
        solver: Name of the backend that produced the result.
        iterations: Iterations used by the backend.
    """

    gain: float
    lower_bound: float
    upper_bound: float
    strategy: Strategy
    bias: np.ndarray
    solver: str
    iterations: int


def solve_mean_payoff(
    mdp: MDP,
    reward_weights: Sequence[float],
    *,
    solver: str = "policy_iteration",
    tolerance: float = 1e-9,
    max_iterations: int = 100_000,
    warm_start: Optional[Strategy] = None,
    warm_start_bias: Optional[np.ndarray] = None,
    evaluation_cache: Optional[EvaluationCache] = None,
) -> MeanPayoffSolution:
    """Compute the optimal mean payoff and an optimal strategy.

    Args:
        mdp: The model to solve (assumed unichain under every strategy, which
            holds for the paper's selfish-mining MDP).
        reward_weights: Weights combining the model's reward components.
        solver: ``"policy_iteration"`` (default; exact) or
            ``"value_iteration"`` (certified bounds).
        tolerance: Numerical tolerance of the backend.
        max_iterations: Iteration budget of the backend: policy-improvement
            rounds or value-iteration sweeps.
        warm_start: Optional strategy to warm-start policy iteration with (its
            initial policy).
        warm_start_bias: Optional bias vector to warm-start value iteration with
            (e.g. the bias of the previous binary-search iterate); silently
            ignored when its shape does not match ``mdp.num_states`` so that
            callers can pass vectors carried across structurally different
            models without checking.
        evaluation_cache: Optional cache shared by the solves of this same
            model; policy iteration looks every strategy up in it before
            factoring (value iteration ignores it).

    Raises:
        SolverError: If ``solver`` is not a known backend.
        ConvergenceError: If the backend does not converge within
            ``max_iterations``.
    """
    if solver == "policy_iteration":
        result = policy_iteration(
            mdp,
            reward_weights,
            tolerance=tolerance,
            max_iterations=max_iterations,
            initial_strategy=warm_start,
            evaluation_cache=evaluation_cache,
        )
        return MeanPayoffSolution(
            gain=result.gain,
            lower_bound=result.gain - tolerance,
            upper_bound=result.gain + tolerance,
            strategy=result.strategy,
            bias=result.bias,
            solver=solver,
            iterations=result.iterations,
        )
    if solver == "value_iteration":
        if warm_start_bias is not None:
            warm_start_bias = np.asarray(warm_start_bias, dtype=float)
            if warm_start_bias.shape != (mdp.num_states,):
                warm_start_bias = None
        vi = relative_value_iteration(
            mdp,
            reward_weights,
            tolerance=tolerance,
            max_iterations=max_iterations,
            initial_bias=warm_start_bias,
        )
        return MeanPayoffSolution(
            gain=vi.gain,
            lower_bound=vi.lower_bound,
            upper_bound=vi.upper_bound,
            strategy=vi.strategy,
            bias=vi.bias,
            solver=solver,
            iterations=vi.iterations,
        )
    raise SolverError(f"unknown mean-payoff solver {solver!r}; choose from {SOLVER_BACKENDS}")


def solve_mean_payoff_batch(
    mdp: MDP,
    weight_matrix: np.ndarray,
    *,
    solver: str = "policy_iteration",
    tolerance: float = 1e-9,
    max_iterations: int = 100_000,
    warm_start: Optional[Strategy] = None,
    warm_start_bias: Optional[np.ndarray] = None,
) -> List[MeanPayoffSolution]:
    """Solve several reward weightings of the *same* model, one after another.

    Each row of ``weight_matrix`` is one :func:`solve_mean_payoff` call, warm
    started with the strategy, bias and evaluation of the previous row (the
    first row uses ``warm_start`` / ``warm_start_bias``), sharing one
    evaluation cache.  The cache is local, so every factor is freed on return.

    Returns:
        One :class:`MeanPayoffSolution` per row of ``weight_matrix``, in order.

    Raises:
        SolverError: If ``weight_matrix`` is not ``(k, num_reward_components)``
            or ``solver`` is not a known backend.
    """
    weight_matrix = np.asarray(weight_matrix, dtype=float)
    if weight_matrix.ndim != 2 or weight_matrix.shape[1] != mdp.num_reward_components:
        raise SolverError(
            f"weight_matrix must have shape (k, {mdp.num_reward_components}), "
            f"got {weight_matrix.shape}"
        )
    solutions: List[MeanPayoffSolution] = []
    cache = EvaluationCache()
    for weights in weight_matrix:
        solution = solve_mean_payoff(
            mdp,
            weights,
            solver=solver,
            tolerance=tolerance,
            max_iterations=max_iterations,
            warm_start=warm_start,
            warm_start_bias=warm_start_bias,
            evaluation_cache=cache,
        )
        solutions.append(solution)
        warm_start, warm_start_bias = solution.strategy, solution.bias
    return solutions
