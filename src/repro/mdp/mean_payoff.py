"""The mean-payoff entry points of the formal analysis.

Algorithm 1 only needs a single entry point that, given an MDP and reward
weights, returns the optimal gain together with an optimal strategy.
:func:`solve_mean_payoff` is that entry point: it runs Howard policy iteration
(exact up to linear-algebra accuracy) and returns its
:class:`~repro.mdp.policy_iteration.PolicyIterationResult`.  Every solve of
the package goes through it, and none sets a solver option: the improvement
threshold and the round budget are constants of
:mod:`~repro.mdp.policy_iteration`.  :func:`solve_mean_payoff_batch` is a
convenience loop over several reward weightings of the same model.

Callers that warm-start each solve of a model with the previous solve's
strategy also pass one :class:`EvaluationCache` to every solve: policy
iteration looks every strategy up in it before factoring, so the next solve
skips the factorization of the strategy it starts from, and of any other the
search has met while the cache still holds it.  No solution holds a factor.

The LP formulation is deliberately not part of the package: it is a test
oracle (``tests/mdp/lp_oracle.py``) that the tests compare policy iteration
against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import SolverError
from .model import MDP
from .policy_iteration import EvaluationCache, PolicyIterationResult, policy_iteration
from .strategy import Strategy


def solve_mean_payoff(
    mdp: MDP,
    reward_weights: Sequence[float],
    *,
    warm_start: Optional[Strategy] = None,
    evaluation_cache: Optional[EvaluationCache] = None,
) -> PolicyIterationResult:
    """Compute the optimal mean payoff and an optimal strategy.

    Args:
        mdp: The model to solve (assumed unichain under every strategy, which
            holds for the paper's selfish-mining MDP).
        reward_weights: Weights combining the model's reward components.
        warm_start: Optional strategy to start policy iteration from.
        evaluation_cache: Optional cache shared by the solves of this same
            model; policy iteration looks every strategy up in it before
            factoring.

    Raises:
        ConvergenceError: If policy iteration does not converge within
            :data:`~repro.mdp.policy_iteration.MAX_ROUNDS` rounds.
    """
    return policy_iteration(
        mdp,
        reward_weights,
        initial_strategy=warm_start,
        evaluation_cache=evaluation_cache,
    )


def solve_mean_payoff_batch(
    mdp: MDP,
    weight_matrix: np.ndarray,
    *,
    warm_start: Optional[Strategy] = None,
) -> List[PolicyIterationResult]:
    """Solve several reward weightings of the *same* model, one after another.

    Each row of ``weight_matrix`` is one :func:`solve_mean_payoff` call, warm
    started with the strategy of the previous row (the first row uses
    ``warm_start``), sharing one evaluation cache.  The cache is local, so
    every factor is freed on return.

    Returns:
        One result per row of ``weight_matrix``, in order.

    Raises:
        SolverError: If ``weight_matrix`` is not ``(k, num_reward_components)``.
    """
    weight_matrix = np.asarray(weight_matrix, dtype=float)
    if weight_matrix.ndim != 2 or weight_matrix.shape[1] != mdp.num_reward_components:
        raise SolverError(
            f"weight_matrix must have shape (k, {mdp.num_reward_components}), "
            f"got {weight_matrix.shape}"
        )
    solutions: List[PolicyIterationResult] = []
    cache = EvaluationCache()
    for weights in weight_matrix:
        solution = solve_mean_payoff(mdp, weights, warm_start=warm_start, evaluation_cache=cache)
        solutions.append(solution)
        warm_start = solution.strategy
    return solutions
