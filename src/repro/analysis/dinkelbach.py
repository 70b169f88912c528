"""Dinkelbach-style ratio optimisation of the expected relative revenue.

Algorithm 1 bisects on ``beta``; Dinkelbach's classic scheme for fractional
objectives replaces the bisection update with ``beta <- ERRev(sigma_beta)``,
where ``sigma_beta`` is the mean-payoff-optimal strategy for ``r_beta``.  The
sequence of betas is monotonically non-decreasing and converges to the optimal
ratio, typically in a handful of iterations.  The library ships it as

* a faster alternative to Algorithm 1 for large models, and
* an independent cross-check: both procedures must agree up to their precision,
  which the test suite verifies.

Like Algorithm 1, each solve is warm-started with the previous strategy, and
one :class:`~repro.mdp.EvaluationCache` serves every solve, so no strategy it
still holds is factored again; that changes factorization counts, never a
value.  The cache keeps its factors while each iteration's strategy is
evaluated, so the stationary solve's LU runs beside them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..config import AnalysisConfig
from ..exceptions import ConvergenceError
from ..mdp import MDP, EvaluationCache, Strategy, solve_mean_payoff
from .errev import evaluate_strategy_errev
from .rewards import beta_reward_weights


@dataclass
class DinkelbachIteration:
    """Record of a single Dinkelbach iteration.

    Attributes:
        beta: The ratio estimate the mean-payoff MDP was solved at.
        optimal_mean_payoff: Optimal mean payoff of ``r_beta``.
        next_beta: Exact ERRev of the extracted strategy (the next estimate).
        solver_iterations: Policy-improvement rounds the solve needed.
    """

    beta: float
    optimal_mean_payoff: float
    next_beta: float
    solver_iterations: int


@dataclass
class DinkelbachResult:
    """Output of the Dinkelbach ratio optimisation.

    Attributes:
        errev: Converged expected relative revenue estimate.
        strategy: Strategy achieving ``errev``.
        iterations: Per-iteration log.
        total_seconds: Wall-clock time of the whole procedure.
    """

    errev: float
    strategy: Strategy
    iterations: List[DinkelbachIteration] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def num_iterations(self) -> int:
        """Number of mean-payoff solves performed."""
        return len(self.iterations)


def dinkelbach_analysis(
    mdp: MDP,
    config: Optional[AnalysisConfig] = None,
    *,
    initial_beta: float = 0.0,
    max_iterations: int = 50,
) -> DinkelbachResult:
    """Compute the optimal ERRev by Dinkelbach iteration.

    Args:
        mdp: Selfish-mining MDP with reward components ``(r_A, r_H)``.
        config: Analysis configuration; ``epsilon`` is used as the convergence
            threshold on successive ratio estimates.
        initial_beta: Starting ratio estimate (0, or e.g. the honest value ``p``).
        max_iterations: Safety budget on the number of mean-payoff solves.

    Raises:
        ConvergenceError: If the ratio estimates do not stabilise in time.
    """
    config = config or AnalysisConfig()
    start_time = time.perf_counter()
    beta = float(initial_beta)
    iterations: List[DinkelbachIteration] = []
    strategy: Optional[Strategy] = None
    cache = EvaluationCache()

    for _ in range(max_iterations):
        solution = solve_mean_payoff(
            mdp, beta_reward_weights(beta), warm_start=strategy, evaluation_cache=cache
        )
        strategy = solution.strategy
        next_beta = evaluate_strategy_errev(mdp, strategy)
        iterations.append(
            DinkelbachIteration(
                beta=beta,
                optimal_mean_payoff=solution.gain,
                next_beta=next_beta,
                solver_iterations=solution.iterations,
            )
        )
        if abs(next_beta - beta) < config.epsilon:
            return DinkelbachResult(
                errev=next_beta,
                strategy=strategy,
                iterations=iterations,
                total_seconds=time.perf_counter() - start_time,
            )
        beta = next_beta

    raise ConvergenceError(
        f"Dinkelbach iteration did not converge within {max_iterations} solves"
    )
