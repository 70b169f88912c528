"""Algorithm 1: the paper's fully automated formal analysis procedure.

Given the selfish-mining MDP and a precision ``epsilon``, the procedure performs
a binary search over ``beta`` in ``[0, 1]``.  The sign of the optimal mean
payoff ``g*(beta)`` under the reward ``r_beta`` decides the half in which the
optimal expected relative revenue ``ERRev*`` lies (Theorem 3.1: the optimal
mean payoff is monotonically decreasing in ``beta`` and crosses zero exactly at
``ERRev*``).  On termination ``beta_low`` is an ``epsilon``-tight lower bound
on ``ERRev*`` and the strategy that is optimal for ``r_{beta_low}`` achieves an
ERRev within ``[ERRev* - epsilon, ERRev*]``.

Each probe tries two certificates before it solves anything.  Every solve's
strategy ``sigma`` is solved once more, on its cached factor, under each
reward component, which gives its gains and biases for every ``beta`` at once.

* Lower: some strategy solved earlier in the search earns
  ``g_sigma(beta) >= 0``; since ``g*(beta) >= g_sigma(beta)``, ``beta_low``
  moves up.
* Upper: with the latest solved strategy's bias ``h`` at ``beta``, one Bellman
  pass gives ``R = max_s (max_a (r_beta + P h)(s, a) - h(s))``, and
  ``g*(beta) <= R`` for any ``h``; ``R < 0`` moves ``beta_up`` down.

A probe neither certificate decides is solved by policy iteration.  The
certificates only skip solves: a certificate that holds proves the sign the
solve would find, so the probes, the interval and the final strategy's ERRev
are those of a search that solves every probe, unless rounding flips the sign
of a gain within rounding error of zero.  On the benchmark's inputs the only
such gain is ``g*(0.25) = 0`` at ``p = 0.25`` points where the optimum ties
honest mining; the certificate and the solve both compute it as exactly 0.0.

Invariant: **certified-bound reproducibility**.  The final ``[beta_low,
beta_up]`` interval is a deterministic function of the model, ``epsilon`` and
the initial interval -- identical bit-for-bit across processes (the sweep
engine asserts this for its serial and pool runs) --
with width below ``epsilon`` and ``beta_low <= ERRev* <= beta_up`` within the
MDP's strategy class.  No wall-clock reading ever steers the search.  Warm starts
change solver iteration and factorization counts, never a value: each solve
starts from the last solved probe's strategy, and one
:class:`~repro.mdp.EvaluationCache` serves every solve of the search, so no
strategy it still holds is factored again (a held factor is bit-identical to
refactoring the same matrix).  Below the cache's cap the search factors each
distinct strategy it evaluates once.  Past it the cache holds the latest
factor only, so the certificates' solve and each solve after the first reuse
the factor of the strategy the previous solve returned, and the search factors
``total_solver_iterations`` minus the number of solved probes times.  The
search drops the cache before the final strategy evaluation, and no factor
ever enters the result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..config import AnalysisConfig
from ..exceptions import ModelError
from ..mdp import (
    MDP,
    EvaluationCache,
    Strategy,
    gain_upper_bound,
    solve_mean_payoff,
)
from .errev import evaluate_strategy_errev
from .rewards import beta_reward_weights


@dataclass
class BinarySearchIteration:
    """Record of a single binary-search iteration (for reporting and tests).

    Attributes:
        beta: The beta value probed in this iteration.
        optimal_mean_payoff: The optimal mean payoff under ``r_beta`` of a
            solved probe; of a certified one, the certificate's bound on it
            (a lower bound ``>= 0`` or an upper bound ``< 0``).  Its sign
            picked the half.
        beta_low: Lower end of the beta interval after the update.
        beta_up: Upper end of the beta interval after the update.
        solve_seconds: Wall-clock time of the probe: its certificate checks
            and, if neither decided it, the mean-payoff solve.
        solver_iterations: Policy-improvement rounds the solve needed (0 for
            a certified probe).
        certificate: ``"lower"`` or ``"upper"`` for the certificate that
            decided the probe without a solve, ``None`` for a solved probe.
    """

    beta: float
    optimal_mean_payoff: float
    beta_low: float
    beta_up: float
    solve_seconds: float
    solver_iterations: int = 0
    certificate: Optional[str] = None


@dataclass
class FormalAnalysisResult:
    """Output of Algorithm 1.

    Attributes:
        errev_lower_bound: The epsilon-tight lower bound on the optimal ERRev
            (the final ``beta_low``).
        beta_low: Final lower end of the binary-search interval.
        beta_up: Final upper end of the binary-search interval (an upper bound on
            the optimal ERRev within the MDP's strategy class).
        epsilon: The precision the search was run with.
        strategy: A strategy optimal for ``r_{beta_low}``; by Theorem 3.1 its
            ERRev lies in ``[ERRev* - epsilon, ERRev*]``.
        strategy_errev: Exact ERRev of ``strategy`` (stationary evaluation), or
            ``None`` if evaluation was disabled.
        iterations: Per-iteration log of the binary search.
        total_seconds: Total wall-clock time of the analysis.
        total_solver_iterations: Sum of policy-improvement rounds over every
            solve of the analysis (including the final strategy-extraction
            solve) -- the primary measure of warm-starting effectiveness.
    """

    errev_lower_bound: float
    beta_low: float
    beta_up: float
    epsilon: float
    strategy: Strategy
    strategy_errev: Optional[float]
    iterations: List[BinarySearchIteration] = field(default_factory=list)
    total_seconds: float = 0.0
    total_solver_iterations: int = 0

    @property
    def num_iterations(self) -> int:
        """Number of probes of the binary search, certified or solved."""
        return len(self.iterations)

    @property
    def interval_width(self) -> float:
        """Width of the final beta interval (less than ``epsilon`` on success)."""
        return self.beta_up - self.beta_low


def formal_analysis(
    mdp: MDP,
    config: Optional[AnalysisConfig] = None,
    *,
    beta_low: float = 0.0,
    beta_up: float = 1.0,
    initial_strategy_rows: Optional[np.ndarray] = None,
) -> FormalAnalysisResult:
    """Run the paper's Algorithm 1 on a selfish-mining MDP.

    Args:
        mdp: The MDP produced by :func:`repro.attacks.build_selfish_forks_mdp`
            (reward components ``(r_A, r_H)``).
        config: Analysis configuration (precision, strategy evaluation).
        beta_low: Initial lower end of the search interval (0 in the paper;
            callers may tighten it, e.g. to ``p``, since ERRev* >= p).
        beta_up: Initial upper end of the search interval.
        initial_strategy_rows: Optional warm-start row choices for the first
            solve, typically ``result.strategy.rows`` of an adjacent parameter
            point over a structurally identical MDP.  Silently ignored when
            incompatible with ``mdp`` (wrong length, or rows outside the
            model or not belonging to their states).

    Returns:
        A :class:`FormalAnalysisResult` with the epsilon-tight lower bound, the
        extracted strategy and the full iteration log.
    """
    config = config or AnalysisConfig()
    if not 0.0 <= beta_low <= beta_up <= 1.0:
        raise ValueError(f"invalid initial interval [{beta_low}, {beta_up}]")

    start_time = time.perf_counter()
    iterations: List[BinarySearchIteration] = []
    warm_strategy = _strategy_from_rows(mdp, initial_strategy_rows)
    # Holds the search's Poisson factors for the warm-started solves.
    cache = EvaluationCache()
    total_solver_iterations = 0
    # Per-component gains of every strategy solved so far, and the latest one's biases.
    solved_gains: List[np.ndarray] = []
    biases: Optional[np.ndarray] = None

    while beta_up - beta_low >= config.epsilon:
        beta = 0.5 * (beta_low + beta_up)
        probe_start = time.perf_counter()
        weights = _weights(beta)
        certificate, bound = _certify(mdp, weights, solved_gains, biases)
        rounds = 0
        if certificate is None:
            solution = solve_mean_payoff(
                mdp, weights, warm_start=warm_strategy, evaluation_cache=cache
            )
            bound, rounds = solution.gain, solution.iterations
            warm_strategy = solution.strategy
            gains, biases = _component_gains_and_biases(mdp, warm_strategy, cache)
            solved_gains.append(gains)
        if bound < 0.0:
            beta_up = beta
        else:
            beta_low = beta
        iterations.append(
            BinarySearchIteration(
                beta=beta,
                optimal_mean_payoff=bound,
                beta_low=beta_low,
                beta_up=beta_up,
                solve_seconds=time.perf_counter() - probe_start,
                solver_iterations=rounds,
                certificate=certificate,
            )
        )
        total_solver_iterations += rounds

    # Final solve at beta_low, from the last solved strategy, to extract the certified one.
    final_solution = solve_mean_payoff(
        mdp, _weights(beta_low), warm_start=warm_strategy, evaluation_cache=cache
    )
    # The cache is the factors' only holder: free them before the stationary solve.
    del cache
    total_solver_iterations += final_solution.iterations
    strategy = final_solution.strategy
    strategy_errev = (
        evaluate_strategy_errev(mdp, strategy) if config.evaluate_strategy else None
    )

    return FormalAnalysisResult(
        errev_lower_bound=beta_low,
        beta_low=beta_low,
        beta_up=beta_up,
        epsilon=config.epsilon,
        strategy=strategy,
        strategy_errev=strategy_errev,
        iterations=iterations,
        total_seconds=time.perf_counter() - start_time,
        total_solver_iterations=total_solver_iterations,
    )


def _strategy_from_rows(mdp: MDP, rows: Optional[np.ndarray]) -> Optional[Strategy]:
    """Build a warm-start strategy from raw row choices, or ``None`` if invalid.

    Warm starts carried across sweep grid points are advisory: when the rows do
    not fit this MDP (e.g. the adjacent point has a different support signature
    and hence a different state space) they are simply dropped.
    """
    if rows is None:
        return None
    rows = np.asarray(rows)
    if rows.shape != (mdp.num_states,):
        return None
    try:
        return Strategy(mdp, rows)
    except ModelError:
        return None


def _weights(beta: float) -> np.ndarray:
    """``r_beta``'s reward weights as an array, converted once per probe."""
    return np.array(beta_reward_weights(beta))


def _certify(
    mdp: MDP,
    weights: np.ndarray,
    solved_gains: List[np.ndarray],
    biases: Optional[np.ndarray],
) -> Tuple[Optional[str], float]:
    """Decide the sign of the optimal gain under ``weights`` from the strategies solved so far.

    Returns ``("lower", bound)`` when a solved strategy's gain ``bound`` is
    ``>= 0``, ``("upper", bound)`` when the Bellman pass of the latest one's
    bias bounds the optimal gain by ``bound < 0``, and ``(None, nan)``
    otherwise, or before any solve.
    """
    if biases is None:
        return None, math.nan
    lower = max(float(gains @ weights) for gains in solved_gains)
    if lower >= 0.0:
        return "lower", lower
    upper = gain_upper_bound(mdp, weights, biases @ weights)
    if upper < 0.0:
        return "upper", upper
    return None, math.nan


def _component_gains_and_biases(
    mdp: MDP, strategy: Strategy, cache: EvaluationCache
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``strategy``'s Poisson system under every reward component, on its cached factor.

    Returns the gain of each component and one bias column per component;
    ``r_beta``'s gain and bias are their products with ``beta``'s weights.
    """
    evaluation = cache.evaluation(mdp, strategy.rows)
    chain = evaluation.chain
    return chain.gains_and_biases(chain.expected_rewards, evaluation.factor)

