"""Certificates validating the premises of Theorem 3.1 on a constructed model.

The correctness of Algorithm 1 rests on structural facts about the selfish-mining
MDP that the paper proves on paper (Appendix C):

1. every strategy induces a chain with a single recurrent class (unichain),
2. the long-run rate of finalised blocks is strictly positive under every
   strategy, and
3. the optimal mean payoff ``MP*_beta`` is monotonically decreasing in ``beta``.

:func:`check_theorem_premises` decides 1 and 2 exactly on a given model:
premise 1 through :func:`~repro.mdp.unavoidable_state` (a state that every
strategy reaches almost surely from everywhere), and premise 2 as the minimum
block rate over all strategies, one mean-payoff solve of the negated rate.
Premise 3 is probed on a beta grid.  The test suite runs the checks, and users
who modify the model can run them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..config import AnalysisConfig
from ..mdp import MDP, solve_mean_payoff, unavoidable_state
from .rewards import TOTAL_WEIGHTS, beta_reward_weights


@dataclass
class CertificateReport:
    """Outcome of :func:`check_theorem_premises`.

    Attributes:
        unichain: Whether some state is reached almost surely from every state
            under every strategy, which makes every strategy unichain.
        min_total_block_rate: Minimum long-run finalised-block rate over all
            strategies (NaN when the model is not known to be unichain, where
            the rate may depend on the start state).
        monotone: Whether the probed optimal mean payoffs were non-increasing in beta.
        probed_betas: The beta grid probed for monotonicity.
        probed_gains: The corresponding optimal mean payoffs.
        problems: Human-readable list of violations (empty when all premises hold).
    """

    unichain: bool
    min_total_block_rate: float
    monotone: bool
    probed_betas: List[float] = field(default_factory=list)
    probed_gains: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        """Whether every probed premise holds."""
        return not self.problems


def check_theorem_premises(
    mdp: MDP,
    *,
    config: Optional[AnalysisConfig] = None,
    betas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    monotonicity_tolerance: float = 1e-7,
) -> CertificateReport:
    """Mechanically check the premises of Theorem 3.1 on a constructed MDP.

    Args:
        mdp: The selfish-mining MDP to check.
        config: Solver configuration for the block-rate solve and the
            monotonicity probe.
        betas: Beta grid probed for monotonicity of the optimal mean payoff.
        monotonicity_tolerance: Allowed numerical violation of monotonicity.
    """
    config = config or AnalysisConfig()
    problems: List[str] = []

    # Premise 1: an unavoidable state makes every strategy unichain.
    unichain = unavoidable_state(mdp) is not None
    if not unichain:
        problems.append("no state is unavoidable, so some strategy may be multichain")

    # Premise 2: the minimum finalised-block rate over all strategies is positive.
    if unichain:
        min_rate = -solve_mean_payoff(
            mdp,
            [-weight for weight in TOTAL_WEIGHTS],
            tolerance=config.solver_tolerance,
            max_iterations=config.max_solver_iterations,
        ).gain
        if min_rate <= 0.0:
            problems.append(f"long-run finalised-block rate {min_rate} is not positive")
    else:
        min_rate = float("nan")
        problems.append("long-run finalised-block rate is undefined: the model is not unichain")

    # Premise 3: MP*_beta non-increasing in beta.
    gains: List[float] = []
    for beta in betas:
        solution = solve_mean_payoff(
            mdp,
            beta_reward_weights(beta),
            tolerance=config.solver_tolerance,
            max_iterations=config.max_solver_iterations,
        )
        gains.append(solution.gain)
    monotone = all(
        gains[index + 1] <= gains[index] + monotonicity_tolerance
        for index in range(len(gains) - 1)
    )
    if not monotone:
        problems.append("optimal mean payoff is not monotonically decreasing in beta")

    return CertificateReport(
        unichain=unichain,
        min_total_block_rate=min_rate,
        monotone=monotone,
        probed_betas=list(betas),
        probed_gains=gains,
        problems=problems,
    )
