"""Certificates validating the premises of Theorem 3.1 on a constructed model.

The correctness of Algorithm 1 rests on structural facts about the selfish-mining
MDP that the paper proves on paper (Appendix C):

1. every strategy induces a chain with a single recurrent class containing the
   initial state (ergodicity / unichain),
2. the long-run rate of finalised blocks is strictly positive (at least
   ``delta = (1-p) / (1-p + p*d*f)``), and
3. the optimal mean payoff ``MP*_beta`` is monotonically decreasing in ``beta``.

These checks give a mechanical, per-model confirmation of those premises
(sampling strategies for 1, evaluating the honest and optimal strategies for 2,
probing a beta grid for 3).  They are exercised by the test suite and exposed to
users who modify the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..config import AnalysisConfig
from ..exceptions import SolverError
from ..mdp import MDP, Strategy, induced_markov_chain, is_unichain, solve_mean_payoff
from .rewards import TOTAL_WEIGHTS, beta_reward_weights


@dataclass
class CertificateReport:
    """Outcome of :func:`check_theorem_premises`.

    Attributes:
        unichain: Whether all sampled strategies induced a single recurrent class.
        min_total_block_rate: Smallest long-run finalised-block rate observed
            (NaN if a chain's stationary distribution could not be solved).
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
    strategy_samples: int = 10,
    monotonicity_tolerance: float = 1e-7,
    seed: int = 0,
) -> CertificateReport:
    """Mechanically check the premises of Theorem 3.1 on a constructed MDP.

    Args:
        mdp: The selfish-mining MDP to check.
        config: Solver configuration for the monotonicity probe.
        betas: Beta grid probed for monotonicity of the optimal mean payoff.
        strategy_samples: Number of random strategies sampled for the unichain check.
        monotonicity_tolerance: Allowed numerical violation of monotonicity.
        seed: Seed of the random strategy sampler.
    """
    config = config or AnalysisConfig()
    problems: List[str] = []

    # Premise 1: unichain under sampled strategies.
    unichain = is_unichain(mdp, samples=strategy_samples, seed=seed)
    if not unichain:
        problems.append("a sampled strategy induced more than one recurrent class")

    # Premise 2: positive long-run finalised-block rate under representative strategies.
    min_rate = float("inf")
    for strategy in (Strategy.first_action(mdp),):
        chain = induced_markov_chain(mdp, strategy)
        try:
            rate = float(chain.long_run_reward() @ TOTAL_WEIGHTS)
        except SolverError as exc:
            problems.append(f"long-run finalised-block rate is undefined: {exc}")
            min_rate = float("nan")
            break
        min_rate = min(min_rate, rate)
    if min_rate <= 0.0:
        problems.append(f"long-run finalised-block rate {min_rate} is not positive")

    # Premise 3: MP*_beta non-increasing in beta.
    gains: List[float] = []
    for beta in betas:
        solution = solve_mean_payoff(
            mdp,
            beta_reward_weights(beta),
            solver=config.solver,
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
