"""Certificates validating the premises of Theorem 3.1 on a constructed model.

The correctness of Algorithm 1 rests on structural facts about the selfish-mining
MDP that the paper proves on paper (Appendix C):

1. every strategy induces a chain with a single recurrent class (unichain),
2. the long-run rate of finalised blocks is strictly positive under every
   strategy, and
3. the optimal mean payoff ``MP*_beta`` is monotonically decreasing in ``beta``.

:func:`check_theorem_premises` decides all three exactly on a given model:
premise 1 through :func:`~repro.mdp.unavoidable_state` (a state that every
strategy reaches almost surely from everywhere), premise 2 as the minimum
block rate over all strategies, one mean-payoff solve of the negated rate, and
premise 3 from the signs of the rewards.  A strategy's gain under ``r_beta``
is ``g_A - beta * g_T``, where ``g_T`` is its long-run average of ``r_A +
r_H``.  If no transition has a negative ``r_A + r_H``, every ``g_T`` is
non-negative, so every strategy's gain is non-increasing in ``beta``, and so
is their maximum ``MP*_beta``; with premise 2 it is strictly decreasing.  The
test suite runs the checks, and users who modify the model can run them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..mdp import MDP, solve_mean_payoff, unavoidable_state
from .rewards import TOTAL_WEIGHTS


@dataclass
class CertificateReport:
    """Outcome of :func:`check_theorem_premises`.

    Attributes:
        unichain: Whether some state is reached almost surely from every state
            under every strategy, which makes every strategy unichain.
        min_total_block_rate: Minimum long-run finalised-block rate over all
            strategies (NaN when the model is not known to be unichain, where
            the rate may depend on the start state).
        monotone: Whether no transition has a negative ``r_A + r_H``, which
            makes the optimal mean payoff non-increasing in beta.
        problems: Human-readable list of violations (empty when all premises hold).
    """

    unichain: bool
    min_total_block_rate: float
    monotone: bool
    problems: List[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        """Whether every premise holds."""
        return not self.problems


def check_theorem_premises(mdp: MDP) -> CertificateReport:
    """Mechanically check the premises of Theorem 3.1 on a constructed MDP.

    Makes one mean-payoff solve when the model is unichain, and none otherwise.

    Args:
        mdp: The selfish-mining MDP to check.
    """
    problems: List[str] = []

    # Premise 1: an unavoidable state makes every strategy unichain.
    unichain = unavoidable_state(mdp) is not None
    if not unichain:
        problems.append("no state is unavoidable, so some strategy may be multichain")

    # Premise 2: the minimum finalised-block rate over all strategies is positive.
    if unichain:
        min_rate = -solve_mean_payoff(mdp, [-weight for weight in TOTAL_WEIGHTS]).gain
        if min_rate <= 0.0:
            problems.append(f"long-run finalised-block rate {min_rate} is not positive")
    else:
        min_rate = float("nan")
        problems.append("long-run finalised-block rate is undefined: the model is not unichain")

    # Premise 3: r_A + r_H >= 0 on every transition makes MP*_beta non-increasing in beta.
    negative = int(np.count_nonzero(mdp.trans_reward @ np.asarray(TOTAL_WEIGHTS) < 0.0))
    monotone = negative == 0
    if not monotone:
        problems.append(
            f"r_A + r_H is negative on {negative} transitions, so the optimal mean payoff "
            "may not be monotonically decreasing in beta"
        )

    return CertificateReport(
        unichain=unichain, min_total_block_rate=min_rate, monotone=monotone, problems=problems
    )
