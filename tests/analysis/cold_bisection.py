"""Algorithm 1 with every probe solved cold: the oracle of the warm-started search.

``formal_analysis`` starts each probe's solve from the previous probe's
strategy and shares one evaluation cache across the search.  Neither may move
a value, so the same bisection, with ``policy_iteration`` started from the
first-action strategy at every probe and no shared cache, must probe the same
betas and certify the same interval and strategy ERRev.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.analysis import evaluate_strategy_errev
from repro.analysis.rewards import beta_reward_weights
from repro.config import AnalysisConfig
from repro.mdp import MDP, policy_iteration


class ColdSearch(NamedTuple):
    betas: List[float]
    beta_low: float
    beta_up: float
    strategy_errev: float
    solver_iterations: int


def cold_bisection(mdp: MDP, config: AnalysisConfig, beta_low=0.0, beta_up=1.0) -> ColdSearch:
    betas: List[float] = []
    rounds = 0

    def solve(beta):
        nonlocal rounds
        result = policy_iteration(mdp, beta_reward_weights(beta))
        rounds += result.iterations
        return result

    while beta_up - beta_low >= config.epsilon:
        beta = 0.5 * (beta_low + beta_up)
        betas.append(beta)
        if solve(beta).gain < 0.0:
            beta_up = beta
        else:
            beta_low = beta
    strategy = solve(beta_low).strategy
    return ColdSearch(betas, beta_low, beta_up, evaluate_strategy_errev(mdp, strategy), rounds)
