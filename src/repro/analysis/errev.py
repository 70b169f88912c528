"""Exact evaluation of the expected relative revenue of a fixed strategy.

For a positional strategy the induced Markov chain is ergodic (the paper's
Appendix C), so by the strong law of large numbers the expected relative revenue
equals the ratio of the stationary long-run rates of adversarial and total
finalised blocks.  This gives the *exact* ERRev guaranteed by a strategy, used

* to report the value achieved by the strategy returned by Algorithm 1,
* as the update rule of the Dinkelbach iteration, and
* to evaluate the honest baseline inside the MDP (which must equal ``p``).
"""

from __future__ import annotations

from ..exceptions import SolverError
from ..mdp import MDP, Strategy, induced_markov_chain
from .rewards import ADVERSARY_WEIGHTS, TOTAL_WEIGHTS


def evaluate_strategy_errev(mdp: MDP, strategy: Strategy) -> float:
    """Exact expected relative revenue of ``strategy`` in the selfish-mining MDP.

    Args:
        mdp: A selfish-mining MDP with reward components ``(r_A, r_H)``.
        strategy: The positional strategy to evaluate.

    Returns:
        ``E[r_A] / E[r_A + r_H]`` under the strategy's stationary distribution.

    Raises:
        SolverError: If the long-run total block rate is zero (which cannot
            happen for ``p < 1`` in well-formed models).
    """
    chain = induced_markov_chain(mdp, strategy)
    averages = chain.long_run_reward()
    adversary_rate = float(averages @ ADVERSARY_WEIGHTS)
    total_rate = float(averages @ TOTAL_WEIGHTS)
    if total_rate <= 0.0:
        raise SolverError(
            "the strategy finalises no blocks in the long run; ERRev is undefined"
        )
    value = adversary_rate / total_rate
    # Guard against tiny negative values introduced by the linear algebra.
    return min(max(value, 0.0), 1.0)
