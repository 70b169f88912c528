"""The paper's reward-function family ``r_beta``.

The selfish-mining MDP attaches a two-component reward vector ``(r_A, r_H)`` to
every transition: the number of adversarial and honest blocks finalised by the
transition.  Section 3.3 of the paper defines, for ``beta`` in ``[0, 1]``,

    r_beta  =  (1 - beta) * r_A  -  beta * r_H  =  r_A - beta * (r_A + r_H),

whose optimal mean payoff is monotonically decreasing in ``beta`` and crosses
zero exactly at the optimal expected relative revenue (Theorem 3.1).  Because
rewards are stored as vectors, evaluating a new ``beta`` only changes the weight
vector; the MDP itself is never rebuilt.
"""

from __future__ import annotations

from typing import Tuple

from .._validation import check_probability
from ..attacks.fork_state import REWARD_ADVERSARY_INDEX, REWARD_HONEST_INDEX

#: Weights selecting the adversarial-blocks component ``r_A``.
ADVERSARY_WEIGHTS: Tuple[float, float] = (1.0, 0.0)

#: Weights selecting the honest-blocks component ``r_H``.
HONEST_WEIGHTS: Tuple[float, float] = (0.0, 1.0)

#: Weights selecting the total number of finalised blocks ``r_A + r_H``.
TOTAL_WEIGHTS: Tuple[float, float] = (1.0, 1.0)


def beta_reward_weights(beta: float) -> Tuple[float, float]:
    """Return the weight vector realising ``r_beta = r_A - beta * (r_A + r_H)``.

    Args:
        beta: The reward-shift parameter in ``[0, 1]``.

    Returns:
        A weight tuple ``w`` such that ``w[0] * r_A + w[1] * r_H = r_beta``.
    """
    beta = check_probability(beta, "beta")
    weights = [0.0, 0.0]
    weights[REWARD_ADVERSARY_INDEX] = 1.0 - beta
    weights[REWARD_HONEST_INDEX] = -beta
    return (weights[0], weights[1])
