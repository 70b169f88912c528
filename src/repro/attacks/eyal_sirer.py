"""Classic Eyal-Sirer selfish mining in proof-of-work blockchains.

This module provides the closed-form relative revenue of the original selfish
mining attack (Eyal & Sirer 2014/2018, "Majority is not enough") as a reference
point and cross-check for the efficient-proof-systems analysis: with one fork,
depth-one behaviour and a single mined block per step, the multi-fork attack
degenerates towards the PoW setting.
"""

from __future__ import annotations

from .._validation import check_probability


def eyal_sirer_relative_revenue(alpha: float, gamma: float) -> float:
    """Closed-form relative revenue of the classic PoW selfish-mining attack.

    Args:
        alpha: Relative hashing power of the selfish pool (the paper's ``p``).
        gamma: Fraction of honest miners that mine on the pool's block in a tie.

    Returns:
        The long-run fraction of main-chain blocks owned by the selfish pool
        (Eyal & Sirer, equation for the pool's revenue share).
    """
    alpha = check_probability(alpha, "alpha")
    gamma = check_probability(gamma, "gamma")
    if alpha in (0.0, 1.0):
        return alpha
    numerator = alpha * (1 - alpha) ** 2 * (4 * alpha + gamma * (1 - 2 * alpha)) - alpha**3
    denominator = 1 - alpha * (1 + (2 - alpha) * alpha)
    if denominator <= 0:
        # Beyond the model's validity range the pool dominates the chain.
        return 1.0
    revenue = numerator / denominator
    return min(max(revenue, 0.0), 1.0)


def eyal_sirer_profitability_threshold(gamma: float) -> float:
    """Smallest resource share at which selfish mining beats honest mining.

    Eyal & Sirer show the threshold is ``(1 - gamma) / (3 - 2 * gamma)``: 1/3 for
    ``gamma = 0`` and 0 for ``gamma = 1``.
    """
    gamma = check_probability(gamma, "gamma")
    return (1.0 - gamma) / (3.0 - 2.0 * gamma)

