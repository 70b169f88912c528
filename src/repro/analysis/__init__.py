"""Formal analysis of the selfish-mining MDP.

Implements the paper's Algorithm 1 (binary search over the reward parameter
beta, each step solving a mean-payoff MDP) together with supporting machinery:
the ``r_beta`` reward family, exact evaluation of fixed strategies (stationary
ratio of adversarial to total finalised blocks), a faster Dinkelbach-style ratio
optimiser used for cross-checks, and certificates validating Theorem 3.1's
premises on constructed models.
"""

from .rewards import (
    ADVERSARY_WEIGHTS,
    HONEST_WEIGHTS,
    TOTAL_WEIGHTS,
    beta_reward_weights,
)
from .errev import evaluate_strategy_errev
from .algorithm1 import FormalAnalysisResult, formal_analysis
from .dinkelbach import DinkelbachResult, dinkelbach_analysis
from .certificates import CertificateReport, check_theorem_premises

__all__ = [
    "ADVERSARY_WEIGHTS",
    "HONEST_WEIGHTS",
    "TOTAL_WEIGHTS",
    "beta_reward_weights",
    "evaluate_strategy_errev",
    "FormalAnalysisResult",
    "formal_analysis",
    "DinkelbachResult",
    "dinkelbach_analysis",
    "CertificateReport",
    "check_theorem_premises",
]
