"""Explicit-state Markov decision process library.

This subpackage is the substrate that replaces the Storm probabilistic model
checker used by the paper: a from-scratch finite MDP container together with
its one mean-payoff solver (Howard policy iteration), induced-Markov-chain
stationary analysis and structural (graph) analysis.
"""

from .model import MDP, MDPBuilder, TransitionRow
from .strategy import Strategy
from .markov_chain import MarkovChain, induced_markov_chain
from .policy_iteration import (
    EvaluationCache,
    PolicyEvaluation,
    PolicyIterationResult,
    gain_upper_bound,
    policy_iteration,
)
from .mean_payoff import solve_mean_payoff, solve_mean_payoff_batch
from .reachability import end_components, reachable_states, unavoidable_state
from .validation import validate_mdp

__all__ = [
    "MDP",
    "MDPBuilder",
    "TransitionRow",
    "Strategy",
    "MarkovChain",
    "induced_markov_chain",
    "EvaluationCache",
    "PolicyEvaluation",
    "PolicyIterationResult",
    "gain_upper_bound",
    "policy_iteration",
    "solve_mean_payoff",
    "solve_mean_payoff_batch",
    "end_components",
    "reachable_states",
    "unavoidable_state",
    "validate_mdp",
]
