"""Explicit-state Markov decision process library.

This subpackage is the substrate that replaces the Storm probabilistic model
checker used by the paper: a from-scratch finite MDP container together with
mean-payoff solvers (Howard policy iteration and relative value iteration, plus
a linear-programming formulation kept as a test reference), induced-Markov-chain
stationary analysis and structural (graph) analysis.
"""

from .model import MDP, MDPBuilder, TransitionRow
from .strategy import Strategy
from .markov_chain import MarkovChain, induced_markov_chain
from .value_iteration import RelativeValueIterationResult, relative_value_iteration
from .policy_iteration import (
    EvaluationSlot,
    PolicyEvaluation,
    PolicyIterationResult,
    policy_iteration,
)
from .linear_program import LinearProgramResult, solve_mean_payoff_lp
from .mean_payoff import (
    SOLVER_BACKENDS,
    MeanPayoffSolution,
    solve_mean_payoff,
    solve_mean_payoff_batch,
)
from .reachability import end_components, is_unichain, reachable_states
from .validation import validate_mdp

__all__ = [
    "MDP",
    "MDPBuilder",
    "TransitionRow",
    "Strategy",
    "MarkovChain",
    "induced_markov_chain",
    "RelativeValueIterationResult",
    "relative_value_iteration",
    "EvaluationSlot",
    "PolicyEvaluation",
    "PolicyIterationResult",
    "policy_iteration",
    "LinearProgramResult",
    "solve_mean_payoff_lp",
    "SOLVER_BACKENDS",
    "MeanPayoffSolution",
    "solve_mean_payoff",
    "solve_mean_payoff_batch",
    "end_components",
    "is_unichain",
    "reachable_states",
    "validate_mdp",
]
