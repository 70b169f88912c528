"""Howard policy iteration for unichain mean-payoff MDPs.

Each iteration evaluates the current positional strategy exactly (gain / bias via
a sparse linear solve on the induced Markov chain) and then improves it greedily.
For unichain models the procedure terminates after finitely many iterations with
an optimal positional strategy and the exact optimal gain, which makes it the
one mean-payoff solver of the formal analysis.  It has no settings: the
improvement threshold (:data:`IMPROVEMENT_THRESHOLD`) and the round budget
(:data:`MAX_ROUNDS`) are module constants, read at every call.

A solve forms one reward vector, the expected reward of every state-action row
under the weights (``row_table(mdp).expected_rewards @ weights``).  A round
then costs one gather of the chosen rows' rewards as the Poisson right-hand
side, one triangular solve with the strategy's factor, and one greedy pass,
which also reports whether any row switched: no switch is the fixed point.  A
strategy is checked against its model when it is built and its rows are
read-only, so a start from the same model is trusted, a start from another
model is checked once, and the rows the greedy step makes are never checked.

A strategy's Poisson matrix does not depend on the reward weights, so the
evaluation of a strategy -- its rows, induced chain and sparse LU factor, one
:class:`PolicyEvaluation` -- can outlive the solve that built it.  A caller
that solves the same model again under other weights passes one
:class:`EvaluationCache` to every solve, and each solve looks a strategy up in
it before factoring.  A search returns to strategies it has factored before
(45% of the factorizations on the Figure 2 ``d=1,f=1`` grid repeat one, 17% at
``d=2,f=1``, 9% at ``d=2,f=2``).  The cache keeps every factor while their
L+U entries stay under :data:`CACHED_FACTOR_ENTRIES`, which holds all of a
``d<=2,f=1`` search and not one ``d=2,f=2`` factor; past it the cache keeps
only the latest evaluation and frees it before another factor is built, so at
most one large factor is alive at a time.  Refactoring the same rows gives the
same factor bit for bit, so a hit never changes a value, only the number of
factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse.linalg as spla

from ..exceptions import ConvergenceError, ModelError
from .markov_chain import MarkovChain, row_table
from .model import MDP
from .strategy import Strategy

#: L+U entries (``SuperLU.nnz``) an :class:`EvaluationCache` holds before a miss
#: empties it.  The distinct factors of one Figure 2 search total at most 9,702
#: entries at ``d=2,f=1`` (610 at ``d=1,f=1``); one ``d=2,f=2`` factor has
#: 15,232 to 48,018.
CACHED_FACTOR_ENTRIES = 12_000

#: A row replaces a state's chosen row only if its value ``r + P h`` beats the
#: chosen row's by more than this; the standard rule that makes policy
#: iteration terminate.
IMPROVEMENT_THRESHOLD = 1e-9

#: Policy-improvement rounds a solve may take before it raises
#: :class:`~repro.exceptions.ConvergenceError`.
MAX_ROUNDS = 100_000


@dataclass
class PolicyEvaluation:
    """A strategy's induced chain with its Poisson system factored once.

    Attributes:
        rows: The evaluated row choices (one per state).
        chain: The Markov chain induced by ``rows``.
        factor: ``chain.poisson_factor`` at the model's initial state.
    """

    rows: np.ndarray
    chain: MarkovChain
    factor: spla.SuperLU


class EvaluationCache:
    """The policy evaluations of one search over one model, keyed by the bytes of their rows.

    The owner keeps the cache and passes it to every solve of the search; the
    cache is the only holder of its evaluations, so dropping it frees every
    factor.  A miss factors the rows and keeps the evaluation, after freeing
    every evaluation held if their factors have :data:`CACHED_FACTOR_ENTRIES`
    L+U entries or more.  Every miss builds its Poisson matrix in the calling
    thread's :func:`~repro.mdp.markov_chain.thread_container` of its size,
    which the thread keeps across searches and empties after each
    factorization, so a factorization constructs no scipy object but the
    factor, and a cache holds no container.
    """

    def __init__(self) -> None:
        self._held: Dict[bytes, PolicyEvaluation] = {}
        self._entries = 0

    def evaluation(self, mdp: MDP, rows: np.ndarray) -> PolicyEvaluation:
        """Return the evaluation of the valid ``int64`` row choice ``rows`` of ``mdp``."""
        key = rows.tobytes()
        evaluation = self._held.get(key)
        if evaluation is None:
            if self._entries >= CACHED_FACTOR_ENTRIES:
                self._held.clear()
                self._entries = 0
            evaluation = self._held[key] = _evaluate(mdp, rows)
            self._entries += evaluation.factor.nnz
        return evaluation


@dataclass
class PolicyIterationResult:
    """Result of Howard policy iteration.

    Attributes:
        gain: Optimal mean payoff (exact up to linear-algebra accuracy).
        bias: Bias (relative value) vector of the optimal strategy.
        strategy: The optimal positional strategy found.
        iterations: Number of policy-improvement rounds performed.
    """

    gain: float
    bias: np.ndarray
    strategy: Strategy
    iterations: int


def _row_values(mdp: MDP, row_rewards: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Return ``r + P h`` of every state-action row: its reward plus the expected next bias."""
    continuation = mdp.trans_prob * bias[mdp.trans_succ]
    return row_rewards + np.add.reduceat(continuation, mdp.row_trans_offsets[:-1])


def gain_upper_bound(mdp: MDP, reward_weights: Sequence[float], bias: np.ndarray) -> float:
    """Return ``max_s (max_a (r + P h)(s, a) - h(s))``, an upper bound on the optimal gain.

    One Bellman pass of the bias vector ``h`` under the weights' reward ``r``.
    The bound holds for any ``h``: a strategy's gain is ``pi (r + P h - h)``
    over its own rows, with ``pi`` its stationary distribution (``pi P =
    pi``), an average of values none of which exceeds the maximum.  With an
    optimal strategy's bias the bound is the optimal gain.
    """
    row_rewards = row_table(mdp).expected_rewards @ np.asarray(reward_weights, dtype=float)
    return float((_row_values(mdp, row_rewards, bias) - bias[mdp.row_state]).max())


def _greedy_improvement(
    mdp: MDP, row_rewards: np.ndarray, bias: np.ndarray, current_rows: np.ndarray
) -> Tuple[np.ndarray, bool]:
    """Return the improved row choices and whether any row switched.

    Ties are broken in favour of the incumbent; without a switch the incumbent
    itself is returned, and a switch returns a new array.
    """
    row_values = _row_values(mdp, row_rewards, bias)
    state_best = np.maximum.reduceat(row_values, mdp.state_row_offsets[:-1])
    improvable = state_best > row_values[current_rows] + IMPROVEMENT_THRESHOLD
    # count_nonzero is one C call; ndarray.any goes through Python first.
    if not np.count_nonzero(improvable):
        return current_rows, False
    # Written last to first, so each state keeps its first row near its best value.
    candidates = (row_values >= state_best[mdp.row_state] - 1e-12).nonzero()[0][::-1]
    best_rows = np.full(mdp.num_states, -1, dtype=np.int64)
    best_rows[mdp.row_state[candidates]] = candidates
    switched = improvable & (best_rows != current_rows)
    if not np.count_nonzero(switched):
        return current_rows, False
    return np.where(switched, best_rows, current_rows), True


def policy_iteration(
    mdp: MDP,
    reward_weights: Sequence[float],
    *,
    initial_strategy: Optional[Strategy] = None,
    evaluation_cache: Optional[EvaluationCache] = None,
) -> PolicyIterationResult:
    """Solve the mean-payoff MDP with Howard policy iteration.

    A row switches only when it improves on the chosen one by more than
    :data:`IMPROVEMENT_THRESHOLD`, and a solve takes at most
    :data:`MAX_ROUNDS` rounds; both are read at every call.

    Args:
        mdp: The model to solve (assumed unichain under every strategy).
        reward_weights: Weights combining reward components into the scalar
            reward being maximised.
        initial_strategy: Optional warm start (e.g. the previous binary-search
            iterate); defaults to the first-action strategy.  A strategy of
            ``mdp`` was checked when it was built; one of another model is
            checked against ``mdp`` here.
        evaluation_cache: Optional cache shared by the solves of this same
            model; every strategy is looked up in it before it is factored,
            and every evaluation built is offered to it.  A solve without one
            uses a cache of its own.

    Raises:
        ModelError: If ``reward_weights`` does not hold one weight per reward
            component, or the initial strategy does not fit ``mdp``.
        ConvergenceError: If no fixed point is reached within :data:`MAX_ROUNDS` rounds.
    """
    weights = np.asarray(reward_weights, dtype=float)
    if weights.shape != (mdp.num_reward_components,):
        raise ModelError(
            f"expected {mdp.num_reward_components} reward weights, got {weights.shape}"
        )
    row_rewards = row_table(mdp).expected_rewards @ weights
    if initial_strategy is None:
        rows = mdp.first_row_choice()
    elif initial_strategy.mdp is mdp:
        rows = initial_strategy.rows
    else:
        rows = Strategy(mdp, initial_strategy.rows).rows
    cache = evaluation_cache if evaluation_cache is not None else EvaluationCache()

    max_rounds = MAX_ROUNDS
    for iterations in range(1, max_rounds + 1):
        evaluation = cache.evaluation(mdp, rows)
        gain, bias = evaluation.chain.gain_and_bias(row_rewards[rows], evaluation.factor)
        # Leave the cache the only holder, so it can free the factor before the next.
        del evaluation
        rows, switched = _greedy_improvement(mdp, row_rewards, bias, rows)
        if not switched:
            # The rows are the start's or the greedy step's own: valid, and never written.
            return PolicyIterationResult(gain, bias, Strategy._trusted(mdp, rows), iterations)

    raise ConvergenceError(f"policy iteration did not converge within {max_rounds} iterations")


def _evaluate(mdp: MDP, rows: np.ndarray) -> PolicyEvaluation:
    """Build the induced chain of ``rows`` and factor its Poisson system."""
    # A private copy: the returned strategy shares ``rows`` with its caller.
    rows = rows.copy()
    chain = MarkovChain(mdp, rows)
    return PolicyEvaluation(rows, chain, chain.poisson_factor())
