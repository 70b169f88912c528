"""Markov chains induced by fixing a positional strategy in an MDP.

The formal analysis needs two quantities of the induced chain: the stationary
distribution (to evaluate the exact expected relative revenue of a strategy)
and the gain/bias pair (for policy evaluation inside Howard policy iteration).

Both are whole-array operations, so an evaluation costs about one sparse LU:
the chain is one gather from the MDP's flat transition arrays, and each linear
system is one COO matrix, converted once to CSC and solved by one ``spsolve``.
A singular system (the chain is not unichain) raises ``SolverError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..exceptions import ModelError, SolverError
from .model import MDP
from .strategy import Strategy


@dataclass
class MarkovChain:
    """A finite Markov chain with per-transition reward vectors.

    Attributes:
        transition_matrix: Sparse ``(n, n)`` row-stochastic matrix.
        expected_rewards: Dense ``(n, k)`` matrix of expected one-step reward
            vectors per state.
        initial_state: Index of the initial state.
    """

    transition_matrix: sp.csr_matrix
    expected_rewards: np.ndarray
    initial_state: int = 0

    @property
    def num_states(self) -> int:
        """Number of states of the chain."""
        return self.transition_matrix.shape[0]

    # ----------------------------------------------------------------- analysis

    def validate(self, tolerance: float = 1e-8) -> None:
        """Check that every row of the transition matrix sums to one."""
        sums = np.asarray(self.transition_matrix.sum(axis=1)).ravel()
        if not np.allclose(sums, 1.0, atol=tolerance):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ModelError(
                f"row {worst} of the Markov chain sums to {sums[worst]}, expected 1"
            )

    def stationary_distribution(self, tolerance: float = 1e-12) -> np.ndarray:
        """Compute a stationary distribution ``pi`` with ``pi P = pi``.

        The chain is assumed to be unichain (a single recurrent class, possibly
        plus transient states), which holds for every strategy of the paper's
        selfish-mining MDP.  The linear system ``(P^T - I) pi = 0`` with the
        normalisation ``sum(pi) = 1`` is solved directly; for unichain models the
        solution is unique.

        Raises:
            SolverError: If the system is singular (the chain is not unichain)
                or the solve produces an invalid distribution.
        """
        n = self.num_states
        if n == 1:
            return np.ones(1)
        # (P^T - I) with its last equation replaced by the normalisation sum(pi) = 1.
        balance = (self.transition_matrix.T - sp.identity(n, format="csr")).tocoo()
        keep = balance.row != n - 1
        data = np.concatenate([balance.data[keep], np.ones(n)])
        row = np.concatenate([balance.row[keep], np.full(n, n - 1)])
        col = np.concatenate([balance.col[keep], np.arange(n)])
        matrix = sp.coo_matrix((data, (row, col)), shape=(n, n)).tocsc()
        rhs = np.zeros(n)
        rhs[n - 1] = 1.0
        pi = spla.spsolve(matrix, rhs)
        if not np.all(np.isfinite(pi)):
            raise SolverError("singular stationary system: the chain is not unichain")
        pi = np.asarray(pi, dtype=float)
        pi[np.abs(pi) < tolerance] = 0.0
        if np.any(pi < -1e-6):
            raise SolverError("stationary distribution has negative entries; chain may be multichain")
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise SolverError("stationary distribution sums to zero")
        return pi / total

    def long_run_reward(self, weights: Optional[Sequence[float]] = None) -> np.ndarray:
        """Return the long-run average reward vector (or scalar if weighted).

        Args:
            weights: Optional reward-component weights.  If omitted, the full
                vector of per-component long-run averages is returned.
        """
        pi = self.stationary_distribution()
        averages = pi @ self.expected_rewards
        if weights is None:
            return averages
        return np.asarray([float(averages @ np.asarray(weights, dtype=float))])

    def gain_and_bias(
        self, weights: Sequence[float], reference_state: int = 0
    ) -> Tuple[float, np.ndarray]:
        """Solve the unichain Poisson equation ``h + g = r + P h``, ``h[ref] = 0``.

        Returns:
            The scalar gain ``g`` and the bias vector ``h``.

        Raises:
            SolverError: If the system is singular, i.e. the chain is not
                unichain and its gain and bias are not unique.
        """
        n = self.num_states
        rewards = self.expected_rewards @ np.asarray(weights, dtype=float)
        # Unknowns h[0..n-1] and g (column n).  Equation per state s:
        # h[s] - sum_t P[s,t] h[t] + g = r[s]; row n is the normalisation h[ref] = 0.
        poisson = (sp.identity(n, format="csr") - self.transition_matrix).tocoo()
        data = np.concatenate([poisson.data, np.ones(n), [1.0]])
        row = np.concatenate([poisson.row, np.arange(n), [n]])
        col = np.concatenate([poisson.col, np.full(n, n), [reference_state]])
        full = sp.coo_matrix((data, (row, col)), shape=(n + 1, n + 1)).tocsc()
        rhs = np.concatenate([rewards, [0.0]])
        solution = spla.spsolve(full, rhs)
        if not np.all(np.isfinite(solution)):
            raise SolverError(
                "singular Poisson system: the chain is not unichain, so its gain "
                "and bias are not unique"
            )
        h = np.asarray(solution[:n], dtype=float)
        g = float(solution[n])
        return g, h

    def occupancy_ratio(self, numerator_weights: Sequence[float], denominator_weights: Sequence[float]) -> float:
        """Return the ratio of two long-run average rewards.

        This is the quantity the paper calls the expected relative revenue when
        the numerator counts adversarial blocks and the denominator all blocks.

        Raises:
            SolverError: If the denominator's long-run average is not positive.
        """
        averages = self.long_run_reward()
        numerator = float(averages @ np.asarray(numerator_weights, dtype=float))
        denominator = float(averages @ np.asarray(denominator_weights, dtype=float))
        if denominator <= 0:
            raise SolverError(
                f"long-run denominator reward is {denominator}; ratio objective undefined"
            )
        return numerator / denominator


def induced_markov_chain(mdp: MDP, strategy: Strategy) -> MarkovChain:
    """Build the Markov chain obtained by fixing ``strategy`` in ``mdp``."""
    if strategy.mdp is not mdp:
        raise ModelError("strategy does not belong to this MDP")
    rows = strategy.rows
    n = mdp.num_states
    starts = mdp.row_trans_offsets[rows]
    lengths = mdp.row_trans_offsets[rows + 1] - starts
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    picked = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    probs = mdp.trans_prob[picked]
    # Computed before the matrix exists: csr_matrix keeps ``probs`` as its data
    # buffer and sum_duplicates() rewrites it in place.
    expected = np.add.reduceat(probs[:, None] * mdp.trans_reward[picked], indptr[:-1], axis=0)
    matrix = sp.csr_matrix((probs, mdp.trans_succ[picked], indptr), shape=(n, n))
    # Merge duplicate successor columns within a row (e.g. several capped forks).
    matrix.sum_duplicates()
    return MarkovChain(
        transition_matrix=matrix,
        expected_rewards=expected,
        initial_state=mdp.initial_state,
    )
