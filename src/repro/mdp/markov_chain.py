"""Markov chains induced by fixing a positional strategy in an MDP.

The formal analysis needs two quantities of the induced chain: the stationary
distribution (to evaluate the exact expected relative revenue of a strategy)
and the gain/bias pair (for policy evaluation inside Howard policy iteration).

Both are whole-array operations, so an evaluation costs about one sparse LU.
A chain is held as its generator ``I - P`` in canonical CSR form: columns
sorted, duplicate successors merged, zeros pruned, exactly as scipy computes
``identity - P``.  Every state-action row of an MDP is one candidate row of
that generator, so :func:`row_table` computes all of them once per model, with
one scipy subtraction, and :func:`induced_markov_chain` is one row gather from
that table.  Both linear systems are then assembled directly as CSC arrays,
without sparse arithmetic: the stationary system from the generator rows
negated (``-(1 - p) == p - 1`` exactly in IEEE arithmetic), bit for bit the
arrays of the scipy expression ``(P^T - I)``, and the Poisson system from a
stable sort of the generator by column position.

The Poisson system's columns come in a fill-reducing order that is computed
once per sparsity pattern, not once per strategy.  Every chain of a model
draws its rows from the same union pattern, which does not depend on the
probabilities, so :meth:`MarkovChain.column_rank` takes COLAMD's order of that
pattern (Davis et al., ACM TOMS 30(3), 2004) once and keeps it in the model's
:class:`~repro.mdp.model.ColumnOrder`, which a skeleton shares with every
model it instantiates.  The matrix is assembled with its columns already in
that order, SuperLU factors it with the natural order, and
:meth:`MarkovChain.gain_and_bias` gathers ``(h, g)`` back.  The arrays are
those of ``(I - P)`` with the bias columns permuted, bit for bit.

The Poisson matrix does not depend on the rewards, so
:meth:`MarkovChain.poisson_factor` factors it once (SuperLU via ``splu``) and
:meth:`MarkovChain.gain_and_bias` solves any reward weighting with that
factor; policy iteration keeps the factor of the strategy it evaluates across
solves.  SuperLU's relaxed supernodes and panel blocking (Demmel et al., SIAM
J. Matrix Anal. Appl. 20(3), 1999) pay off on dense fronts; these systems have
almost none (15k-32k L+U entries for 2,896 unknowns at ``d=2,f=2``), so the
factor runs without them (``relax=1, panel_size=1``), which is faster to factor
and to solve at every model size measured.  The setting is fixed, so
refactoring the same chain gives the same factor bit for bit, and reuse
changes no value.  The stationary system is solved once per chain by
``spsolve``.  A singular system (the chain is not unichain) raises
``SolverError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..exceptions import ModelError, SolverError
from .model import MDP, ColumnOrder
from .strategy import Strategy

_NOT_UNICHAIN = (
    "singular Poisson system: the chain is not unichain, so its gain and bias are not unique"
)


@dataclass(frozen=True)
class GeneratorRows:
    """Rows of a chain generator ``I - P`` in canonical CSR form, with expected rewards.

    Row ``r`` is ``e_s - P[r]`` for the state ``s`` that owns it: columns
    sorted, duplicate successors merged and zeros pruned, exactly as scipy's
    ``identity - P`` leaves it.  Each row is canonical on its own, so any
    selection of rows is canonical too.

    Attributes:
        indptr: Row offsets, shape ``(rows + 1,)``.
        indices: Column (state) of every entry.
        data: Value of every entry.
        expected_rewards: Expected one-step reward vector of every row,
            shape ``(rows, k)``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    expected_rewards: np.ndarray


def _row_gather(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets of the CSR made of ``rows``, and the source position of each entry."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    gathered = np.zeros(len(rows) + 1, dtype=indptr.dtype)
    np.cumsum(lengths, out=gathered[1:])
    picked = np.repeat(starts - gathered[:-1], lengths) + np.arange(gathered[-1])
    return gathered, picked


def row_table(mdp: MDP) -> GeneratorRows:
    """Return the generator row of every state-action row of ``mdp``.

    Built on the first call and kept on the model: the chain of any strategy
    is the selection of its chosen rows.
    """
    table = mdp._row_table
    if table is None:
        # Copies: csr_matrix keeps the buffers it is given, and sum_duplicates()
        # rewrites them in place; the model's arrays must never change.
        probabilities = sp.csr_matrix(
            (mdp.trans_prob.copy(), mdp.trans_succ.copy(), mdp.row_trans_offsets.copy()),
            shape=(mdp.num_rows, mdp.num_states),
        )
        expected = np.add.reduceat(
            mdp.trans_prob[:, None] * mdp.trans_reward, mdp.row_trans_offsets[:-1], axis=0
        )
        table = mdp._row_table = _generator_rows(probabilities, mdp.row_state, expected)
    return table


def _generator_rows(
    probabilities: sp.csr_matrix, owners: np.ndarray, expected_rewards: np.ndarray
) -> GeneratorRows:
    """Rows ``E - P`` with ``E[r, owners[r]] = 1``; merges ``probabilities`` in place."""
    probabilities.sum_duplicates()
    count = len(owners)
    own = sp.csr_matrix(
        (np.ones(count), owners, np.arange(count + 1)), shape=probabilities.shape
    )
    generator = own - probabilities
    return GeneratorRows(
        generator.indptr, generator.indices, generator.data, np.asarray(expected_rewards)
    )


def _fill_reducing_rank(
    num_states: int, owners: np.ndarray, successors: np.ndarray, reference_state: int
) -> np.ndarray:
    """Column position of every state in the Poisson systems of one sparsity pattern.

    The pattern is the union of the Poisson systems whose row ``s`` has entries
    in the columns ``successors[owners == s]``: those entries, the diagonal,
    the gain column ``n`` and the row ``h[ref] = 0``.  SuperLU computes COLAMD's
    order, and its elimination-tree postorder, from the pattern alone.  An
    incomplete factorization of a strictly diagonally dominant proxy with that
    pattern returns that order without the full factorization's fill, and
    never meets a singular pivot.  The states keep COLAMD's relative order and
    the gain column goes last; the position is held in the narrowest unsigned
    dtype, which lets numpy's stable sort use radix sort up to 65,536 states.
    """
    n = num_states
    rows = np.concatenate((owners, np.arange(n + 1), np.arange(n), [n]))
    cols = np.concatenate((successors, np.arange(n + 1), np.full(n, n), [reference_state]))
    proxy = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + 1, n + 1))
    proxy.data[:] = 1.0  # duplicates were summed
    proxy.setdiag(n + 2.0)
    position = spla.spilu(proxy, drop_tol=0.5, fill_factor=1, diag_pivot_thresh=0).perm_c
    rank = np.argsort(np.argsort(position[:n])).astype(np.min_scalar_type(n))
    rank.flags.writeable = False
    return rank


class MarkovChain:
    """A finite Markov chain with per-state expected reward vectors.

    The chain is stored as its generator rows ``I - P`` (:class:`GeneratorRows`).

    Attributes:
        initial_state: Index of the initial state.
    """

    _rows: GeneratorRows
    _transition_matrix: Optional[sp.csr_matrix]
    #: The model and chosen rows an induced chain gathers its transition
    #: matrix from; ``None`` for a chain of an explicit matrix.
    _source: Optional[Tuple[MDP, np.ndarray]]
    #: The model's column order for an induced chain, a private one otherwise.
    _order: ColumnOrder

    def __init__(
        self,
        transition_matrix: sp.spmatrix,
        expected_rewards: np.ndarray,
        initial_state: int = 0,
    ) -> None:
        """Build the chain of an explicit row-stochastic ``(n, n)`` matrix."""
        matrix = sp.csr_matrix(transition_matrix, copy=True)
        self._rows = _generator_rows(matrix, np.arange(matrix.shape[0]), expected_rewards)
        self._transition_matrix = matrix
        self._source = None
        self._order = ColumnOrder()
        self.initial_state = int(initial_state)

    @classmethod
    def _induced(cls, mdp: MDP, rows: np.ndarray) -> "MarkovChain":
        table = row_table(mdp)
        indptr, picked = _row_gather(table.indptr, rows)
        chain = cls.__new__(cls)
        chain._rows = GeneratorRows(
            indptr, table.indices[picked], table.data[picked], table.expected_rewards[rows]
        )
        chain._transition_matrix = None
        chain._source = (mdp, rows)
        chain._order = mdp.column_order
        chain.initial_state = mdp.initial_state
        return chain

    @property
    def num_states(self) -> int:
        """Number of states of the chain."""
        return len(self._rows.indptr) - 1

    @property
    def expected_rewards(self) -> np.ndarray:
        """Dense ``(n, k)`` matrix of expected one-step reward vectors per state."""
        return self._rows.expected_rewards

    @property
    def transition_matrix(self) -> sp.csr_matrix:
        """Sparse ``(n, n)`` row-stochastic matrix, built on first access."""
        if self._transition_matrix is None:
            assert self._source is not None
            mdp, rows = self._source
            indptr, picked = _row_gather(mdp.row_trans_offsets, rows)
            matrix = sp.csr_matrix(
                (mdp.trans_prob[picked], mdp.trans_succ[picked], indptr),
                shape=(self.num_states, self.num_states),
            )
            # Merge duplicate successor columns within a row (e.g. several capped forks).
            matrix.sum_duplicates()
            self._transition_matrix = matrix
        return self._transition_matrix

    # ----------------------------------------------------------------- analysis

    def validate(self, tolerance: float = 1e-8) -> None:
        """Check that every row of the transition matrix sums to one."""
        sums = np.asarray(self.transition_matrix.sum(axis=1)).ravel()
        if not np.allclose(sums, 1.0, atol=tolerance):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ModelError(
                f"row {worst} of the Markov chain sums to {sums[worst]}, expected 1"
            )

    def stationary_matrix(self) -> sp.csc_matrix:
        """Return ``(P^T - I)`` with its last equation replaced by ``sum(pi) = 1``.

        Column ``i`` is row ``i`` of the generator negated, without its entry
        in column ``n - 1``, followed by a one in row ``n - 1``.
        """
        n = self.num_states
        indptr, indices, data = self._rows.indptr, self._rows.indices, self._rows.data
        keep = indices != n - 1
        kept_before = np.zeros(len(indices) + 1, dtype=indptr.dtype)
        np.cumsum(keep, out=kept_before[1:])
        kept_ptr = kept_before[indptr]
        ends = kept_ptr[1:]
        return sp.csc_matrix(
            (
                np.insert(-data[keep], ends, 1.0),
                np.insert(indices[keep], ends, n - 1),
                kept_ptr + np.arange(n + 1, dtype=kept_ptr.dtype),
            ),
            shape=(n, n),
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
        rhs = np.zeros(n)
        rhs[n - 1] = 1.0
        pi = spla.spsolve(self.stationary_matrix(), rhs)
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
        """Return the long-run average reward of every component, or of one weighting.

        Args:
            weights: Optional reward-component weights.  If omitted, the vector
                of per-component long-run averages is returned; otherwise a
                1-element array holding the weighted long-run average.
        """
        pi = self.stationary_distribution()
        averages = pi @ self.expected_rewards
        if weights is None:
            return averages
        return np.asarray([float(averages @ np.asarray(weights, dtype=float))])

    def column_rank(self) -> np.ndarray:
        """Return the Poisson column position of every state; the gain's column is last.

        Computed from the union pattern of the chain's model (or of the chain
        itself, for an explicit matrix) on first use, and shared with every
        chain of that model.
        """
        order = self._order
        if order.rank is None:
            if self._source is None:
                successors = self._rows.indices
                owners = np.repeat(np.arange(self.num_states), np.diff(self._rows.indptr))
            else:
                mdp = self._source[0]
                successors = mdp.trans_succ
                owners = np.repeat(mdp.row_state, np.diff(mdp.row_trans_offsets))
            order.rank = _fill_reducing_rank(
                self.num_states, owners, successors, self.initial_state
            )
        return order.rank

    def poisson_matrix(self, reference_state: int = 0) -> sp.csc_matrix:
        """Return the unichain Poisson system ``h + g = r + P h``, ``h[ref] = 0``.

        Unknowns are ``h[0..n-1]``, in columns ``rank = column_rank()``, and
        ``g`` in column ``n``.  Equation ``s`` is ``h[s] - sum_t P[s,t] h[t] + g
        = r[s]``; equation ``n`` is the normalisation ``h[ref] = 0``.
        """
        n = self.num_states
        rank = self.column_rank()
        indptr, indices, data = self._rows.indptr, self._rows.indices, self._rows.data
        # CSR to CSC: a stable sort by column position keeps each column's rows increasing.
        position = rank[indices]
        order = np.argsort(position, kind="stable")
        rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))[order]
        values = data[order]
        counts = np.bincount(position, minlength=n)
        counts[rank[reference_state]] += 1
        col_ptr = np.zeros(n + 2, dtype=indptr.dtype)
        np.cumsum(counts, out=col_ptr[1 : n + 1])
        col_ptr[n + 1] = col_ptr[n] + n
        # Row n is the last entry of column ref; column n holds the ones of g.
        at = col_ptr[rank[reference_state] + 1] - 1
        return sp.csc_matrix(
            (
                np.concatenate((values[:at], [1.0], values[at:], np.ones(n))),
                np.concatenate((rows[:at], [n], rows[at:], np.arange(n)), dtype=rows.dtype),
                col_ptr,
            ),
            shape=(n + 1, n + 1),
        )

    def poisson_factor(self, reference_state: int = 0) -> spla.SuperLU:
        """Factor :meth:`poisson_matrix` for ``reference_state``.

        The columns are already in the chain's fill-reducing order, so SuperLU
        keeps their order (``permc_spec="NATURAL"``).  The system has almost
        no fill, so SuperLU relaxes no supernodes and factors one column per
        panel (``relax=1, panel_size=1``): its supernodal kernels pay off only
        on dense fronts, and without them both the factor and every
        ``solve`` are faster at every model size measured (at ``d=2,f=2``
        about 2.2x and 3x, see ``docs/architecture.md``).  Gains and biases
        move by about 1e-15 against SuperLU's default setting, and no
        certified value moves.  The matrix depends on the transition matrix
        and the reference state only, never on the rewards, so one factor
        serves every reward weighting passed to :meth:`gain_and_bias`; the
        setting is fixed, so factoring the same chain again gives the same
        factor bit for bit.

        Raises:
            SolverError: If the system is exactly singular, i.e. the chain is
                not unichain and its gain and bias are not unique.
        """
        try:
            return spla.splu(
                self.poisson_matrix(reference_state),
                permc_spec="NATURAL",
                relax=1,
                panel_size=1,
            )
        except RuntimeError as exc:
            raise SolverError(_NOT_UNICHAIN) from exc

    def gain_and_bias(
        self,
        weights: Sequence[float],
        reference_state: int = 0,
        factor: Optional[spla.SuperLU] = None,
    ) -> Tuple[float, np.ndarray]:
        """Solve the unichain Poisson equation ``h + g = r + P h``, ``h[ref] = 0``.

        Args:
            weights: Reward-component weights giving the scalar reward ``r``.
            reference_state: State whose bias is pinned to zero.
            factor: This chain's :meth:`poisson_factor` for ``reference_state``,
                to skip refactoring when the chain is solved again under other
                weights; factored here when omitted.

        Returns:
            The scalar gain ``g`` and the bias vector ``h``.

        Raises:
            SolverError: If the system is singular, i.e. the chain is not
                unichain and its gain and bias are not unique.
        """
        n = self.num_states
        if factor is None:
            factor = self.poisson_factor(reference_state)
        rewards = self.expected_rewards @ np.asarray(weights, dtype=float)
        solution = factor.solve(np.concatenate([rewards, [0.0]]))
        # A numerically singular factor solves without error but yields NaN/inf.
        if not np.all(np.isfinite(solution)):
            raise SolverError(_NOT_UNICHAIN)
        h = np.asarray(solution[self.column_rank()], dtype=float)
        g = float(solution[n])
        return g, h


def induced_markov_chain(mdp: MDP, strategy: Strategy) -> MarkovChain:
    """Build the Markov chain obtained by fixing ``strategy`` in ``mdp``."""
    if strategy.mdp is not mdp:
        raise ModelError("strategy does not belong to this MDP")
    return MarkovChain._induced(mdp, strategy.rows)
