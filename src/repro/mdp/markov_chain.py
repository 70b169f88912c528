"""Markov chains induced by fixing a positional strategy in an MDP.

The formal analysis needs two quantities of the induced chain: the stationary
distribution (to evaluate the exact expected relative revenue of a strategy)
and the gain/bias pair (for policy evaluation inside Howard policy iteration).

Both are whole-array operations, so an evaluation costs about one sparse LU.
A chain is its model plus one chosen row per state.  Every state-action row of
an MDP is one candidate row of the chain's generator ``I - P``, so
:func:`row_table` computes all of them once per model in canonical CSR form:
columns sorted, duplicate successors merged, zeros pruned, bit for bit as
scipy computes ``identity - P``.  Their merged pattern depends on the
successors only, so the model's :class:`~repro.mdp.model.ColumnOrder` keeps it
as a :class:`RowPattern`, with the entry every transition and every row's
diagonal falls in; a model's table is then one ``np.bincount`` of its
probabilities into those entries, negated, ``1 - x`` on the diagonal, and its
exact zeros dropped.  A table that drops none shares the pattern's index
arrays.  The stationary system is a gather of the chosen rows from that
table, negated (``-(1 - p) == p - 1`` exactly in IEEE arithmetic), with each
column's entry in row ``n - 1`` dropped and a one scattered after the rest:
bit for bit the arrays of the scipy expression ``(P^T - I)``.

The Poisson system is never gathered row by row.  Every chain of a model draws
its rows from one union pattern, which depends on the successors only, never
on the probabilities, so a skeleton fixes it and every model the skeleton
instantiates shares it.  Its columns come in a fill-reducing order:
:meth:`MarkovChain.column_rank` takes COLAMD's order of the union pattern
(Davis et al., ACM TOMS 30(3), 2004) once.  Beside it the model's
:class:`~repro.mdp.model.ColumnOrder` keeps a :class:`PoissonTemplate`: the
CSC index arrays of every row's Poisson entries, in column-position order, with
the ``(n, ref)`` entry and the ones column of ``g``.  Each model gathers its
values into that order once (:func:`poisson_system`), and the Poisson matrix of
a strategy is then a boolean mask of its chosen rows, the kept entries counted
per column and summed into the column offsets, and two gathers: no sort and no
row gather.  The arrays are those of ``(I - P)`` with the bias columns
permuted, bit for bit.  A model whose table pruned an entry of the skeleton's
pattern (a zero probability, or a probability-1 self-loop whose diagonal
cancels) gets a template of its own table's pattern.  A chain of an explicit
matrix is the chain of a model with one row per state.

The Poisson matrix does not depend on the rewards, so
:meth:`MarkovChain.poisson_factor` factors it once (SuperLU via ``splu``) and
:meth:`MarkovChain.gain_and_bias` solves any reward vector with that factor;
its caller forms the vector, so policy iteration gathers it from one
per-solve vector of row rewards, and keeps factors across solves in an
:class:`~repro.mdp.policy_iteration.EvaluationCache`.  The matrix is built
in a :func:`poisson_container` by assigning its public arrays, flagged
canonical, so no factorization runs scipy's constructor checks; the cache
holds one container for every factorization of its search.  SuperLU's relaxed
supernodes and panel blocking (Demmel et al., SIAM J. Matrix Anal. Appl.
20(3), 1999) pay off on dense fronts; these systems have almost none (15k-48k
L+U entries for 2,896 unknowns at ``d=2,f=2``), so the factor runs without
them (``relax=1, panel_size=1``), which is faster to factor and to solve at
every model size measured.  The setting is fixed, so refactoring the same
chain gives the same factor bit for bit, and reuse changes no value.  The
stationary system is solved once per chain by ``spsolve``.  A singular system
(the chain is not unichain) raises ``SolverError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..exceptions import ModelError, SolverError
from .model import MDP
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


class RowPattern(NamedTuple):
    """The merged canonical CSR pattern of ``E - P`` over every row, before pruning.

    ``indptr`` and ``indices`` hold the successors of every row plus its
    owner, columns sorted and merged, as ``int32`` like scipy's arrays of
    ``identity - P``; transition ``t`` adds to entry ``slot[t]`` and row
    ``r``'s owner sits in entry ``diagonal[r]``.  The successors fix it, never
    the probabilities, so a skeleton's models share it.  Every array is
    read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    diagonal: np.ndarray


class PoissonTemplate(NamedTuple):
    """CSC index arrays of the union of every row's Poisson entries, in column-position order.

    Entry ``k`` comes from pattern row ``row[k]`` and sits in equation
    ``indices[k]``; within a column the equations increase.  The ``(n, ref)``
    entry (the last of column ``rank[ref]``) and the ones column of ``g`` (the
    last column) carry the row ``num_rows``, which every chain chooses.
    Column ``j`` starts at entry ``starts[j]``; the columns ``empty`` have no
    entry.  ``source[k]`` is the position of entry ``k`` among the pattern's
    entries followed by the ``(n, ref)`` entry and the ``n`` ones: a model
    gathers its values from there.  Every array is read-only.
    """

    row: np.ndarray
    indices: np.ndarray
    starts: np.ndarray
    empty: np.ndarray
    source: np.ndarray


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
        expected = np.add.reduceat(
            mdp.trans_prob[:, None] * mdp.trans_reward, mdp.row_trans_offsets[:-1], axis=0
        )
        table = mdp._row_table = _generator_table(mdp, expected)
    return table


def _row_pattern(mdp: MDP) -> RowPattern:
    """The merged pattern of ``E - P`` over every row of ``mdp``, kept in its column order."""
    order = mdp.column_order
    if order.pattern is None:
        n = mdp.num_states
        # Entry (r, c) has key r * n + c, so sorted keys are the canonical CSR order.
        row_keys = np.arange(mdp.num_rows + 1, dtype=np.int64) * n
        transition_keys = np.repeat(row_keys[:-1], np.diff(mdp.row_trans_offsets)) + mdp.trans_succ
        keys, entry = np.unique(
            np.concatenate((transition_keys, row_keys[:-1] + mdp.row_state)), return_inverse=True
        )
        entry = entry.astype(np.int32)
        pattern = RowPattern(
            np.searchsorted(keys, row_keys).astype(np.int32),
            (keys % n).astype(np.int32),
            entry[: mdp.num_transitions],
            entry[mdp.num_transitions :],
        )
        for array in pattern:
            array.flags.writeable = False
        order.pattern = pattern
    return order.pattern


def _generator_table(mdp: MDP, expected_rewards: np.ndarray) -> GeneratorRows:
    """Rows ``E - P`` of ``mdp``: its probabilities summed into the skeleton's pattern.

    Off the diagonal an entry is the negated sum of its transitions'
    probabilities, ``0 - x`` in scipy's subtraction; on it, ``1 - x``.  A sum
    of two probabilities is scipy's bit for bit in either order, and no row of
    the selfish-mining models repeats a successor more than twice.  Exact
    zeros are dropped as scipy drops them; a table that drops none shares the
    pattern's read-only index arrays.
    """
    pattern = _row_pattern(mdp)
    sums = np.bincount(pattern.slot, weights=mdp.trans_prob, minlength=len(pattern.indices))
    data = np.negative(sums)
    data[pattern.diagonal] = 1.0 - sums[pattern.diagonal]
    keep = data != 0.0
    if keep.all():
        return GeneratorRows(pattern.indptr, pattern.indices, data, expected_rewards)
    kept_before = np.zeros(len(keep) + 1, dtype=pattern.indptr.dtype)
    np.cumsum(keep, out=kept_before[1:])
    return GeneratorRows(
        kept_before[pattern.indptr], pattern.indices[keep], data[keep], expected_rewards
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
    the gain column goes last.
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


def _column_rank(mdp: MDP) -> np.ndarray:
    """The Poisson column position of every state of ``mdp``, from its union pattern."""
    order = mdp.column_order
    if order.rank is None:
        owners = np.repeat(mdp.row_state, np.diff(mdp.row_trans_offsets))
        order.rank = _fill_reducing_rank(
            mdp.num_states, owners, mdp.trans_succ, mdp.initial_state
        )
    return order.rank


def _poisson_template(
    indptr: np.ndarray,
    indices: np.ndarray,
    owners: np.ndarray,
    rank: np.ndarray,
    reference_state: int,
) -> PoissonTemplate:
    """Template of the Poisson systems of the CSR row pattern ``(indptr, indices)``.

    Row ``r`` of the pattern is owned by state ``owners[r]``, whose equation it
    fills when a strategy chooses it.
    """
    n = len(rank)
    num_rows = len(owners)
    pattern_row = np.repeat(np.arange(num_rows), np.diff(indptr))
    row = np.concatenate((pattern_row, np.full(n + 1, num_rows)))
    equation = np.concatenate((owners[pattern_row], [n], np.arange(n)))
    column = np.concatenate((rank[indices], [rank[reference_state]], np.full(n, n)))
    source = np.lexsort((equation, column))
    counts = np.bincount(column, minlength=n + 1)
    template = PoissonTemplate(
        row[source].astype(np.int32),
        equation[source].astype(np.int32),
        np.cumsum(counts) - counts,
        np.flatnonzero(counts == 0),
        source.astype(np.int32),
    )
    for array in template:
        array.flags.writeable = False
    return template


def _skeleton_template(mdp: MDP) -> PoissonTemplate:
    """Template of every row's successors and owner: the pattern of ``E - P`` before pruning."""
    pattern = _row_pattern(mdp)
    return _poisson_template(
        pattern.indptr, pattern.indices, mdp.row_state, _column_rank(mdp), mdp.initial_state
    )


def poisson_system(
    mdp: MDP, reference_state: Optional[int] = None
) -> Tuple[PoissonTemplate, np.ndarray]:
    """Return the Poisson template of ``mdp`` and the model's values in its order.

    For the model's initial state (the default reference) the template is the
    skeleton's, kept in its :class:`~repro.mdp.model.ColumnOrder`, and the
    values are gathered once and kept on the model.  Another reference state
    gets a template of its own, built on every call.
    """
    n = mdp.num_states
    reference = mdp.initial_state if reference_state is None else reference_state
    kept = reference == mdp.initial_state
    if kept and mdp._poisson_system is not None:
        return mdp._poisson_system
    table = row_table(mdp)
    template = None
    if kept:
        order = mdp.column_order
        if order.template is None:
            order.template = _skeleton_template(mdp)
        # Equal sizes: the table pruned no entry of the skeleton's pattern.
        if len(order.template.source) - n - 1 == len(table.indices):
            template = order.template
    if template is None:
        template = _poisson_template(
            table.indptr, table.indices, mdp.row_state, _column_rank(mdp), reference
        )
    system = (template, np.concatenate((table.data, [1.0], np.ones(n)))[template.source])
    if kept:
        mdp._poisson_system = system
    return system


def poisson_container(num_states: int) -> sp.csc_matrix:
    """An empty CSC matrix of the Poisson system's shape, for :meth:`MarkovChain.poisson_matrix`.

    Filling it assigns its public arrays, so no factorization pays for the
    checks of scipy's constructor.  A container belongs to one caller at a
    time (one search); it is never kept on a model or skeleton, which threads
    share.
    """
    return sp.csc_matrix((num_states + 1, num_states + 1))


class MarkovChain:
    """A finite Markov chain with per-state expected reward vectors.

    The chain is a model and the row it chooses in every state.

    Attributes:
        initial_state: Index of the initial state.
    """

    _mdp: MDP
    #: The chosen row of every state (``int64``).
    _rows: np.ndarray
    _gathered: Optional[GeneratorRows]
    _expected_rewards: Optional[np.ndarray]
    _transition_matrix: Optional[sp.csr_matrix]

    def __init__(
        self,
        transition_matrix: sp.spmatrix,
        expected_rewards: np.ndarray,
        initial_state: int = 0,
    ) -> None:
        """Build the chain of an explicit row-stochastic ``(n, n)`` matrix.

        It is the chain of a model with one row per state, whose transitions
        carry their state's expected reward and whose row table is built from
        ``expected_rewards`` as given.
        """
        matrix = sp.csr_matrix(transition_matrix, copy=True)
        matrix.sum_duplicates()
        n = matrix.shape[0]
        expected_rewards = np.asarray(expected_rewards)
        one_row_each = np.arange(n)
        mdp = MDP(
            num_states=n,
            initial_state=initial_state,
            row_state=one_row_each,
            state_row_offsets=np.arange(n + 1),
            row_trans_offsets=matrix.indptr.astype(np.int64),
            trans_succ=matrix.indices.astype(np.int64),
            trans_prob=matrix.data,
            trans_reward=np.repeat(expected_rewards, np.diff(matrix.indptr), axis=0),
            row_actions=[None] * n,
        )
        mdp._row_table = _generator_table(mdp, expected_rewards)
        self._bind(mdp, one_row_each)
        self._transition_matrix = matrix

    @classmethod
    def _induced(cls, mdp: MDP, rows: np.ndarray) -> "MarkovChain":
        """The chain of the valid row choice ``rows``, which it keeps without copying."""
        chain = cls.__new__(cls)
        chain._bind(mdp, rows)
        return chain

    def _bind(self, mdp: MDP, rows: np.ndarray) -> None:
        self._mdp = mdp
        self._rows = rows
        self._gathered = None
        self._expected_rewards = None
        self._transition_matrix = None
        self.initial_state = mdp.initial_state

    @property
    def num_states(self) -> int:
        """Number of states of the chain."""
        return self._mdp.num_states

    @property
    def expected_rewards(self) -> np.ndarray:
        """Dense ``(n, k)`` matrix of expected one-step reward vectors per state."""
        if self._expected_rewards is None:
            self._expected_rewards = row_table(self._mdp).expected_rewards[self._rows]
        return self._expected_rewards

    @property
    def transition_matrix(self) -> sp.csr_matrix:
        """Sparse ``(n, n)`` row-stochastic matrix, built on first access."""
        if self._transition_matrix is None:
            mdp = self._mdp
            indptr, picked = _row_gather(mdp.row_trans_offsets, self._rows)
            matrix = sp.csr_matrix(
                (mdp.trans_prob[picked], mdp.trans_succ[picked], indptr),
                shape=(self.num_states, self.num_states),
            )
            # Merge duplicate successor columns within a row (e.g. several capped forks).
            matrix.sum_duplicates()
            self._transition_matrix = matrix
        return self._transition_matrix

    def _generator(self) -> GeneratorRows:
        """The chain's generator ``I - P``, gathered from the model's row table on first use."""
        if self._gathered is None:
            table = row_table(self._mdp)
            indptr, picked = _row_gather(table.indptr, self._rows)
            self._gathered = GeneratorRows(
                indptr, table.indices[picked], table.data[picked], self.expected_rewards
            )
        return self._gathered

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
        generator = self._generator()
        indptr, indices, data = generator.indptr, generator.indices, generator.data
        keep = indices != n - 1
        kept_before = np.zeros(len(indices) + 1, dtype=indptr.dtype)
        np.cumsum(keep, out=kept_before[1:])
        # Column i holds the kept entries of row i and then its one.
        starts = kept_before[indptr] + np.arange(n + 1, dtype=indptr.dtype)
        ones = starts[1:] - 1
        entry = np.ones(starts[-1], dtype=bool)
        entry[ones] = False
        column_data = np.empty(len(entry))
        column_data[entry] = -data[keep]
        column_data[ones] = 1.0
        column_indices = np.empty(len(entry), dtype=indices.dtype)
        column_indices[entry] = indices[keep]
        column_indices[ones] = n - 1
        return sp.csc_matrix((column_data, column_indices, starts), shape=(n, n))

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

        Computed from the union pattern of the chain's model on first use, and
        shared with every chain of that model and of its skeleton.
        """
        return _column_rank(self._mdp)

    def poisson_matrix(
        self, reference_state: int = 0, container: Optional[sp.csc_matrix] = None
    ) -> sp.csc_matrix:
        """Return the unichain Poisson system ``h + g = r + P h``, ``h[ref] = 0``.

        Unknowns are ``h[0..n-1]``, in columns ``rank = column_rank()``, and
        ``g`` in column ``n``.  Equation ``s`` is ``h[s] - sum_t P[s,t] h[t] + g
        = r[s]``; equation ``n`` is the normalisation ``h[ref] = 0``.  The
        entries are the model's :func:`poisson_system` masked to the chosen rows.

        Args:
            reference_state: State whose bias is pinned to zero.
            container: A :func:`poisson_container` of this chain's size whose
                arrays are replaced by the system's, and which is returned;
                a fresh one when omitted.
        """
        n = self.num_states
        template, values = poisson_system(self._mdp, reference_state)
        chosen = np.zeros(self._mdp.num_rows + 1, dtype=bool)
        chosen[self._rows] = True
        chosen[-1] = True  # the (n, ref) entry and the ones of g
        keep = chosen.take(template.row)
        counts = np.add.reduceat(keep, template.starts, dtype=np.int32)
        counts[template.empty] = 0  # reduceat reads one entry of the next column there
        indptr = np.zeros(n + 2, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        kept = np.flatnonzero(keep)
        matrix = poisson_container(n) if container is None else container
        matrix.data = values.take(kept)
        matrix.indices = template.indices.take(kept)
        matrix.indptr = indptr
        # The template's equations increase within each column and never repeat.
        matrix.has_canonical_format = True
        return matrix

    def poisson_factor(
        self, reference_state: int = 0, container: Optional[sp.csc_matrix] = None
    ) -> spla.SuperLU:
        """Factor :meth:`poisson_matrix` for ``reference_state``, built in ``container``.

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
        factor bit for bit.  The factor keeps nothing of the matrix, so the
        container can be refilled for the next factorization.

        Raises:
            SolverError: If the system is exactly singular, i.e. the chain is
                not unichain and its gain and bias are not unique.
        """
        try:
            return spla.splu(
                self.poisson_matrix(reference_state, container),
                permc_spec="NATURAL",
                relax=1,
                panel_size=1,
            )
        except RuntimeError as exc:
            raise SolverError(_NOT_UNICHAIN) from exc

    def gain_and_bias(
        self,
        rewards: np.ndarray,
        reference_state: int = 0,
        factor: Optional[spla.SuperLU] = None,
    ) -> Tuple[float, np.ndarray]:
        """Solve the unichain Poisson equation ``h + g = r + P h``, ``h[ref] = 0``.

        Args:
            rewards: The scalar one-step reward ``r`` of every state, e.g.
                ``expected_rewards @ weights`` for reward-component weights.
            reference_state: State whose bias is pinned to zero.
            factor: This chain's :meth:`poisson_factor` for ``reference_state``,
                to skip refactoring when the chain is solved again under other
                rewards; factored here when omitted.

        Returns:
            The scalar gain ``g`` and the bias vector ``h``.

        Raises:
            SolverError: If the system is singular, i.e. the chain is not
                unichain and its gain and bias are not unique.
        """
        solution = self._poisson_solve(rewards, reference_state, factor)
        return float(solution[self.num_states]), solution[self.column_rank()]

    def gains_and_biases(
        self,
        rewards: np.ndarray,
        reference_state: int = 0,
        factor: Optional[spla.SuperLU] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`gain_and_bias` of every column of the ``(n, k)`` ``rewards`` in one solve.

        One triangular solve with ``k`` right-hand sides, e.g. the chain's
        ``expected_rewards``, whose gains and biases under any weights are
        their products with the weights.

        Returns:
            The ``k`` gains and the ``(n, k)`` biases.
        """
        solution = self._poisson_solve(rewards, reference_state, factor)
        # Copied, so that the gains keep no reference to the whole solution.
        return solution[self.num_states].copy(), solution[self.column_rank()]

    def _poisson_solve(
        self, rewards: np.ndarray, reference_state: int, factor: Optional[spla.SuperLU]
    ) -> np.ndarray:
        """Solve the Poisson system for one reward column or several; ``g`` is the last row."""
        n = self.num_states
        if factor is None:
            factor = self.poisson_factor(reference_state)
        rhs = np.zeros((n + 1,) + np.shape(rewards)[1:])
        rhs[:n] = rewards
        solution = factor.solve(rhs)
        # A numerically singular factor solves without error but yields NaN/inf.
        if not np.isfinite(solution).all():
            raise SolverError(_NOT_UNICHAIN)
        return solution


def induced_markov_chain(mdp: MDP, strategy: Strategy) -> MarkovChain:
    """Build the Markov chain obtained by fixing ``strategy`` in ``mdp``."""
    if strategy.mdp is not mdp:
        raise ModelError("strategy does not belong to this MDP")
    return MarkovChain._induced(mdp, strategy.rows)
