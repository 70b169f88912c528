"""Sparse explicit-state MDP container and builder.

The model stores, for every state, a contiguous block of *state-action rows*;
every row stores a contiguous block of transitions (successor, probability,
reward vector).  Rewards are vectors so that several reward structures can be
attached to the same model -- the selfish-mining analysis attaches the pair
``(r_A, r_H)`` (adversarial / honest blocks finalised by the transition) and
combines them linearly into the paper's ``r_beta`` without rebuilding the model.

All solver-facing data lives in flat numpy arrays so that policy iteration's
greedy improvement step is fully vectorised with ``numpy.add.reduceat`` /
``numpy.maximum.reduceat``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ModelError

if TYPE_CHECKING:
    from .markov_chain import GeneratorRows, PoissonTemplate, RowPattern

#: Probabilities within one state-action row must sum to one up to this tolerance.
PROBABILITY_TOLERANCE = 1e-9


class ColumnOrder:
    """The column order under which the Poisson systems of one sparsity pattern are factored.

    Every strategy of a model picks one row per state, so the Poisson system of
    any of its chains lies inside one union pattern, and that pattern depends
    on the successors only, never on the probabilities.
    :meth:`repro.mdp.MarkovChain.column_rank` computes the order on first use
    and keeps it here, and :func:`repro.mdp.markov_chain.poisson_system` keeps
    the CSC index arrays of the union pattern in that order beside it.  The
    first row table of a model keeps the merged pattern of its rows here too,
    so every later model sums its probabilities into it
    (:func:`repro.mdp.markov_chain.row_table`).  A skeleton hands one instance
    to every model it instantiates, so all three are computed once per
    skeleton and process.  Threads that race on the first use compute the
    same arrays; either is kept.

    Attributes:
        rank: Column position of every state, read-only; ``None`` until computed.
        template: The union pattern's Poisson index arrays for the models'
            initial state, read-only; ``None`` until computed.
        pattern: The merged CSR pattern of ``E - P`` over every row, with the
            entry of every transition and diagonal, read-only; ``None`` until
            computed.
    """

    def __init__(self) -> None:
        self.rank: Optional[np.ndarray] = None
        self.template: Optional["PoissonTemplate"] = None
        self.pattern: Optional["RowPattern"] = None


class MDP:
    """A finite Markov decision process in sparse explicit form.

    Instances are created through :class:`MDPBuilder`; the attributes below are
    read-only flat arrays shared by every solver in :mod:`repro.mdp`.

    Attributes:
        num_states: Number of states.
        num_rows: Number of state-action rows.
        num_reward_components: Dimension of the per-transition reward vectors.
        initial_state: Index of the initial state.
        row_state: For each row, the owning state index (``int64`` array).
        state_row_offsets: CSR-style offsets of shape ``(num_states + 1,)`` such
            that the rows of state ``s`` are ``row_state_offsets[s]:row_state_offsets[s+1]``.
        row_trans_offsets: CSR-style offsets into the transition arrays, shape
            ``(num_rows + 1,)``.
        trans_succ: Successor state per transition.
        trans_prob: Probability per transition.
        trans_reward: Reward vectors per transition, shape ``(num_transitions, k)``.
        row_actions: Action label per row (python list).
        state_labels: Optional hashable label per state (python list).
        column_order: The fill-reducing column order of this model's Poisson
            systems; shared with every model of the same skeleton.
    """

    def __init__(
        self,
        *,
        num_states: int,
        initial_state: int,
        row_state: np.ndarray,
        state_row_offsets: np.ndarray,
        row_trans_offsets: np.ndarray,
        trans_succ: np.ndarray,
        trans_prob: np.ndarray,
        trans_reward: np.ndarray,
        row_actions: List[Hashable],
        state_labels: Optional[List[Hashable]] = None,
        column_order: Optional[ColumnOrder] = None,
    ) -> None:
        self.num_states = int(num_states)
        self.initial_state = int(initial_state)
        self.row_state = row_state
        self.state_row_offsets = state_row_offsets
        self.row_trans_offsets = row_trans_offsets
        self.trans_succ = trans_succ
        self.trans_prob = trans_prob
        self.trans_reward = trans_reward
        self.row_actions = row_actions
        self.state_labels = state_labels
        self.num_rows = int(row_state.shape[0])
        self.num_transitions = int(trans_succ.shape[0])
        self.num_reward_components = int(trans_reward.shape[1]) if trans_reward.size else (
            int(trans_reward.shape[1]) if trans_reward.ndim == 2 else 1
        )
        self._label_to_state: Optional[Dict[Hashable, int]] = None
        # Built by repro.mdp.markov_chain.row_table on the first chain of this model.
        self._row_table: Optional["GeneratorRows"] = None
        # Built by repro.mdp.markov_chain.poisson_system on the first Poisson factor.
        self._poisson_system: Optional[Tuple["PoissonTemplate", np.ndarray]] = None
        self.column_order = column_order if column_order is not None else ColumnOrder()

    # ------------------------------------------------------------------ queries

    def rows_of(self, state: int) -> range:
        """Return the row indices belonging to ``state``."""
        return range(int(self.state_row_offsets[state]), int(self.state_row_offsets[state + 1]))

    def num_actions_of(self, state: int) -> int:
        """Return the number of actions available in ``state``."""
        return int(self.state_row_offsets[state + 1] - self.state_row_offsets[state])

    def row_index(self, state: int, action: Hashable) -> int:
        """Return the row index of ``(state, action)``.

        Raises:
            ModelError: If ``action`` is not available in ``state``.
        """
        for row in self.rows_of(state):
            if self.row_actions[row] == action:
                return row
        raise ModelError(f"action {action!r} not available in state {state}")

    def state_of_label(self, label: Hashable) -> int:
        """Return the state index carrying ``label``.

        Raises:
            ModelError: If the model has no labels or the label is unknown.
        """
        if self.state_labels is None:
            raise ModelError("this MDP was built without state labels")
        if self._label_to_state is None:
            self._label_to_state = {lbl: idx for idx, lbl in enumerate(self.state_labels)}
        try:
            return self._label_to_state[label]
        except KeyError as exc:
            raise ModelError(f"unknown state label {label!r}") from exc

    # ------------------------------------------------------------------ utilities

    def first_row_choice(self) -> np.ndarray:
        """Each state's first row: policy iteration's "first-action" start (a fresh array)."""
        return self.state_row_offsets[:-1].astype(np.int64).copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MDP(states={self.num_states}, rows={self.num_rows}, "
            f"transitions={self.num_transitions}, rewards={self.num_reward_components})"
        )


class MDPBuilder:
    """Incremental builder for :class:`MDP` instances.

    States are identified by hashable labels; indices are assigned on first use.
    Actions are added per state with an explicit successor distribution.

    Example:
        >>> builder = MDPBuilder(num_reward_components=1)
        >>> s = builder.add_state("s")
        >>> builder.add_action("s", "loop", [("s", 1.0, (1.0,))])
        >>> mdp = builder.build(initial_state="s")
        >>> mdp.num_states
        1
    """

    def __init__(self, num_reward_components: int = 1) -> None:
        if num_reward_components < 1:
            raise ModelError("num_reward_components must be >= 1")
        self.num_reward_components = int(num_reward_components)
        self._state_ids: Dict[Hashable, int] = {}
        self._labels: List[Hashable] = []
        # per-state list of (action_label, [(succ_label, prob, reward_vec), ...])
        self._actions: List[List[Tuple[Hashable, List[Tuple[Hashable, float, Tuple[float, ...]]]]]] = []

    # ------------------------------------------------------------------- states

    def add_state(self, label: Hashable) -> int:
        """Register ``label`` as a state (idempotent) and return its index."""
        if label in self._state_ids:
            return self._state_ids[label]
        index = len(self._labels)
        self._state_ids[label] = index
        self._labels.append(label)
        self._actions.append([])
        return index

    def state_index(self, label: Hashable) -> int:
        """Return the index of an already-registered state label."""
        try:
            return self._state_ids[label]
        except KeyError as exc:
            raise ModelError(f"unknown state label {label!r}") from exc

    @property
    def num_states(self) -> int:
        """Number of states registered so far."""
        return len(self._labels)

    # ------------------------------------------------------------------ actions

    def add_action(
        self,
        state_label: Hashable,
        action: Hashable,
        transitions: Iterable[Tuple[Hashable, float, Sequence[float]]],
    ) -> None:
        """Add an action to a state.

        Args:
            state_label: Label of the owning state (registered automatically).
            action: Hashable action label, unique within the state.
            transitions: Iterable of ``(successor_label, probability, reward_vector)``;
                successor states are registered automatically.

        Raises:
            ModelError: If the distribution is empty, contains invalid
                probabilities, does not sum to one, or has a reward vector of the
                wrong length, or if the action label is duplicated in the state.
        """
        state_index = self.add_state(state_label)
        stored: List[Tuple[Hashable, float, Tuple[float, ...]]] = []
        total = 0.0
        for succ_label, prob, reward in transitions:
            prob = float(prob)
            if prob < -PROBABILITY_TOLERANCE:
                raise ModelError(f"negative probability {prob} in ({state_label!r}, {action!r})")
            if prob <= 0.0:
                continue
            reward_tuple = tuple(float(x) for x in reward)
            if len(reward_tuple) != self.num_reward_components:
                raise ModelError(
                    f"reward vector of length {len(reward_tuple)} does not match "
                    f"num_reward_components={self.num_reward_components}"
                )
            self.add_state(succ_label)
            stored.append((succ_label, prob, reward_tuple))
            total += prob
        if not stored:
            raise ModelError(f"action {action!r} of state {state_label!r} has no transitions")
        if abs(total - 1.0) > 1e-6:
            raise ModelError(
                f"probabilities of ({state_label!r}, {action!r}) sum to {total}, expected 1"
            )
        existing = self._actions[state_index]
        if any(existing_action == action for existing_action, _ in existing):
            raise ModelError(f"duplicate action {action!r} in state {state_label!r}")
        existing.append((action, stored))

    # -------------------------------------------------------------------- build

    def build(self, initial_state: Hashable) -> MDP:
        """Freeze the builder into an immutable :class:`MDP`.

        Raises:
            ModelError: If any state has no actions (absorbing states must be
                given an explicit self-loop) or the initial state is unknown.
        """
        if initial_state not in self._state_ids:
            raise ModelError(f"initial state {initial_state!r} was never registered")
        for label, index in self._state_ids.items():
            if not self._actions[index]:
                raise ModelError(f"state {label!r} has no actions; add an explicit self-loop")

        row_state: List[int] = []
        row_actions: List[Hashable] = []
        state_row_offsets = np.zeros(self.num_states + 1, dtype=np.int64)
        trans_succ: List[int] = []
        trans_prob: List[float] = []
        trans_reward: List[Tuple[float, ...]] = []
        row_trans_offsets: List[int] = [0]

        for state_index in range(self.num_states):
            for action, transitions in self._actions[state_index]:
                row_state.append(state_index)
                row_actions.append(action)
                # Renormalise to wash out floating-point drift in the inputs.
                total = sum(prob for _, prob, _ in transitions)
                for succ_label, prob, reward in transitions:
                    trans_succ.append(self._state_ids[succ_label])
                    trans_prob.append(prob / total)
                    trans_reward.append(reward)
                row_trans_offsets.append(len(trans_succ))
            state_row_offsets[state_index + 1] = len(row_state)

        return MDP(
            num_states=self.num_states,
            initial_state=self._state_ids[initial_state],
            row_state=np.asarray(row_state, dtype=np.int64),
            state_row_offsets=state_row_offsets,
            row_trans_offsets=np.asarray(row_trans_offsets, dtype=np.int64),
            trans_succ=np.asarray(trans_succ, dtype=np.int64),
            trans_prob=np.asarray(trans_prob, dtype=float),
            trans_reward=np.asarray(trans_reward, dtype=float).reshape(
                len(trans_reward), self.num_reward_components
            ),
            row_actions=row_actions,
            state_labels=list(self._labels),
        )
