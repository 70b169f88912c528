"""Positional (memoryless, deterministic) strategies for finite MDPs.

A positional strategy fixes one action per state.  The mean-payoff MDP problem
always admits an optimal positional strategy (Puterman 1994), which is why this
is the only strategy class needed by the formal analysis.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator

import numpy as np

from ..exceptions import ModelError
from .model import MDP


class Strategy:
    """A positional strategy represented by one chosen row per state.

    A strategy is checked against its model once, when it is built, and
    keeps a read-only copy of the rows it was given, so it stays valid.

    Attributes:
        mdp: The model the strategy belongs to.
        rows: Read-only ``int64`` array of length ``mdp.num_states``;
            ``rows[s]`` is the index of the state-action row chosen in state ``s``.
    """

    def __init__(self, mdp: MDP, rows: np.ndarray) -> None:
        rows = np.array(rows, dtype=np.int64)
        if rows.shape != (mdp.num_states,):
            raise ModelError(
                f"strategy must choose one row per state, got shape {rows.shape}"
            )
        out_of_range = (rows < 0) | (rows >= mdp.num_rows)
        if np.any(out_of_range):
            state = int(np.nonzero(out_of_range)[0][0])
            raise ModelError(
                f"strategy chooses row {int(rows[state])} in state {state}, "
                f"outside the model's {mdp.num_rows} rows"
            )
        owners = mdp.row_state[rows]
        if not np.array_equal(owners, np.arange(mdp.num_states)):
            offending = int(np.nonzero(owners != np.arange(mdp.num_states))[0][0])
            raise ModelError(
                f"strategy chooses a row that does not belong to state {offending}"
            )
        self._bind(mdp, rows)

    @classmethod
    def _trusted(cls, mdp: MDP, rows: np.ndarray) -> "Strategy":
        """The strategy of ``rows``, a valid row choice of ``mdp`` that nothing else writes to.

        No check and no copy: policy iteration builds its result this way from
        the rows its own greedy step made.
        """
        strategy = cls.__new__(cls)
        strategy._bind(mdp, rows)
        return strategy

    def _bind(self, mdp: MDP, rows: np.ndarray) -> None:
        rows.flags.writeable = False
        self.mdp = mdp
        self.rows = rows

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Unpickled arrays are writable; the copy of a checked strategy stays read-only.
        self.__dict__.update(state)
        self.rows.flags.writeable = False

    # ----------------------------------------------------------------- factories

    @classmethod
    def from_action_map(cls, mdp: MDP, actions: Dict[Hashable, Hashable]) -> "Strategy":
        """Build a strategy from a ``{state_label: action_label}`` mapping.

        States absent from the mapping default to their first available action.
        """
        rows = mdp.first_row_choice()
        for state_label, action in actions.items():
            state = mdp.state_of_label(state_label)
            rows[state] = mdp.row_index(state, action)
        return cls(mdp, rows)

    @classmethod
    def first_action(cls, mdp: MDP) -> "Strategy":
        """Return the strategy that always picks the first listed action."""
        return cls(mdp, mdp.first_row_choice())

    # ------------------------------------------------------------------- queries

    def action(self, state: int) -> Hashable:
        """Return the action label chosen in ``state``."""
        return self.mdp.row_actions[int(self.rows[state])]

    def action_of_label(self, state_label: Hashable) -> Hashable:
        """Return the action label chosen in the state carrying ``state_label``."""
        return self.action(self.mdp.state_of_label(state_label))

    def row(self, state: int) -> int:
        """Return the chosen row index of ``state``."""
        return int(self.rows[state])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Strategy)
            and other.mdp is self.mdp
            and np.array_equal(other.rows, self.rows)
        )

    def __hash__(self) -> int:  # pragma: no cover - strategies are rarely hashed
        return hash((id(self.mdp), self.rows.tobytes()))

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Strategy(states={self.mdp.num_states})"

