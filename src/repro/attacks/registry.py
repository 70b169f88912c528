"""Attack scenarios: the public boundary between engine and attacks.

The sweep engine and its worker pool never care
*which* attack family they are running -- they only need a handful of
capabilities from it:

* an exploration of a ``(p, gamma)``-independent structural skeleton
  (:meth:`ScenarioStructure.explore`) memoised by grid key
  ``(AttackParams, SupportSignature)``,
* a cheap vectorised probability refill for one concrete parameter point
  (:meth:`ScenarioStructure.instantiate`),
* the naming and grid glue of a sweep series.

This module makes that implicit interface explicit.  A scenario is a
:class:`ScenarioStructure` subclass that names itself in its own body::

    class SelfishForksStructure(ScenarioStructure):
        SCENARIO_NAME = "selfish-forks"

The set is closed: :func:`get_attack` looks a name up in a fixed table of
the two shipped scenarios and returns the class itself (every hook is a
classmethod).  Persisted results carry the versioned id
:func:`scenario_id_for` (``"name@version"``).  The id is embedded in journal
fingerprints and CSV rows, so mixed-scenario sweeps and resumes across
scenario versions fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Tuple, Type

import numpy as np

from ..config import AttackParams, ProtocolParams
from ..exceptions import ConfigurationError, ModelError
from ..mdp.model import MDP, ColumnOrder
from .fork_state import (
    PROB_ADVERSARY,
    PROB_GAMMA,
    PROB_GAMMA_HONEST,
    PROB_HONEST,
    PROB_ONE_MINUS_GAMMA,
    PROB_ONE_MINUS_GAMMA_HONEST,
)


@dataclass(frozen=True)
class SupportSignature:
    """Which symbolic transition branches have positive probability.

    Two protocol parameter points with the same signature induce exactly the
    same reachable fragment, so the signature is part of the structure-cache
    key.

    Attributes:
        adversary_mines: ``p > 0`` -- adversarial mining outcomes exist.
        honest_mines: ``p < 1`` -- honest mining outcomes exist.
        race_win: ``gamma > 0`` -- an equal-length release can be accepted.
        race_loss: ``gamma < 1`` -- an equal-length release can be rejected.
    """

    adversary_mines: bool
    honest_mines: bool
    race_win: bool
    race_loss: bool

    @classmethod
    def of(cls, protocol: ProtocolParams) -> "SupportSignature":
        """Return the signature of a concrete protocol parameter point."""
        return cls(
            adversary_mines=protocol.p > 0.0,
            honest_mines=protocol.p < 1.0,
            race_win=protocol.gamma > 0.0,
            race_loss=protocol.gamma < 1.0,
        )

    def keeps(self, kind: int) -> bool:
        """Whether transitions of symbolic ``kind`` have positive probability."""
        if kind == PROB_ADVERSARY:
            return self.adversary_mines
        if kind == PROB_HONEST:
            return self.honest_mines
        if kind == PROB_GAMMA:
            return self.race_win
        if kind == PROB_ONE_MINUS_GAMMA:
            return self.race_loss
        if kind == PROB_GAMMA_HONEST:
            return self.race_win and self.honest_mines
        if kind == PROB_ONE_MINUS_GAMMA_HONEST:
            return self.race_loss and self.honest_mines
        return True


class ScenarioStructure:
    """The ``(p, gamma)``-independent skeleton of one attack-scenario MDP.

    Holds the reachable states, the per-state action rows and, per transition,
    the successor index, the symbolic probability tag and the constant reward
    vector in CSR layout.  :meth:`instantiate` turns the skeleton into a
    concrete :class:`~repro.mdp.MDP` for one parameter point by refilling only
    the probability array.

    The two scenario subclasses (see :func:`get_attack`) additionally
    implement the exploration (:meth:`explore`, capped at
    :data:`repro.attacks.structure.DEFAULT_MAX_STATES` states, read at call
    time) and the sweep glue (:meth:`series_name` / :meth:`grid_configs`).
    Bump :attr:`SCENARIO_VERSION` whenever the transition semantics change, so
    journals written by the old semantics are refused on resume instead of
    silently mixed in.

    Pool workers receive skeletons as pickled (spawn) or inherited (fork)
    objects; the structure cache freezes their numeric arrays, so a cached
    skeleton is read-only in every process.
    """

    #: Compatibility version of the scenario; part of its ``name@version`` id
    #: (:func:`scenario_id_for`).
    SCENARIO_VERSION = 1
    #: Name of the scenario (one of :data:`repro.config.SCENARIO_NAMES`).
    SCENARIO_NAME: str = ""

    def __init__(
        self,
        *,
        attack: AttackParams,
        signature: SupportSignature,
        initial_state: int,
        state_labels: List[Hashable],
        row_state: np.ndarray,
        state_row_offsets: np.ndarray,
        row_trans_offsets: np.ndarray,
        row_actions: List[Hashable],
        trans_succ: np.ndarray,
        trans_kind: np.ndarray,
        trans_sigma: np.ndarray,
        trans_mult: np.ndarray,
        trans_reward: np.ndarray,
    ) -> None:
        self.attack = attack
        self.signature = signature
        self.initial_state = initial_state
        self.state_labels = state_labels
        self.row_state = row_state
        self.state_row_offsets = state_row_offsets
        self.row_trans_offsets = row_trans_offsets
        self.row_actions = row_actions
        self.trans_succ = trans_succ
        self.trans_kind = trans_kind
        self.trans_sigma = trans_sigma
        self.trans_mult = trans_mult
        self.trans_reward = trans_reward
        self.num_states = len(state_labels)
        self.num_rows = int(row_state.shape[0])
        self.num_transitions = int(trans_succ.shape[0])
        # Row index of every transition, for the vectorised renormalisation.
        self._trans_row = np.repeat(
            np.arange(self.num_rows, dtype=np.int64), np.diff(row_trans_offsets)
        )
        # The transitions of every symbolic probability kind, in transition order.
        self._kind_transitions = tuple(
            np.flatnonzero(trans_kind == kind) for kind in range(PROB_ONE_MINUS_GAMMA_HONEST + 1)
        )
        # The Poisson column order of every instantiated model, computed by the
        # first policy evaluation that needs it (the successors fix it, not p or gamma).
        self.column_order = ColumnOrder()

    # -------------------------------------------------------------------- refill

    def _rewards_for(self, protocol: ProtocolParams) -> np.ndarray:
        """Per-transition ``(r_A, r_H)`` rewards at ``protocol``.

        The default returns the constant skeleton rewards unchanged; scenarios
        with parameter-dependent rewards (e.g. the overpaying settlement of
        ``sm-actions``) override this to patch a copy.
        """
        return self.trans_reward

    def instantiate(self, protocol: ProtocolParams) -> MDP:
        """Refill the probability array for ``protocol`` and return the MDP.

        Raises:
            ModelError: If ``protocol`` has a different support signature than
                the one this structure was explored for.
        """
        signature = SupportSignature.of(protocol)
        if signature != self.signature:
            raise ModelError(
                f"structure was built for support {self.signature}, cannot instantiate "
                f"for {signature} (p={protocol.p}, gamma={protocol.gamma})"
            )
        p, gamma = protocol.p, protocol.gamma
        kinds = self._kind_transitions
        prob = np.ones(self.num_transitions)
        adversary = kinds[PROB_ADVERSARY]
        if len(adversary):
            denominator = (1.0 - p) + p * self.trans_sigma[adversary]
            prob[adversary] = p / denominator
        honest = kinds[PROB_HONEST]
        if len(honest):
            denominator = (1.0 - p) + p * self.trans_sigma[honest]
            prob[honest] = (1.0 - p) / denominator
        prob[kinds[PROB_GAMMA]] = gamma
        prob[kinds[PROB_ONE_MINUS_GAMMA]] = 1.0 - gamma
        prob[kinds[PROB_GAMMA_HONEST]] = gamma * (1.0 - p)
        prob[kinds[PROB_ONE_MINUS_GAMMA_HONEST]] = (1.0 - gamma) * (1.0 - p)
        prob *= self.trans_mult
        # Renormalise each row (mirrors MDPBuilder.build washing out float drift).
        totals = np.add.reduceat(prob, self.row_trans_offsets[:-1])
        prob /= totals[self._trans_row]
        return MDP(
            num_states=self.num_states,
            initial_state=self.initial_state,
            row_state=self.row_state,
            state_row_offsets=self.state_row_offsets,
            row_trans_offsets=self.row_trans_offsets,
            trans_succ=self.trans_succ,
            trans_prob=prob,
            trans_reward=self._rewards_for(protocol),
            row_actions=self.row_actions,
            state_labels=self.state_labels,
            column_order=self.column_order,
        )

    # ------------------------------------------------------------- scenario hooks

    @classmethod
    def explore(cls, attack: AttackParams, signature: SupportSignature) -> "ScenarioStructure":
        """Breadth-first exploration of the reachable fragment (expensive)."""
        raise NotImplementedError(f"{cls.__name__} does not implement explore()")

    @classmethod
    def series_name(cls, attack: AttackParams) -> str:
        """Sweep series label of one attack configuration."""
        raise NotImplementedError(f"{cls.__name__} does not implement series_name()")

    @classmethod
    def grid_configs(cls, spec: str = "default") -> Tuple[AttackParams, ...]:
        """Parse a grid specification into attack configurations."""
        raise NotImplementedError(f"{cls.__name__} does not implement grid_configs()")


# ------------------------------------------------------------------ the table


def get_attack(name: str) -> Type[ScenarioStructure]:
    """The :class:`ScenarioStructure` subclass of scenario ``name``.

    The scenario set is closed: ``"selfish-forks"`` (the paper's multi-fork
    family) and ``"sm-actions"`` (the ADOPT/OVERRIDE/WAIT/MATCH anchor), the
    names of :data:`repro.config.SCENARIO_NAMES`.

    Raises:
        ConfigurationError: If ``name`` is not one of them.
    """
    # Deferred: both scenario modules import this one for the base class.
    from .sm_actions import SmActionsStructure
    from .structure import SelfishForksStructure

    table = {"selfish-forks": SelfishForksStructure, "sm-actions": SmActionsStructure}
    if name not in table:
        raise ConfigurationError(
            f"unknown attack scenario {name!r}; scenarios: {tuple(table)}"
        )
    return table[name]


def scenario_id_for(name: str) -> str:
    """Versioned id (``"name@version"``) of scenario ``name``.

    The id is embedded in journal fingerprints and CSV rows; bump
    :attr:`ScenarioStructure.SCENARIO_VERSION` to change it.
    """
    return f"{name}@{get_attack(name).SCENARIO_VERSION}"


__all__ = [
    "ScenarioStructure",
    "SupportSignature",
    "get_attack",
    "scenario_id_for",
]
