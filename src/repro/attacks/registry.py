"""Attack-scenario registry: the public boundary between engine and attacks.

The sweep engine and its worker pool never care
*which* attack family they are running -- they only need a handful of
capabilities from it:

* an exploration of a ``(p, gamma)``-independent structural skeleton
  (:meth:`ScenarioStructure.explore`) memoised by grid key
  ``(AttackParams, SupportSignature)``,
* a cheap vectorised probability refill for one concrete parameter point
  (:meth:`ScenarioStructure.instantiate`),
* replay glue (policy construction plus a matching chain simulator) for
  validating formal strategies by simulation.

This module makes that implicit interface explicit.  A scenario is a
:class:`ScenarioStructure` subclass registered under a name::

    @register_attack("selfish-forks")
    class SelfishForksStructure(ScenarioStructure): ...

Consumers look scenarios up with :func:`get_attack` / :func:`list_attacks`,
which return the registered classes themselves (every hook is a
classmethod), and identify persisted results by the versioned id
:func:`scenario_id_for` (``"name@version"``).  The id is embedded in journal
fingerprints and CSV rows, so mixed-scenario sweeps and resumes across
scenario versions fail loudly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Tuple, Type, TypeVar

import numpy as np

from ..config import AttackParams, ProtocolParams, _register_scenario_name
from ..exceptions import ConfigurationError, ModelError
from .fork_state import (
    PROB_ADVERSARY,
    PROB_GAMMA,
    PROB_GAMMA_HONEST,
    PROB_HONEST,
    PROB_ONE_MINUS_GAMMA,
    PROB_ONE_MINUS_GAMMA_HONEST,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..mdp import MDP


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

    Subclasses registered with :func:`register_attack` additionally implement
    the exploration (:meth:`explore`) and the replay glue
    (:meth:`make_policy` / :meth:`simulate`).  Bump :attr:`SCENARIO_VERSION`
    whenever the transition semantics change, so journals written by the old
    semantics are refused on resume instead of silently mixed in.

    Pool workers receive skeletons as pickled (spawn) or inherited (fork)
    objects; the structure cache freezes their numeric arrays, so a cached
    skeleton is read-only in every process.
    """

    #: Compatibility version of the scenario; part of its ``name@version`` id
    #: (:func:`scenario_id_for`).
    SCENARIO_VERSION = 1
    #: Registered name; set by :func:`register_attack`.
    SCENARIO_NAME: str = ""
    #: Names of the proof systems usable as refill parameterisations of this
    #: scenario (listed by ``repro attacks``).
    PROOF_SYSTEMS: Tuple[str, ...] = ()

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

    # -------------------------------------------------------------------- refill

    def _rewards_for(self, protocol: ProtocolParams) -> np.ndarray:
        """Per-transition ``(r_A, r_H)`` rewards at ``protocol``.

        The default returns the constant skeleton rewards unchanged; scenarios
        with parameter-dependent rewards (e.g. the overpaying settlement of
        ``sm-actions``) override this to patch a copy.
        """
        return self.trans_reward

    def instantiate(self, protocol: ProtocolParams) -> "MDP":
        """Refill the probability array for ``protocol`` and return the MDP.

        Raises:
            ModelError: If ``protocol`` has a different support signature than
                the one this structure was explored for.
        """
        from ..mdp import MDP

        signature = SupportSignature.of(protocol)
        if signature != self.signature:
            raise ModelError(
                f"structure was built for support {self.signature}, cannot instantiate "
                f"for {signature} (p={protocol.p}, gamma={protocol.gamma})"
            )
        p, gamma = protocol.p, protocol.gamma
        prob = np.ones(self.num_transitions)
        adversary = self.trans_kind == PROB_ADVERSARY
        honest = self.trans_kind == PROB_HONEST
        if adversary.any():
            denominator = (1.0 - p) + p * self.trans_sigma[adversary]
            prob[adversary] = p / denominator
        if honest.any():
            denominator = (1.0 - p) + p * self.trans_sigma[honest]
            prob[honest] = (1.0 - p) / denominator
        prob[self.trans_kind == PROB_GAMMA] = gamma
        prob[self.trans_kind == PROB_ONE_MINUS_GAMMA] = 1.0 - gamma
        race_extend = self.trans_kind == PROB_GAMMA_HONEST
        if race_extend.any():
            prob[race_extend] = gamma * (1.0 - p)
        race_ignore = self.trans_kind == PROB_ONE_MINUS_GAMMA_HONEST
        if race_ignore.any():
            prob[race_ignore] = (1.0 - gamma) * (1.0 - p)
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
        )

    # ------------------------------------------------------------- scenario hooks

    @classmethod
    def explore(
        cls,
        attack: AttackParams,
        signature: SupportSignature,
        *,
        max_states: Optional[int] = None,
    ) -> "ScenarioStructure":
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

    @classmethod
    def build_model(
        cls,
        protocol: ProtocolParams,
        attack: AttackParams,
        *,
        max_states: Optional[int] = None,
    ) -> object:
        """Build the scenario model (an object exposing ``.mdp``) for one point.

        The skeleton comes from the process-local structure cache
        (:func:`~repro.attacks.structure.get_model_structure`); only the
        probabilities are refilled for ``protocol``.
        """
        raise NotImplementedError(f"{cls.__name__} does not implement build_model()")

    @classmethod
    def make_policy(cls, strategy: object) -> object:
        """Wrap a formal strategy into the scenario's replay policy."""
        raise NotImplementedError(f"{cls.__name__} does not implement make_policy()")

    @classmethod
    def simulate(
        cls,
        protocol: ProtocolParams,
        attack: AttackParams,
        policy: object,
        *,
        num_steps: int,
        seed: int = 0,
    ) -> object:
        """Replay ``policy`` in the scenario's chain simulator."""
        raise NotImplementedError(f"{cls.__name__} does not implement simulate()")

    @classmethod
    def honest_strategy(cls, mdp: "MDP") -> object:
        """In-MDP strategy emulating protocol-following behaviour (baseline)."""
        raise NotImplementedError(f"{cls.__name__} does not implement honest_strategy()")


# ---------------------------------------------------------------------- registry

_REGISTRY: Dict[str, Type[ScenarioStructure]] = {}
_REGISTRY_LOCK = threading.Lock()
#: Guards the lazy built-in import; distinct from ``_REGISTRY_LOCK`` because
#: the imports re-enter ``register_attack`` (which takes the registry lock).
_BUILTINS_LOCK = threading.Lock()
_BUILTINS_LOADED = False


_Scenario = TypeVar("_Scenario", bound=ScenarioStructure)


def register_attack(name: str) -> Callable[[Type[_Scenario]], Type[_Scenario]]:
    """Class decorator registering a :class:`ScenarioStructure` under ``name``.

    Registration is idempotent for the same class (module re-import), but a
    second, different class under an existing name is rejected.  Registering a
    scenario also teaches :class:`repro.config.AttackParams` to accept the name
    in its ``scenario`` field.

    Raises:
        ConfigurationError: If ``name`` is empty or already bound to another
            class.
    """

    def decorator(cls: Type[_Scenario]) -> Type[_Scenario]:
        with _REGISTRY_LOCK:
            existing = _REGISTRY.get(name)
            if existing is not None and existing is not cls:
                raise ConfigurationError(
                    f"attack scenario {name!r} is already registered by "
                    f"{existing.__name__}; pick a different name"
                )
            _REGISTRY[name] = cls
        cls.SCENARIO_NAME = name
        _register_scenario_name(name)
        return cls

    return decorator


def _ensure_builtin_scenarios() -> None:
    """Import the built-in scenario modules so their decorators have run."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    # Double-checked under a *dedicated* lock: the guarded imports run
    # ``register_attack``, which takes ``_REGISTRY_LOCK`` -- reusing it here
    # would deadlock (threading.Lock is not reentrant).
    with _BUILTINS_LOCK:
        if _BUILTINS_LOADED:
            return
        from . import sm_actions, structure  # noqa: F401  (registration side effect)

        _BUILTINS_LOADED = True


def get_attack(name: str) -> Type[ScenarioStructure]:
    """Look up the :class:`ScenarioStructure` subclass registered as ``name``.

    Raises:
        ConfigurationError: If ``name`` is not registered; the message lists
            every known scenario.
    """
    _ensure_builtin_scenarios()
    with _REGISTRY_LOCK:
        entry = _REGISTRY.get(name)
        known = tuple(_REGISTRY)
    if entry is None:
        raise ConfigurationError(
            f"unknown attack scenario {name!r}; registered scenarios: {known}"
        )
    return entry


def list_attacks() -> Tuple[Type[ScenarioStructure], ...]:
    """Every registered scenario class, in registration order (built-ins first)."""
    _ensure_builtin_scenarios()
    with _REGISTRY_LOCK:
        return tuple(_REGISTRY.values())


def unregister_attack(name: str) -> None:
    """Remove a runtime-registered scenario (for tests and plugin teardown).

    Raises:
        ConfigurationError: When asked to remove a built-in scenario.
    """
    from ..config import BUILTIN_SCENARIO_NAMES, _KNOWN_SCENARIO_NAMES

    if name in BUILTIN_SCENARIO_NAMES:
        raise ConfigurationError(f"cannot unregister built-in scenario {name!r}")
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)
    _KNOWN_SCENARIO_NAMES.discard(name)


def scenario_id_for(name: str) -> str:
    """Versioned id (``"name@version"``) of a registered scenario.

    The id is embedded in journal fingerprints and CSV rows; bump
    :attr:`ScenarioStructure.SCENARIO_VERSION` to change it.
    """
    return f"{name}@{get_attack(name).SCENARIO_VERSION}"


__all__ = [
    "ScenarioStructure",
    "SupportSignature",
    "get_attack",
    "list_attacks",
    "register_attack",
    "scenario_id_for",
    "unregister_attack",
]
