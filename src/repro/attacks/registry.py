"""Attack-scenario registry: the public boundary between engine and attacks.

The sweep engine and its worker pool never care
*which* attack family they are running -- they only need a handful of
capabilities from it:

* an exploration of a ``(p, gamma)``-independent structural skeleton
  (:meth:`ScenarioStructure.explore`) memoised by grid key
  ``(AttackParams, SupportSignature)``,
* a cheap vectorised probability refill for one concrete parameter point
  (:meth:`ScenarioStructure.instantiate`),
* a flat-buffer serialisation (:meth:`ScenarioStructure.to_buffers` /
  :meth:`ScenarioStructure.from_buffers`) so skeletons travel as one packed
  payload to pool workers,
* replay glue (policy construction plus a matching chain simulator) for
  validating formal strategies by simulation.

This module makes that implicit interface explicit.  A scenario is a
:class:`ScenarioStructure` subclass registered under a name::

    @register_attack("selfish-forks")
    class SelfishForksStructure(ScenarioStructure): ...

Consumers resolve scenarios with :func:`get_attack` / :func:`list_attacks` and
identify them across process boundaries by the versioned ``scenario_id``
(``"name@version"``).  The id is embedded in packed structure payload
directories, journal records and CSV rows, so mixed-scenario sweeps and
cross-version payloads fail loudly instead of silently decoding garbage.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..config import AttackParams, ProtocolParams, _register_scenario_name
from ..exceptions import ConfigurationError, ModelError
from .fork_state import (
    PROB_ADVERSARY,
    PROB_GAMMA,
    PROB_GAMMA_HONEST,
    PROB_HONEST,
    PROB_ONE,
    PROB_ONE_MINUS_GAMMA,
    PROB_ONE_MINUS_GAMMA_HONEST,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..mdp import MDP

#: Every symbolic probability tag :meth:`ScenarioStructure.instantiate` refills.
_PROB_KINDS = (
    PROB_ONE,
    PROB_ADVERSARY,
    PROB_HONEST,
    PROB_GAMMA,
    PROB_ONE_MINUS_GAMMA,
    PROB_GAMMA_HONEST,
    PROB_ONE_MINUS_GAMMA_HONEST,
)


def check_buffer(
    name: str, array: np.ndarray, shape: Tuple[Optional[int], ...], kinds: str
) -> None:
    """Refuse a skeleton buffer of the wrong dtype kind, rank or length.

    ``shape`` entries of ``None`` match any length; ``kinds`` lists the
    accepted :attr:`numpy.dtype.kind` codes (``"iu"`` for index arrays).

    Raises:
        ModelError: If ``array`` does not match.
    """
    kind = getattr(getattr(array, "dtype", None), "kind", None)
    if kind is None or kind not in kinds:
        raise ModelError(
            f"malformed skeleton: buffer {name!r} has dtype "
            f"{getattr(array, 'dtype', type(array).__name__)}, expected kind {kinds!r}"
        )
    if array.ndim != len(shape) or any(
        want is not None and got != want for got, want in zip(array.shape, shape)
    ):
        raise ModelError(
            f"malformed skeleton: buffer {name!r} has shape {array.shape}, expected "
            f"{tuple('*' if want is None else want for want in shape)}"
        )


def _check_offsets(name: str, offsets: np.ndarray, total: int) -> None:
    """Refuse CSR offsets that do not rise strictly from 0 to ``total``."""
    if offsets[0] != 0 or offsets[-1] != total or bool((np.diff(offsets) < 1).any()):
        raise ModelError(
            f"malformed skeleton: {name!r} must rise strictly from 0 to {total} "
            f"(every state needs an action row, every row a transition)"
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

    Subclasses registered with :func:`register_attack` additionally implement
    the exploration (:meth:`explore`), the flat-buffer codec
    (:meth:`to_buffers` / :meth:`from_buffers`) and the replay glue
    (:meth:`make_policy` / :meth:`simulate`).  Bump :attr:`SCENARIO_VERSION`
    whenever the buffer layout or the transition semantics change, so stale
    payloads are refused instead of silently mis-decoded.
    """

    #: Compatibility version of the scenario; part of ``scenario_id``.
    SCENARIO_VERSION = 1
    #: Registered name; set by :func:`register_attack`.
    SCENARIO_NAME: Optional[str] = None
    #: Proof systems usable as refill parameterisations of this scenario
    #: (names resolved by :meth:`AttackScenario.proof_systems`).
    PROOF_SYSTEMS: Tuple[str, ...] = ()

    #: Buffer keys of :meth:`to_buffers`, in canonical order; subclasses with
    #: extra per-scenario arrays extend this tuple.
    BUFFER_KEYS = (
        "header",
        "state_labels",
        "row_actions",
        "row_state",
        "state_row_offsets",
        "row_trans_offsets",
        "trans_succ",
        "trans_kind",
        "trans_sigma",
        "trans_mult",
        "trans_reward",
    )

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

    def check_layout(self) -> None:
        """Check that the skeleton arrays describe one well-formed CSR model.

        Explored skeletons satisfy this by construction.  Skeletons decoded
        from a received payload (:func:`repro.core.shared_structures.
        unpack_structures`) are checked before any worker instantiates them,
        so a malformed peer payload is refused up front instead of raising an
        ``IndexError`` -- or silently mis-solving -- inside a sweep.
        Subclasses with extra arrays extend the check.

        Raises:
            ModelError: On the first inconsistency found.
        """
        states, rows, trans = self.num_states, self.num_rows, self.num_transitions
        check_buffer("row_state", self.row_state, (rows,), "iu")
        check_buffer("state_row_offsets", self.state_row_offsets, (states + 1,), "iu")
        check_buffer("row_trans_offsets", self.row_trans_offsets, (rows + 1,), "iu")
        for name in ("trans_succ", "trans_kind", "trans_sigma"):
            check_buffer(name, getattr(self, name), (trans,), "iu")
        check_buffer("trans_mult", self.trans_mult, (trans,), "f")
        check_buffer("trans_reward", self.trans_reward, (trans, 2), "f")
        if len(self.row_actions) != rows:
            raise ModelError(
                f"malformed skeleton: {len(self.row_actions)} action labels for {rows} rows"
            )
        if not 0 <= self.initial_state < states:
            raise ModelError(
                f"malformed skeleton: initial state {self.initial_state} outside "
                f"the {states} states"
            )
        _check_offsets("state_row_offsets", self.state_row_offsets, rows)
        _check_offsets("row_trans_offsets", self.row_trans_offsets, trans)
        owners = np.repeat(np.arange(states), np.diff(self.state_row_offsets))
        if not np.array_equal(self.row_state, owners):
            raise ModelError("malformed skeleton: 'row_state' disagrees with 'state_row_offsets'")
        if self.trans_succ.min() < 0 or self.trans_succ.max() >= states:
            raise ModelError(f"malformed skeleton: a successor lies outside the {states} states")
        if not np.isin(self.trans_kind, _PROB_KINDS).all():
            raise ModelError("malformed skeleton: unknown probability tag in 'trans_kind'")
        if self.trans_sigma.min() < 0:
            raise ModelError("malformed skeleton: negative mining-target count in 'trans_sigma'")
        if not (np.isfinite(self.trans_mult).all() and (self.trans_mult > 0).all()):
            raise ModelError("malformed skeleton: 'trans_mult' must be finite and positive")
        if not np.isfinite(self.trans_reward).all():
            raise ModelError("malformed skeleton: non-finite reward in 'trans_reward'")

    # ------------------------------------------------------------------ identity

    @property
    def scenario_name(self) -> str:
        """Registered name of this structure's scenario."""
        name = type(self).SCENARIO_NAME
        if name is None:
            raise ModelError(
                f"{type(self).__name__} is not registered; decorate it with "
                f"repro.attacks.registry.register_attack"
            )
        return name

    @property
    def scenario_id(self) -> str:
        """Versioned identity (``"name@version"``) of this structure's scenario."""
        return f"{self.scenario_name}@{type(self).SCENARIO_VERSION}"

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

    def to_buffers(self) -> Dict[str, np.ndarray]:
        """Serialise the structure into flat numpy buffers (:attr:`BUFFER_KEYS`)."""
        raise NotImplementedError(f"{type(self).__name__} does not implement to_buffers()")

    @classmethod
    def from_buffers(cls, buffers: Dict[str, np.ndarray]) -> "ScenarioStructure":
        """Reconstruct a structure from :meth:`to_buffers` output (zero-copy)."""
        raise NotImplementedError(f"{cls.__name__} does not implement from_buffers()")

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
        use_structure_cache: bool = True,
    ) -> object:
        """Build the scenario model (an object exposing ``.mdp``) for one point."""
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


class AttackScenario:
    """One registry entry: a named, versioned :class:`ScenarioStructure` class.

    Thin delegation layer so engine code can hold a scenario handle without
    importing the concrete structure class.
    """

    def __init__(self, name: str, structure_cls: type) -> None:
        self.name = name
        self.structure_cls = structure_cls
        self.version = int(getattr(structure_cls, "SCENARIO_VERSION", 1))
        doc = (structure_cls.__doc__ or "").strip()
        self.description = doc.splitlines()[0] if doc else name

    @property
    def scenario_id(self) -> str:
        """Versioned identity (``"name@version"``)."""
        return f"{self.name}@{self.version}"

    def explore(
        self,
        attack: AttackParams,
        signature: SupportSignature,
        *,
        max_states: Optional[int] = None,
    ) -> ScenarioStructure:
        """Explore the scenario skeleton for ``(attack, signature)``."""
        return self.structure_cls.explore(attack, signature, max_states=max_states)

    def series_name(self, attack: AttackParams) -> str:
        """Sweep series label of one attack configuration."""
        return self.structure_cls.series_name(attack)

    def grid_configs(self, spec: str = "default") -> Tuple[AttackParams, ...]:
        """Parse a grid specification into attack configurations."""
        return self.structure_cls.grid_configs(spec)

    def build_model(
        self,
        protocol: ProtocolParams,
        attack: AttackParams,
        *,
        max_states: Optional[int] = None,
        use_structure_cache: bool = True,
    ) -> object:
        """Build the scenario model for one parameter point."""
        return self.structure_cls.build_model(
            protocol,
            attack,
            max_states=max_states,
            use_structure_cache=use_structure_cache,
        )

    def make_policy(self, strategy: object) -> object:
        """Wrap a formal strategy into the scenario's replay policy."""
        return self.structure_cls.make_policy(strategy)

    def simulate(
        self,
        protocol: ProtocolParams,
        attack: AttackParams,
        policy: object,
        *,
        num_steps: int,
        seed: int = 0,
    ) -> object:
        """Replay ``policy`` in the scenario's chain simulator."""
        return self.structure_cls.simulate(
            protocol, attack, policy, num_steps=num_steps, seed=seed
        )

    def honest_strategy(self, mdp: "MDP") -> object:
        """In-MDP strategy emulating the scenario's protocol-following baseline."""
        return self.structure_cls.honest_strategy(mdp)

    def proof_systems(self) -> Dict[str, type]:
        """Proof systems usable as refill parameterisations of this scenario.

        The ``(p, k)``-mining abstraction enters the skeleton refill only
        through the number of concurrent mining targets ``sigma``; a proof
        system is compatible when its ``k`` covers the scenario's target count.
        Returns a mapping from proof-system name to its model class from
        :mod:`repro.proofs`.
        """
        from .. import proofs

        available = {
            "pow": proofs.ProofOfWork,
            "pos": proofs.ProofOfStake,
            "pospacetime": proofs.ProofOfSpaceTime,
            "vdf": proofs.VerifiableDelayFunction,
        }
        return {
            name: available[name]
            for name in getattr(self.structure_cls, "PROOF_SYSTEMS", ())
            if name in available
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttackScenario({self.scenario_id}, {self.structure_cls.__name__})"


# ---------------------------------------------------------------------- registry

_REGISTRY: Dict[str, AttackScenario] = {}
_REGISTRY_LOCK = threading.Lock()
#: Guards the lazy built-in import; distinct from ``_REGISTRY_LOCK`` because
#: the imports re-enter ``register_attack`` (which takes the registry lock).
_BUILTINS_LOCK = threading.Lock()
_BUILTINS_LOADED = False


def register_attack(name: str) -> Callable[[type], type]:
    """Class decorator registering a :class:`ScenarioStructure` under ``name``.

    Registration is idempotent for the same class (module re-import), but a
    second, different class under an existing name is rejected.  Registering a
    scenario also teaches :class:`repro.config.AttackParams` to accept the name
    in its ``scenario`` field.

    Raises:
        ConfigurationError: If ``name`` is empty or already bound to another
            class.
    """

    def decorator(cls: type) -> type:
        with _REGISTRY_LOCK:
            existing = _REGISTRY.get(name)
            if existing is not None and existing.structure_cls is not cls:
                raise ConfigurationError(
                    f"attack scenario {name!r} is already registered by "
                    f"{existing.structure_cls.__name__}; pick a different name"
                )
            if existing is None:
                _REGISTRY[name] = AttackScenario(name, cls)
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


def get_attack(name: str) -> AttackScenario:
    """Look up a registered scenario by name.

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


def list_attacks() -> Tuple[AttackScenario, ...]:
    """Every registered scenario, in registration order (built-ins first)."""
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
    """Versioned id (``"name@version"``) of a registered scenario."""
    return get_attack(name).scenario_id


def resolve_scenario(scenario_id: str) -> AttackScenario:
    """Resolve a versioned ``scenario_id`` against this process's registry.

    Used wherever a scenario identity crosses a process boundary (structure
    payload directories); any mismatch is an
    error, never a silent fallback.

    Raises:
        ModelError: If the id is malformed, names an unknown scenario, or names
            a different :attr:`ScenarioStructure.SCENARIO_VERSION` than this
            process implements.
    """
    name, sep, version_text = str(scenario_id).partition("@")
    if not name or not sep or not version_text:
        raise ModelError(
            f"malformed scenario id {scenario_id!r} (expected 'name@version')"
        )
    try:
        entry = get_attack(name)
    except ConfigurationError as exc:
        raise ModelError(f"cannot resolve scenario id {scenario_id!r}: {exc}") from exc
    if str(entry.version) != version_text:
        raise ModelError(
            f"scenario version mismatch for {name!r}: peer speaks {scenario_id}, "
            f"this process implements {entry.scenario_id}"
        )
    return entry


__all__ = [
    "AttackScenario",
    "ScenarioStructure",
    "SupportSignature",
    "check_buffer",
    "get_attack",
    "list_attacks",
    "register_attack",
    "resolve_scenario",
    "scenario_id_for",
    "unregister_attack",
]
