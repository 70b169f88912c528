"""Cached structural skeletons of the multi-fork selfish-mining MDP.

For fixed attack parameters ``(d, f, l)`` the reachable state set, the per-state
action sets and the successor lists of the selfish-mining MDP do not depend on
the numeric protocol parameters ``(p, gamma)`` -- only the transition
probabilities do, and those only through a handful of closed forms (see the
``PROB_*`` tags in :mod:`repro.attacks.fork_state`).  The sole structural
influence of ``(p, gamma)`` is the *support*: at the boundary values ``p = 0``,
``p = 1``, ``gamma = 0`` and ``gamma = 1`` some symbolic branches have
probability zero and are pruned from the reachable fragment.

This module therefore splits model construction into

1. a :class:`SelfishForksStructure` -- the breadth-first exploration of the
   reachable fragment for one ``(d, f, l)`` and one :class:`SupportSignature`,
   stored as flat arrays of successors, probability tags and constant rewards
   (the expensive part: pure-Python state enumeration), and
2. :meth:`SelfishForksStructure.instantiate` -- a cheap, fully vectorised refill
   of the probability array for a concrete ``(p, gamma)``.

Structures are memoised in a process-local cache so that a parameter sweep pays
the exploration cost once per ``(attack, signature)`` instead of once per grid
point.  Sweep worker processes never explore at all: the parent builds each
skeleton once and hands the objects to every pool worker, which installs them
into this cache in its initializer (:func:`replace_structure_cache`).  The
cache keeps separate ``builds`` / ``attaches`` counters so tests can assert
that workers performed zero explorations.  Cached skeletons are shared by every
model instantiated from them, so their numeric arrays are frozen (read-only)
the moment they enter the cache.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mdp import MDP

from ..config import AttackParams, ProtocolParams
from ..exceptions import ConfigurationError
from . import fork_state
from .fork_state import (
    ForkState,
    action_label,
    symbolic_successor_distribution,
)
from .registry import (
    ScenarioStructure,
    SupportSignature,
    get_attack,
    register_attack,
)

#: Hard cap on the number of states explored; prevents accidental explosion when
#: a user requests an enormous configuration.
DEFAULT_MAX_STATES = 20_000_000


@register_attack("selfish-forks")
class SelfishForksStructure(ScenarioStructure):
    """Multi-fork selfish mining: the paper's ``(d, f, l)`` attack family.

    Holds the reachable states, the per-state action rows and, per transition,
    the successor index, the symbolic probability tag and the constant reward
    vector.  :meth:`~repro.attacks.registry.ScenarioStructure.instantiate`
    turns the skeleton into a concrete :class:`~repro.mdp.MDP` for one
    parameter point by refilling only the probability array.
    """

    SCENARIO_VERSION = 1
    #: ``(p, k)``-mining: d*f concurrent targets need ``k >= d*f``, which PoS
    #: (k = inf) and PoSpaceTime (configurable k) provide; PoW/VDF cover d=f=1.
    PROOF_SYSTEMS = ("pow", "pos", "pospacetime", "vdf")

    # --------------------------------------------------------------- scenario API

    @classmethod
    def explore(
        cls,
        attack: AttackParams,
        signature: SupportSignature,
        *,
        max_states: Optional[int] = DEFAULT_MAX_STATES,
    ) -> "SelfishForksStructure":
        """Breadth-first exploration (see :func:`build_model_structure`)."""
        return build_model_structure(attack, signature, max_states=max_states)

    @classmethod
    def series_name(cls, attack: AttackParams) -> str:
        """Sweep series label, e.g. ``ours(d=2,f=1)``."""
        return f"ours(d={attack.depth},f={attack.forks})"

    @classmethod
    def grid_configs(cls, spec: str = "default") -> Tuple[AttackParams, ...]:
        """Parse a selfish-forks grid specification.

        Accepted forms: ``"default"`` (the d<=2 CLI default), ``"paper"``
        (Table 1 / Figure 2 configurations), ``"max-depth=N"`` (the legacy
        ``--max-depth`` ladder) and comma-separated ``dXfY[lZ]`` tokens
        (``l`` defaults to 4), e.g. ``"d1f1,d2f2l6"``.

        Raises:
            ConfigurationError: On an unparseable specification.
        """
        text = (spec or "default").strip()
        if text == "default":
            return (
                AttackParams(depth=1, forks=1, max_fork_length=4),
                AttackParams(depth=2, forks=1, max_fork_length=4),
            )
        if text == "paper":
            from ..config import PAPER_ATTACK_CONFIGS

            return PAPER_ATTACK_CONFIGS
        if text.startswith("max-depth="):
            try:
                max_depth = int(text.split("=", 1)[1])
            except ValueError as exc:
                raise ConfigurationError(f"invalid grid spec {spec!r}") from exc
            if max_depth < 1:
                raise ConfigurationError(f"max-depth must be >= 1, got {max_depth}")
            configs = [AttackParams(depth=1, forks=1, max_fork_length=4)]
            if max_depth >= 2:
                configs.append(AttackParams(depth=2, forks=1, max_fork_length=4))
            if max_depth >= 3:
                configs.append(AttackParams(depth=2, forks=2, max_fork_length=4))
            return tuple(configs)
        configs = []
        for token in text.split(","):
            match = re.fullmatch(r"d(\d+)f(\d+)(?:l(\d+))?", token.strip())
            if match is None:
                raise ConfigurationError(
                    f"invalid selfish-forks grid token {token.strip()!r} "
                    f"(expected dXfY[lZ], 'default', 'paper' or 'max-depth=N')"
                )
            configs.append(
                AttackParams(
                    depth=int(match.group(1)),
                    forks=int(match.group(2)),
                    max_fork_length=int(match.group(3) or 4),
                )
            )
        return tuple(configs)

    @classmethod
    def build_model(
        cls,
        protocol: ProtocolParams,
        attack: AttackParams,
        *,
        max_states: Optional[int] = None,
        use_structure_cache: bool = True,
    ) -> object:
        """Build the selfish-forks model for one parameter point."""
        from .selfish_forks import build_selfish_forks_mdp

        kwargs = {} if max_states is None else {"max_states": max_states}
        return build_selfish_forks_mdp(
            protocol, attack, use_structure_cache=use_structure_cache, **kwargs
        )

    @classmethod
    def make_policy(cls, strategy: object) -> object:
        """Wrap a formal strategy into a :class:`SelfishForksPolicy` replay."""
        from .policies import SelfishForksPolicy

        return SelfishForksPolicy(strategy)

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
        """Replay ``policy`` in the discrete-time fork-window simulator."""
        from ..chain.simulator import SelfishMiningSimulator

        simulator = SelfishMiningSimulator(protocol, attack, policy, seed=seed)
        return simulator.run(num_steps)

    @classmethod
    def honest_strategy(cls, mdp: "MDP") -> object:
        """Immediate-release baseline (honest mining for ``d = f = 1``)."""
        from .honest import immediate_release_strategy

        return immediate_release_strategy(mdp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SelfishForksStructure(d={self.attack.depth}, f={self.attack.forks}, "
            f"l={self.attack.max_fork_length}, states={self.num_states}, "
            f"rows={self.num_rows}, transitions={self.num_transitions})"
        )


def build_model_structure(
    attack: AttackParams,
    signature: SupportSignature,
    *,
    max_states: Optional[int] = DEFAULT_MAX_STATES,
) -> SelfishForksStructure:
    """Explore the reachable fragment for ``(attack, signature)`` breadth-first.

    The exploration mirrors the legacy :class:`~repro.mdp.MDPBuilder` path of
    :func:`repro.attacks.selfish_forks.build_selfish_forks_mdp` exactly -- same
    discovery order, hence the same state indices, row order and transition
    order -- but records symbolic probability tags instead of numbers.

    Raises:
        ConfigurationError: If the exploration exceeds ``max_states``.
    """
    start = fork_state.initial_state(attack)
    state_ids: Dict[ForkState, int] = {start: 0}
    labels: List[Hashable] = [start]
    queue: deque[ForkState] = deque([start])

    row_state: List[int] = []
    row_actions: List[Hashable] = []
    state_row_counts: List[int] = []
    trans_succ: List[int] = []
    trans_kind: List[int] = []
    trans_sigma: List[int] = []
    trans_mult: List[int] = []
    trans_reward: List[Tuple[float, float]] = []
    row_trans_offsets: List[int] = [0]

    def state_index(label: ForkState) -> int:
        index = state_ids.get(label)
        if index is None:
            index = len(labels)
            state_ids[label] = index
            labels.append(label)
            queue.append(label)
            if max_states is not None and len(labels) > max_states:
                raise ConfigurationError(
                    f"state-space exploration exceeded max_states={max_states}; "
                    f"reduce d, f or l, or raise the cap explicitly"
                )
        return index

    while queue:
        # Each state enters the queue exactly once (on first discovery), and
        # discovery order equals index order, so rows are emitted grouped by
        # owning state in increasing index order.
        state = queue.popleft()
        owner_index = state_ids[state]
        num_rows_before = len(row_state)
        for action in fork_state.available_actions(state, attack):
            transitions = [
                symbolic
                for symbolic in symbolic_successor_distribution(state, action, attack)
                if signature.keeps(symbolic.kind)
            ]
            if not transitions:
                continue
            row_state.append(owner_index)
            row_actions.append(action_label(action))
            for symbolic in transitions:
                trans_succ.append(state_index(symbolic.successor))
                trans_kind.append(symbolic.kind)
                trans_sigma.append(symbolic.sigma)
                trans_mult.append(symbolic.multiplicity)
                trans_reward.append(symbolic.reward)
            row_trans_offsets.append(len(trans_succ))
        if len(row_state) == num_rows_before:
            raise ConfigurationError(
                f"state {state!r} has no actions with positive probability under "
                f"support {signature}"
            )
        state_row_counts.append(len(row_state) - num_rows_before)

    # The BFS expands states in index order, so row blocks are already grouped
    # by owning state and the per-state counts accumulate into CSR offsets.
    state_row_offsets = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum(np.asarray(state_row_counts, dtype=np.int64), out=state_row_offsets[1:])

    return SelfishForksStructure(
        attack=attack,
        signature=signature,
        initial_state=0,
        state_labels=labels,
        row_state=np.asarray(row_state, dtype=np.int64),
        state_row_offsets=state_row_offsets,
        row_trans_offsets=np.asarray(row_trans_offsets, dtype=np.int64),
        row_actions=row_actions,
        trans_succ=np.asarray(trans_succ, dtype=np.int64),
        trans_kind=np.asarray(trans_kind, dtype=np.int8),
        trans_sigma=np.asarray(trans_sigma, dtype=np.int64),
        trans_mult=np.asarray(trans_mult, dtype=float),
        trans_reward=np.asarray(trans_reward, dtype=float).reshape(len(trans_reward), 2),
    )


# ------------------------------------------------------------------ process cache

_STRUCTURE_CACHE: Dict[Tuple[AttackParams, SupportSignature], ScenarioStructure] = {}
_CACHE_LOCK = threading.Lock()
#: Number of breadth-first explorations performed by this process since the
#: last :func:`clear_structure_cache` -- sweep workers, which install the
#: parent's skeletons, must keep this at 0.
_BUILD_COUNT = 0
#: Number of structures installed from outside (not explored here).
_ATTACH_COUNT = 0


def _freeze(structure: ScenarioStructure) -> ScenarioStructure:
    """Make every numeric array of ``structure`` read-only, in place.

    Every model instantiated from a cached skeleton shares its arrays, so a
    write through one model would corrupt every later grid point.  Pickling
    (spawn-started workers) drops the flag below protocol 5, so installed
    skeletons are frozen again.
    """
    for value in vars(structure).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return structure


def get_model_structure(
    attack: AttackParams,
    protocol: ProtocolParams,
    *,
    max_states: Optional[int] = DEFAULT_MAX_STATES,
) -> ScenarioStructure:
    """Return the (memoised) structure for ``attack`` at ``protocol``'s support.

    Dispatches the exploration through the scenario registry, so any registered
    scenario shares this cache (and its builds/attaches accounting).  The cache
    is process-local; sweep workers have it populated up front with the
    parent's skeletons and therefore always hit.  The returned skeleton's
    numeric arrays are read-only.
    """
    global _BUILD_COUNT
    signature = SupportSignature.of(protocol)
    key = (attack, signature)
    with _CACHE_LOCK:
        structure = _STRUCTURE_CACHE.get(key)
        if structure is None:
            entry = get_attack(attack.scenario)
            structure = _freeze(entry.explore(attack, signature, max_states=max_states))
            _STRUCTURE_CACHE[key] = structure
            _BUILD_COUNT += 1
    # The cap must hold even when a previous caller already paid the exploration.
    if max_states is not None and structure.num_states > max_states:
        raise ConfigurationError(
            f"state-space exploration exceeded max_states={max_states}; "
            f"reduce d, f or l, or raise the cap explicitly"
        )
    return structure


def replace_structure_cache(structures: Iterable[ScenarioStructure]) -> None:
    """Swap the whole cache for ``structures`` (each counted as an attach).

    Drops every cached structure, resets the build/attach counters and
    installs ``structures`` (frozen read-only), all under the module lock, so
    a concurrent :func:`get_model_structure` sees either the old cache or the
    new one and never explores in between.  It is the pool initializer of
    every sweep worker (:class:`repro.core.execution.PoolBackend`): the swap
    drops whatever the process held before -- including the cache and build
    counters a fork-started worker inherits -- so the worker reports zero
    builds.  Idempotent, and importable at module top level so spawn-started
    workers can unpickle it.
    """
    global _BUILD_COUNT, _ATTACH_COUNT
    structure_list = [_freeze(structure) for structure in structures]
    with _CACHE_LOCK:
        _STRUCTURE_CACHE.clear()
        for structure in structure_list:
            _STRUCTURE_CACHE[(structure.attack, structure.signature)] = structure
        _BUILD_COUNT = 0
        _ATTACH_COUNT = len(structure_list)


def clear_structure_cache() -> None:
    """Drop every cached structure and reset the build/attach counters.

    Mainly for tests and memory pressure; see :func:`replace_structure_cache`.
    """
    replace_structure_cache(())


def structure_cache_stats() -> Dict[str, int]:
    """Return summary statistics of the process-local structure cache.

    The snapshot -- entries, aggregate sizes and the build/attach counters --
    is taken atomically under the module lock, so concurrent cache mutation
    (e.g. a live worker pool) can never yield counters from one instant and
    entries from another.

    Returns:
        ``entries`` / ``states`` / ``transitions``: current cache contents;
        ``builds``: breadth-first explorations this process performed since the
        last clear (0 inside sweep workers);
        ``attaches``: structures installed from outside (the pool
        initializer's skeletons).
    """
    with _CACHE_LOCK:
        structures = list(_STRUCTURE_CACHE.values())
        builds = _BUILD_COUNT
        attaches = _ATTACH_COUNT
    return {
        "entries": len(structures),
        "states": sum(structure.num_states for structure in structures),
        "transitions": sum(structure.num_transitions for structure in structures),
        "builds": builds,
        "attaches": attaches,
    }
