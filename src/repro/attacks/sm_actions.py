"""ADOPT/OVERRIDE/WAIT/MATCH selfish mining as the second attack scenario.

This is the classic single-fork action space of Sapirshtein et al. ("Optimal
selfish mining strategies in Bitcoin"), shipped as the ``"sm-actions"``
scenario behind the same skeleton-cache interface as the paper's multi-fork
family, so every engine feature (warm starts, the worker pool, the journal)
applies to it unchanged.

State and actions
-----------------
A state is ``(a, h, fork)``: the lengths of the adversary's private chain and
of the honest chain since the last common ancestor, plus a fork flag --
``IRRELEVANT`` (last block was adversarial), ``RELEVANT`` (last block was
honest, a match is possible) or ``ACTIVE`` (the adversary has published a
matching branch and the network is split).  Actions: ``adopt`` (give up and
mine on the honest chain), ``override`` (publish ``h + 1`` blocks, orphaning
the honest chain), ``wait`` (keep mining privately) and ``match`` (publish an
equal-length branch, triggering the ``gamma`` race).

Both chains are truncated at ``attack.max_fork_length`` (the paper's ``l``),
which keeps the MDP finite; ``attack.depth`` and ``attack.forks`` are unused
by this scenario.  Two reward regimes bound the truncation error from either
side (Sapirshtein et al., Section 4):

* *underpaying* (``variant=""``, the default): blocks mined past the bound are
  simply discarded, so the adversary is under-rewarded and the computed value
  is a lower bound;
* *overpaying* (``variant="overpaying"``): boundary states are settled with a
  closed-form expected reward of the untruncated random-walk race, which
  over-rewards the adversary and yields an upper bound.  The settlement
  rewards depend on ``p``, so they are patched into a copy of the reward
  array at instantiation time (the skeleton stays parameter-free).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from ..config import AttackParams, ProtocolParams
from ..exceptions import ConfigurationError, ModelError
from ..mdp import MDP
from .fork_state import (
    PROB_ADVERSARY,
    PROB_GAMMA_HONEST,
    PROB_HONEST,
    PROB_ONE_MINUS_GAMMA_HONEST,
)
from . import structure
from .registry import ScenarioStructure, SupportSignature

#: Fork-flag values of the ``(a, h, fork)`` state.
IRRELEVANT = 0
RELEVANT = 1
ACTIVE = 2

#: Action labels, in the fixed per-state enumeration order.
ADOPT = ("adopt",)
OVERRIDE = ("override",)
WAIT = ("wait",)
MATCH = ("match",)
#: Forced terminal action of overpaying boundary states.
SETTLE = ("settle",)

_REGIME_UNDERPAYING = 0
_REGIME_OVERPAYING = 1
_REGIME_CODES = {"": _REGIME_UNDERPAYING, "overpaying": _REGIME_OVERPAYING}

#: Number of reward components per transition: ``(r_A, r_H)``.
NUM_REWARD_COMPONENTS = 2


def _regime_of(attack: AttackParams) -> int:
    """Map ``attack.variant`` to a reward-regime code.

    :class:`~repro.config.AttackParams` has already checked the variant
    against :data:`~repro.config.SCENARIO_VARIANTS`.

    Raises:
        ConfigurationError: If the attack belongs to another scenario.
    """
    if attack.scenario != "sm-actions":
        raise ConfigurationError(
            f"attack {attack!r} belongs to scenario {attack.scenario!r}, not 'sm-actions'"
        )
    return _REGIME_CODES[attack.variant]


class SmActionsStructure(ScenarioStructure):
    """ADOPT/OVERRIDE/WAIT/MATCH selfish mining (single fork, ``gamma`` race).

    The skeleton extends the canonical arrays with the indices and ``(a, h)``
    labels of the overpaying settlement transitions, whose rewards are
    ``p``-dependent and therefore refilled per parameter point by
    :meth:`_rewards_for` (underpaying skeletons carry empty settle arrays).
    """

    SCENARIO_NAME = "sm-actions"
    SCENARIO_VERSION = 1

    def __init__(
        self,
        *,
        settle_trans: Optional[np.ndarray] = None,
        settle_ah: Optional[np.ndarray] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.settle_trans = (
            settle_trans if settle_trans is not None else np.empty(0, dtype=np.int64)
        )
        self.settle_ah = (
            settle_ah if settle_ah is not None else np.empty((0, 2), dtype=np.int32)
        )

    # -------------------------------------------------------------------- refill

    def _rewards_for(self, protocol: ProtocolParams) -> np.ndarray:
        """Patch the ``p``-dependent overpaying settlement rewards into a copy.

        For a boundary state ``(a, h)`` the settlement credits the expected
        outcome of the untruncated biased random walk: with ``K = p(1-p) /
        (1-2p)^2`` and the adversary ahead (``a >= h``), ``r_A = K + C`` and
        ``r_H = -C`` where ``C = ((a-h)/(1-2p) + a + h) / 2``; behind
        (``h > a``), with ``q = p/(1-p)``, ``r_A = q^(h-a) (K + (h-a)/(1-2p))``
        and ``r_H = h (1 - q^(h-a))``.

        Raises:
            ModelError: For the overpaying regime at ``p >= 0.5``, where the
                closed forms diverge (the walk is no longer biased towards the
                honest chain).
        """
        if self.settle_trans.size == 0:
            return self.trans_reward
        p = protocol.p
        if p >= 0.5:
            raise ModelError(
                f"the overpaying settlement rewards diverge for p >= 0.5 (got p={p}); "
                f"use the underpaying variant for super-majority adversaries"
            )
        rewards = np.array(self.trans_reward, dtype=float, copy=True)
        a = self.settle_ah[:, 0].astype(float)
        h = self.settle_ah[:, 1].astype(float)
        drift = 1.0 - 2.0 * p
        k_const = p * (1.0 - p) / (drift * drift)
        ahead = a >= h
        c_term = ((a - h) / drift + a + h) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            decay = np.where(ahead, 1.0, (p / (1.0 - p)) ** (h - a))
        r_a = np.where(ahead, k_const + c_term, decay * (k_const + (h - a) / drift))
        r_h = np.where(ahead, -c_term, h * (1.0 - decay))
        rewards[self.settle_trans, 0] = r_a
        rewards[self.settle_trans, 1] = r_h
        return rewards

    # --------------------------------------------------------------- scenario API

    @classmethod
    def explore(cls, attack: AttackParams, signature: SupportSignature) -> "SmActionsStructure":
        """Breadth-first exploration of the reachable ``(a, h, fork)`` fragment.

        Raises:
            ConfigurationError: If ``attack`` names another scenario or the
                exploration exceeds
                :data:`repro.attacks.structure.DEFAULT_MAX_STATES` states.
        """
        cap = structure.DEFAULT_MAX_STATES
        regime = _regime_of(attack)
        l = attack.max_fork_length
        start = (0, 0, IRRELEVANT)
        state_ids: Dict[Tuple[int, int, int], int] = {start: 0}
        labels: List[Hashable] = [start]
        queue: deque = deque([start])

        row_state: List[int] = []
        row_actions: List[Hashable] = []
        state_row_counts: List[int] = []
        trans_succ: List[int] = []
        trans_kind: List[int] = []
        trans_sigma: List[int] = []
        trans_mult: List[int] = []
        trans_reward: List[Tuple[float, float]] = []
        row_trans_offsets: List[int] = [0]
        settle_trans: List[int] = []
        settle_ah: List[Tuple[int, int]] = []

        def state_index(label: Tuple[int, int, int]) -> int:
            index = state_ids.get(label)
            if index is None:
                index = len(labels)
                state_ids[label] = index
                labels.append(label)
                queue.append(label)
                if len(labels) > cap:
                    raise structure.exceeded_cap()
            return index

        def actions_of(a: int, h: int, fork: int) -> Iterator[Tuple[Hashable, List[tuple]]]:
            """Yield ``(label, transitions)`` with symbolic probability tags.

            Each transition is ``(successor, kind, sigma, (r_A, r_H))``; the
            race tags fold the mining lottery and the tie-break together.
            """
            if a == l or h == l:
                if regime == _REGIME_OVERPAYING:
                    # Truncation frontier: forced settlement with closed-form
                    # rewards patched in per parameter point (recorded below).
                    yield (
                        SETTLE,
                        [
                            ((1, 0, IRRELEVANT), PROB_ADVERSARY, 1, (0.0, 0.0)),
                            ((0, 1, RELEVANT), PROB_HONEST, 1, (0.0, 0.0)),
                        ],
                    )
                    return
                # Underpaying frontier: waiting (and matching) are forbidden so
                # the race always resolves -- conceding at ``h == l`` discards
                # the private chain, which is what under-rewards the adversary.
                if h == l or h >= 1:
                    reward = (0.0, float(h))
                    yield (
                        ADOPT,
                        [
                            ((1, 0, IRRELEVANT), PROB_ADVERSARY, 1, reward),
                            ((0, 1, RELEVANT), PROB_HONEST, 1, reward),
                        ],
                    )
                if h < l:
                    reward = (float(h + 1), 0.0)
                    yield (
                        OVERRIDE,
                        [
                            ((a - h, 0, IRRELEVANT), PROB_ADVERSARY, 1, reward),
                            ((a - h - 1, 1, RELEVANT), PROB_HONEST, 1, reward),
                        ],
                    )
                return
            race = [
                ((min(a + 1, l), h, ACTIVE), PROB_ADVERSARY, 1, (0.0, 0.0)),
                ((a - h, 1, RELEVANT), PROB_GAMMA_HONEST, 0, (float(h), 0.0)),
                ((a, min(h + 1, l), RELEVANT), PROB_ONE_MINUS_GAMMA_HONEST, 0, (0.0, 0.0)),
            ]
            if h >= 1:
                reward = (0.0, float(h))
                yield (
                    ADOPT,
                    [
                        ((1, 0, IRRELEVANT), PROB_ADVERSARY, 1, reward),
                        ((0, 1, RELEVANT), PROB_HONEST, 1, reward),
                    ],
                )
            if a > h:
                reward = (float(h + 1), 0.0)
                yield (
                    OVERRIDE,
                    [
                        ((a - h, 0, IRRELEVANT), PROB_ADVERSARY, 1, reward),
                        ((a - h - 1, 1, RELEVANT), PROB_HONEST, 1, reward),
                    ],
                )
            if fork == ACTIVE:
                yield (WAIT, race)
            else:
                yield (
                    WAIT,
                    [
                        ((min(a + 1, l), h, IRRELEVANT), PROB_ADVERSARY, 1, (0.0, 0.0)),
                        ((a, min(h + 1, l), RELEVANT), PROB_HONEST, 1, (0.0, 0.0)),
                    ],
                )
            if fork == RELEVANT and a >= h >= 1:
                yield (MATCH, race)

        while queue:
            state = queue.popleft()
            owner_index = state_ids[state]
            a, h, fork = state
            num_rows_before = len(row_state)
            for label, transitions in actions_of(a, h, fork):
                kept = [entry for entry in transitions if signature.keeps(entry[1])]
                if not kept:
                    continue
                row_state.append(owner_index)
                row_actions.append(label)
                for successor, kind, sigma, reward in kept:
                    if label == SETTLE:
                        settle_trans.append(len(trans_succ))
                        settle_ah.append((a, h))
                    trans_succ.append(state_index(successor))
                    trans_kind.append(kind)
                    trans_sigma.append(sigma)
                    trans_mult.append(1)
                    trans_reward.append(reward)
                row_trans_offsets.append(len(trans_succ))
            if len(row_state) == num_rows_before:
                raise ConfigurationError(
                    f"state {state!r} has no actions with positive probability under "
                    f"support {signature}"
                )
            state_row_counts.append(len(row_state) - num_rows_before)

        state_row_offsets = np.zeros(len(labels) + 1, dtype=np.int64)
        np.cumsum(np.asarray(state_row_counts, dtype=np.int64), out=state_row_offsets[1:])

        return cls(
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
            trans_reward=np.asarray(trans_reward, dtype=float).reshape(
                len(trans_reward), NUM_REWARD_COMPONENTS
            ),
            settle_trans=np.asarray(settle_trans, dtype=np.int64),
            settle_ah=np.asarray(settle_ah, dtype=np.int32).reshape(len(settle_ah), 2),
        )

    @classmethod
    def series_name(cls, attack: AttackParams) -> str:
        """Sweep series label, e.g. ``sm-actions(l=8)``."""
        suffix = f",{attack.variant}" if attack.variant else ""
        return f"sm-actions(l={attack.max_fork_length}{suffix})"

    @classmethod
    def grid_configs(cls, spec: str = "default") -> Tuple[AttackParams, ...]:
        """Parse an sm-actions grid specification.

        Accepted forms: ``"default"`` (``l=4`` and ``l=8``), ``"paper"``
        (``l=4,8,12``) and comma-separated ``lZ[:overpaying]`` tokens, e.g.
        ``"l8,l8:overpaying"``.

        Raises:
            ConfigurationError: On an unparseable specification or an unknown
                variant.
        """
        text = (spec or "default").strip()
        if text == "default":
            lengths: Tuple[Tuple[int, str], ...] = ((4, ""), (8, ""))
        elif text == "paper":
            lengths = ((4, ""), (8, ""), (12, ""))
        else:
            lengths = ()
            for token in text.split(","):
                token = token.strip()
                base, _, variant = token.partition(":")
                if not base.startswith("l") or not base[1:].isdigit():
                    raise ConfigurationError(
                        f"invalid sm-actions grid token {token!r} "
                        f"(expected lZ[:overpaying], 'default' or 'paper')"
                    )
                lengths += ((int(base[1:]), variant),)
        return tuple(
            AttackParams(
                depth=1,
                forks=1,
                max_fork_length=length,
                scenario="sm-actions",
                variant=variant,
            )
            for length, variant in lengths
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SmActionsStructure(l={self.attack.max_fork_length}, "
            f"variant={self.attack.variant or 'underpaying'!r}, "
            f"states={self.num_states}, rows={self.num_rows}, "
            f"transitions={self.num_transitions})"
        )


# ---------------------------------------------------------------------- model


@dataclass
class SmActionsModel:
    """A fully built sm-actions MDP with its construction parameters.

    Attributes:
        mdp: The instantiated Markov decision process.
        protocol: Protocol parameters the probabilities were filled for.
        attack: Attack parameters (``max_fork_length`` and ``variant`` matter).
    """

    mdp: MDP
    protocol: ProtocolParams
    attack: AttackParams

    @property
    def num_states(self) -> int:
        """Number of states of the underlying MDP."""
        return self.mdp.num_states

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"sm-actions MDP: l={self.attack.max_fork_length}, "
            f"variant={self.attack.variant or 'underpaying'}, "
            f"{self.mdp.num_states} states, p={self.protocol.p}, "
            f"gamma={self.protocol.gamma}"
        )


def build_sm_actions_mdp(
    protocol: ProtocolParams,
    attack: AttackParams,
) -> SmActionsModel:
    """Build the ADOPT/OVERRIDE/WAIT/MATCH MDP for one parameter point.

    The ``(p, gamma)``-independent skeleton is memoised in the process-local
    structure cache shared with the other scenario; only the probabilities
    (and the overpaying settlement rewards) are refilled for ``protocol``.

    Raises:
        ConfigurationError: If ``attack`` names another scenario.
    """
    _regime_of(attack)
    skeleton = structure.get_model_structure(attack, protocol)
    return SmActionsModel(mdp=skeleton.instantiate(protocol), protocol=protocol, attack=attack)


def honest_strategy_rows(mdp: MDP) -> np.ndarray:
    """Row choices of the protocol-following baseline.

    Publish a strict lead immediately (``override``), otherwise concede a
    non-empty honest chain (``adopt``), otherwise keep mining (``wait``);
    overpaying boundary states take their forced ``settle``.  For every ``p``
    this earns exactly ``p`` in the long run, mirroring honest mining.
    """
    precedence = {OVERRIDE: 0, ADOPT: 1, SETTLE: 2, WAIT: 3, MATCH: 4}
    rows = np.zeros(mdp.num_states, dtype=np.int64)
    for state in range(mdp.num_states):
        start = int(mdp.state_row_offsets[state])
        end = int(mdp.state_row_offsets[state + 1])
        rows[state] = min(
            range(start, end), key=lambda row: precedence.get(mdp.row_actions[row], 9)
        )
    return rows


__all__ = [
    "ACTIVE",
    "ADOPT",
    "IRRELEVANT",
    "MATCH",
    "OVERRIDE",
    "RELEVANT",
    "SETTLE",
    "WAIT",
    "SmActionsModel",
    "SmActionsStructure",
    "build_sm_actions_mdp",
    "honest_strategy_rows",
]
