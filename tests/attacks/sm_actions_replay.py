"""Monte-Carlo replay of an sm-actions strategy on the untruncated block race.

The replay tracks the true ``(a, h, fork)`` race, without the MDP's bound
``l``, and asks the strategy at the truncated label.  So it estimates the
revenue a strategy earns on a real chain, independently of the MDP's reward
bookkeeping and of its truncation regime.  Because the two races differ past
the bound, the replay and the MDP cannot be coupled step by step as the
selfish-forks simulator is (``tests/chain/simulator_oracle.py``); the check
is statistical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

import numpy as np

from repro.attacks.sm_actions import (
    ACTIVE,
    ADOPT,
    IRRELEVANT,
    MATCH,
    OVERRIDE,
    RELEVANT,
    SETTLE,
    WAIT,
)
from repro.config import AttackParams, ProtocolParams
from repro.exceptions import ModelError
from repro.mdp import Strategy


class SmActionsPolicy:
    """Replay a positional sm-actions strategy.

    :meth:`decide` receives an ``(a, h, fork)`` label (already truncated to
    the MDP's bound) and returns the chosen action label.
    """

    def __init__(self, strategy: Strategy) -> None:
        if strategy.mdp.state_labels is None:
            raise ModelError("the strategy's MDP carries no state labels")
        self._strategy = strategy
        self._mdp = strategy.mdp
        self.unknown_states = 0

    def decide(self, state: Tuple[int, int, int]) -> Hashable:
        """Look the ``(a, h, fork)`` label up in the strategy (wait on misses)."""
        try:
            index = self._mdp.state_of_label(tuple(state))
        except ModelError:
            self.unknown_states += 1
            return WAIT
        return self._strategy.action(index)


@dataclass
class SmActionsSimulationResult:
    """Outcome of an sm-actions chain replay.

    Attributes:
        steps: Number of simulated block events.
        attacker_blocks: Adversarial blocks settled into the main chain.
        honest_blocks: Honest blocks settled into the main chain.
        relative_revenue: ``attacker_blocks / (attacker_blocks + honest_blocks)``.
    """

    steps: int
    attacker_blocks: int
    honest_blocks: int
    relative_revenue: float


def simulate_sm_actions(
    protocol: ProtocolParams,
    attack: AttackParams,
    policy: SmActionsPolicy,
    *,
    num_steps: int,
    seed: int = 0,
) -> SmActionsSimulationResult:
    """Monte-Carlo replay of an sm-actions policy on a concrete block process.

    The replay tracks the true (untruncated) race ``(a, h, fork)`` and queries
    the policy at the truncated label, so it estimates the revenue the strategy
    earns on a real chain -- independent of the MDP's incremental reward
    bookkeeping and of the truncation regime (a ``settle`` decision is replayed
    as ``adopt``).
    """
    rng = np.random.default_rng(seed)
    p, gamma = protocol.p, protocol.gamma
    bound = attack.max_fork_length
    a = h = 0
    fork = IRRELEVANT
    attacker_blocks = honest_blocks = 0
    for _ in range(num_steps):
        action = policy.decide((min(a, bound), min(h, bound), fork))
        if action in (ADOPT, SETTLE):
            honest_blocks += h
            a, h = 0, 0
            fork = IRRELEVANT
        elif action == OVERRIDE:
            if a <= h:
                raise ModelError(f"policy requested an impossible override at (a={a}, h={h})")
            attacker_blocks += h + 1
            a, h = a - h - 1, 0
            fork = IRRELEVANT
        elif action == MATCH:
            if fork != RELEVANT or not a >= h >= 1:
                raise ModelError(f"policy requested an impossible match at (a={a}, h={h})")
            fork = ACTIVE
        elif action != WAIT:
            raise ModelError(f"unknown sm-actions action {action!r}")
        if rng.random() < p:
            a += 1
            if fork != ACTIVE:
                fork = IRRELEVANT
        elif fork == ACTIVE and rng.random() < gamma:
            # Honest miners extend the adversary's matching branch: its h
            # published blocks win, the new honest block is pending on top.
            attacker_blocks += h
            a -= h
            h = 1
            fork = RELEVANT
        else:
            h += 1
            fork = RELEVANT
    settled = attacker_blocks + honest_blocks
    return SmActionsSimulationResult(
        steps=num_steps,
        attacker_blocks=attacker_blocks,
        honest_blocks=honest_blocks,
        relative_revenue=attacker_blocks / settled if settled else 0.0,
    )
