"""A concrete-chain simulator of the selfish-forks attack, coupled step by step to the MDP.

The simulator replays the paper's system model on concrete blocks: a public
main chain (one owner and one block id per height) and the adversary's
withheld forks, each rooted at a concrete main-chain block.  It knows nothing
of the MDP's transition kernel.  It derives depths from heights, decides
every race with its own random draws, and counts revenue from the blocks that
end up on its main chain.

:func:`couple` drives the simulator by a positional
:class:`~repro.mdp.Strategy`, looking each of its abstract ``(C, O, type)``
states up in the strategy's MDP, and checks at every step that the MDP models
what the simulator did:

1. the mining step ``(state, mine) -> decision state`` is a transition of
   positive probability;
2. the decision step ``(decision state, chosen row) -> next TYPE_MINING
   state`` is a transition of positive probability whose reward ``(r_A, r_H)``
   counts exactly the blocks that step made final on the simulator's chain;
3. at the end, ``r_A`` and ``r_H`` summed along the path equal the owner
   counts of the final main chain's rewarded heights.

A state the MDP does not have, a step it gives probability 0, or a reward it
books differently fails the check with :class:`CouplingError`.  A check that
holds on every step means the MDP's path measure under the strategy is the
simulator's, so its ERRev is the simulator's long-run revenue, exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.attacks.fork_state import ADVERSARY, HONEST, TYPE_ADVERSARY, TYPE_HONEST, TYPE_MINING
from repro.config import AttackParams, ProtocolParams
from repro.exceptions import ModelError
from repro.mdp import MDP, Strategy

MINE = ("mine",)


class CouplingError(AssertionError):
    """A simulator step that the MDP does not model."""


class ChainOracle:
    """The public main chain and the adversary's withheld forks.

    ``owners[h]`` and ``ids[h]`` describe the main-chain block at height
    ``h`` (genesis is height 0); ``forks`` maps the id of a main-chain block
    inside the attack window to the lengths of the ``f`` forks rooted at it.
    """

    def __init__(self, protocol: ProtocolParams, attack: AttackParams, seed: int) -> None:
        self.p, self.gamma = protocol.p, protocol.gamma
        self.d, self.f, self.l = attack.depth, attack.forks, attack.max_fork_length
        self.rng = random.Random(seed)
        self.empty = (0,) * self.f
        # Genesis plus d honest blocks, so that the window's depths 1..d exist:
        # the MDP's initial state is an all-honest window with no forks.
        self.owners: List[int] = [HONEST] * (self.d + 1)
        self.ids: List[int] = list(range(self.d + 1))
        self.next_id = self.d + 1
        self.forks: Dict[int, Tuple[int, ...]] = {}
        # The revenue window starts at height 2 and ends at the block at depth
        # d, height len(owners) - d, which no release can orphan any more:
        # that is where the MDP books a block's reward.  Height 1 sits at
        # depth d in the initial state, so the MDP never rewards it; each
        # warm-up block at heights 2..d is rewarded once it reaches depth d.
        self.counted = 1

    # --------------------------------------------------------------- queries

    def label(self, state_type: int) -> tuple:
        """The ``(C, O, type)`` abstraction of the current chain."""
        window = self.ids[-1 : -self.d - 1 : -1]
        c_matrix = tuple(self.forks.get(block, self.empty) for block in window)
        return (c_matrix, tuple(self.owners[-1 : -self.d : -1]), state_type)

    def rewarded_owners(self) -> Tuple[int, int]:
        """``(adversary, honest)`` block counts of the rewarded main-chain heights."""
        window = self.owners[2 : len(self.owners) - self.d + 1]
        adversary = window.count(ADVERSARY)
        return adversary, len(window) - adversary

    # ------------------------------------------------------------- mutations

    def mine(self) -> int:
        """Find the next block; return the decision state type it leads to.

        The adversary mines on the tip of every non-empty fork in the window
        and in the lowest empty slot of every window block; each target
        succeeds with probability ``p / ((1 - p) + p * sigma)``.
        """
        targets = []
        for block in self.ids[-1 : -self.d - 1 : -1]:
            lengths = self.forks.get(block, self.empty)
            targets.extend((block, slot) for slot, length in enumerate(lengths) if length)
            if 0 in lengths:
                targets.append((block, lengths.index(0)))
        draw = self.rng.random() * ((1.0 - self.p) + self.p * len(targets))
        index = int(draw // self.p) if self.p > 0.0 else len(targets)
        if index >= len(targets):
            return TYPE_HONEST
        block, slot = targets[index]
        lengths = list(self.forks.get(block, self.empty))
        lengths[slot] = min(lengths[slot] + 1, self.l)
        self.forks[block] = tuple(lengths)
        return TYPE_ADVERSARY

    def decide(self, state_type: int, action: tuple) -> None:
        """Carry out the adversary's action in a decision state."""
        pending = state_type == TYPE_HONEST
        if action == MINE:
            if pending:
                self._append(HONEST)
            return
        _, depth, slot, blocks = action
        base_height = len(self.ids) - depth
        base = self.ids[base_height]
        lengths = list(self.forks.get(base, self.empty))
        if not 1 <= blocks <= lengths[slot - 1]:
            raise CouplingError(f"release {action} of a fork of length {lengths[slot - 1]}")
        # The published blocks race the depth - 1 public blocks above the
        # base, plus the pending honest block if there is one.
        public = depth - 1 + pending
        if blocks < public or (blocks == public and not pending):
            raise CouplingError(f"release {action} cannot beat the public chain")
        if blocks == public and self.rng.random() >= self.gamma:
            self._append(HONEST)
            return
        remainder = lengths[slot - 1] - blocks
        lengths[slot - 1] = 0
        self.forks[base] = tuple(lengths)
        del self.owners[base_height + 1 :], self.ids[base_height + 1 :]
        for _ in range(blocks):
            self._append(ADVERSARY)
        if remainder:
            self.forks[self.ids[-1]] = (remainder,) + self.empty[1:]

    def settle(self) -> Tuple[int, int]:
        """Return the blocks made final since the last call; forget forks that left the window."""
        if len(self.forks) > self.d:
            window = set(self.ids[-self.d :])
            for block in [block for block in self.forks if block not in window]:
                del self.forks[block]
        final = len(self.owners) - self.d
        newly = self.owners[self.counted + 1 : final + 1]
        self.counted = max(self.counted, final)
        adversary = newly.count(ADVERSARY)
        return adversary, len(newly) - adversary

    def _append(self, owner: int) -> None:
        self.owners.append(owner)
        self.ids.append(self.next_id)
        self.next_id += 1


@dataclass
class CouplingRun:
    """What a coupled run did.

    Attributes:
        rewards: ``(r_A, r_H)`` summed along the MDP path.
        main_chain: ``(adversary, honest)`` owner counts of the rewarded heights.
        taken: Index of every MDP transition the path took, in order.
    """

    rewards: Tuple[float, float]
    main_chain: Tuple[int, int]
    taken: List[int] = field(repr=False)


def couple(
    strategy: Strategy,
    protocol: ProtocolParams,
    attack: AttackParams,
    *,
    steps: int,
    seed: int,
) -> CouplingRun:
    """Simulate ``steps`` blocks under ``strategy`` and check each step against its MDP.

    Raises:
        CouplingError: On the first step the MDP does not model.
    """
    mdp = strategy.mdp
    rows = strategy.rows.tolist()
    chain = ChainOracle(protocol, attack, seed)
    taken: List[int] = []
    rewards = [0.0, 0.0]
    # Each row's (transition, successor, probability, reward), for the rows visited.
    visited: Dict[int, list] = {}

    def state_of(label: tuple) -> int:
        try:
            return mdp.state_of_label(label)
        except ModelError as exc:
            raise CouplingError(f"step {step}: {label} is not a state of the MDP") from exc

    def follow(row: int, target: int, gained: Tuple[int, int]) -> None:
        if row not in visited:
            start, end = int(mdp.row_trans_offsets[row]), int(mdp.row_trans_offsets[row + 1])
            visited[row] = list(
                zip(
                    range(start, end),
                    mdp.trans_succ[start:end].tolist(),
                    mdp.trans_prob[start:end].tolist(),
                    map(tuple, mdp.trans_reward[start:end].tolist()),
                )
            )
        matches = [(t, r) for t, succ, prob, r in visited[row] if succ == target and prob > 0.0]
        if not matches:
            raise CouplingError(
                f"step {step}: row {row} ({mdp.row_actions[row]}) of state "
                f"{mdp.state_labels[mdp.row_state[row]]} has no positive-probability "
                f"transition to {mdp.state_labels[target]}"
            )
        for t, r in matches:
            if r == gained:
                taken.append(t)
                rewards[0] += r[0]
                rewards[1] += r[1]
                return
        raise CouplingError(
            f"step {step}: row {row} rewards {[r for _, r in matches]} on the way to "
            f"{mdp.state_labels[target]}, but the step made {gained} blocks final"
        )

    step = 0
    state = state_of(chain.label(TYPE_MINING))
    for step in range(steps):
        state_type = chain.mine()
        decision = state_of(chain.label(state_type))
        follow(rows[state], decision, (0, 0))
        row = rows[decision]
        chain.decide(state_type, mdp.row_actions[row])
        gained = chain.settle()
        state = state_of(chain.label(TYPE_MINING))
        follow(row, state, gained)

    run = CouplingRun((rewards[0], rewards[1]), chain.rewarded_owners(), taken)
    if run.rewards != run.main_chain:
        raise CouplingError(f"path rewards {run.rewards} != main-chain owners {run.main_chain}")
    return run


def greedy_lead_rows(mdp: MDP, race_on_tie: bool) -> np.ndarray:
    """Rows of the greedy-lead heuristic: publish as soon as a fork overtakes.

    In a decision state, release the deepest fork (the first such slot) that
    strictly beats the public chain, with just enough blocks to win.  With
    ``race_on_tie``, after an honest block with no winning fork, race the
    first fork that ties the public chain.  Mine everywhere else.
    """
    rows = np.empty(mdp.num_states, dtype=np.int64)
    for state, (c_matrix, _, state_type) in enumerate(mdp.state_labels):
        rows[state] = mdp.row_index(state, _greedy_action(c_matrix, state_type, race_on_tie))
    return rows


def _greedy_action(c_matrix: tuple, state_type: int, race_on_tie: bool) -> tuple:
    if state_type == TYPE_MINING:
        return MINE
    # A release must beat the depth - 1 public blocks above its base, plus
    # the pending honest block in a TYPE_HONEST state.
    pending = 1 if state_type == TYPE_HONEST else 0
    for depth in range(len(c_matrix), 0, -1):
        for slot, length in enumerate(c_matrix[depth - 1], start=1):
            if length >= depth + pending:
                return ("release", depth, slot, depth + pending)
    if race_on_tie and pending:
        for depth, row in enumerate(c_matrix, start=1):
            for slot, length in enumerate(row, start=1):
                if length >= depth:
                    return ("release", depth, slot, depth)
    return MINE
