"""State space and transition kernel of the multi-fork selfish-mining MDP.

This module is a direct implementation of Section 3.2 of the paper.  Everything
is expressed as pure functions over immutable state tuples so that the kernel
can be unit- and property-tested independently of the MDP container.

State
-----
A state is the triple ``(C, O, type)`` where

* ``C`` is a ``d x f`` matrix (tuple of ``d`` rows, each a tuple of ``f`` ints);
  ``C[i][j]`` is the length (``0..l``) of the ``(j+1)``-th private fork rooted at
  the main-chain block at depth ``i+1`` (depth 1 is the tip),
* ``O`` is a tuple of ``d - 1`` ownership flags for the main-chain blocks at
  depths ``1 .. d-1`` (``HONEST`` / ``ADVERSARY``),
* ``type`` records whether a block is currently being mined (``TYPE_MINING``),
  whether honest miners have just found a block that is about to join the main
  chain (``TYPE_HONEST``), or whether the adversary has just privately mined a
  block (``TYPE_ADVERSARY``).

Decision timing (``TYPE_HONEST`` states)
----------------------------------------
In a ``TYPE_HONEST`` state the freshly found honest block is *pending*: it has
been broadcast but the adversary reacts before its own forks become stale.  If
the adversary keeps mining (or loses the race), the pending block is appended
and the window shifts; if a published fork wins, the pending block is orphaned.
This pre-incorporation timing is what makes the classic one-block race (the
``d = f = 1`` behaviour discussed in the paper's evaluation) expressible.  The
paper leaves this decision timing implicit; this section is the convention the
model fixes.

Depth and finality conventions
------------------------------
Depth 1 is the tip.  A released fork rooted at depth ``i`` orphans the blocks at
depths ``1 .. i-1`` (plus a pending honest block, if any); consequently a block
can never be orphaned once it sits at depth ``>= d`` and its finality reward
(component ``r_A`` for adversarial blocks, ``r_H`` for honest blocks) is
incurred on the transition that pushes it to depth ``>= d``.  For ``d = 1`` a
block is final the moment it irrevocably joins the main chain.

Actions
-------
``MineAction()`` -- keep mining; in a ``TYPE_HONEST`` state this accepts the
pending honest block.  ``ReleaseAction(i, j, k)`` -- publish the first ``k``
blocks of fork ``(i, j)`` (1-based, mirroring the paper's ``release_{i,j,k}``).
Release actions are only offered when they can be accepted:

* ``TYPE_ADVERSARY`` states: ``k >= i`` (strictly longer than the public chain);
* ``TYPE_HONEST`` states: ``k >= i + 1`` (strictly longer than the public chain
  including the pending block) or ``k = i`` (equal length, gamma-race against
  the pending honest block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from ..config import AttackParams, ProtocolParams

# Ownership flags.
HONEST = 0
ADVERSARY = 1

# State types.
TYPE_MINING = 0
TYPE_HONEST = 1
TYPE_ADVERSARY = 2

#: Reward-vector layout: index 0 counts finalised adversarial blocks (r_A),
#: index 1 counts finalised honest blocks (r_H).
REWARD_ADVERSARY_INDEX = 0
REWARD_HONEST_INDEX = 1

ForkState = Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...], int]
RewardVector = Tuple[float, float]


@dataclass(frozen=True)
class MineAction:
    """The ``mine`` action: do not reveal anything, keep mining."""

    def __repr__(self) -> str:
        return "mine"


@dataclass(frozen=True)
class ReleaseAction:
    """The ``release_{i,j,k}`` action (all indices 1-based as in the paper).

    Attributes:
        depth: Depth ``i`` of the main-chain block the fork is rooted at.
        fork: Index ``j`` of the fork at that block.
        blocks: Number ``k`` of leading fork blocks to publish.
    """

    depth: int
    fork: int
    blocks: int

    def __repr__(self) -> str:
        return f"release(i={self.depth}, j={self.fork}, k={self.blocks})"


def initial_state(attack: AttackParams) -> ForkState:
    """Return the initial state: empty forks, all-honest window, mining."""
    c0 = tuple(tuple(0 for _ in range(attack.forks)) for _ in range(attack.depth))
    o0 = tuple(HONEST for _ in range(attack.depth - 1))
    return (c0, o0, TYPE_MINING)


def action_label(action: object) -> Hashable:
    """Map kernel actions to the compact hashable labels stored in the MDP.

    Both the legacy :class:`~repro.mdp.MDPBuilder` construction and the cached
    structural skeleton use this single mapping, so the two build paths can
    never diverge in their action labelling.
    """
    if isinstance(action, MineAction):
        return ("mine",)
    if isinstance(action, ReleaseAction):
        return ("release", action.depth, action.fork, action.blocks)
    raise TypeError(f"unknown action {action!r}")


# --------------------------------------------------------------------------- helpers


def adversary_mining_targets(c_matrix: Tuple[Tuple[int, ...], ...]) -> List[Tuple[int, int, bool]]:
    """Return the blocks the adversary concurrently mines on.

    For every non-empty private fork ``(i, j)`` the adversary tries to extend its
    tip; additionally, for every main-chain depth ``i`` with at least one empty
    fork slot, it tries to start a new fork in the lowest-indexed empty slot.

    Returns:
        A list of ``(depth, fork, is_new_fork)`` triples with 1-based indices.
    """
    targets: List[Tuple[int, int, bool]] = []
    for i, row in enumerate(c_matrix, start=1):
        empty_slot = None
        for j, length in enumerate(row, start=1):
            if length > 0:
                targets.append((i, j, False))
            elif empty_slot is None:
                empty_slot = j
        if empty_slot is not None:
            targets.append((i, empty_slot, True))
    return targets


def _replace_fork(
    c_matrix: Tuple[Tuple[int, ...], ...], depth: int, fork: int, value: int
) -> Tuple[Tuple[int, ...], ...]:
    """Return a copy of ``c_matrix`` with entry ``(depth, fork)`` set to ``value``."""
    rows = [list(row) for row in c_matrix]
    rows[depth - 1][fork - 1] = value
    return tuple(tuple(row) for row in rows)


# ----------------------------------------------------------------- mining transitions


def mining_transitions(
    state: ForkState, protocol: ProtocolParams, attack: AttackParams
) -> List[Tuple[ForkState, float, RewardVector]]:
    """Successor distribution of the ``mine`` action in a ``TYPE_MINING`` state.

    With probability proportional to ``p`` per adversarial mining target the
    adversary privately extends (or starts) a fork; with probability proportional
    to ``1 - p`` the honest miners append a block to the main chain.
    """
    c_matrix, owners, state_type = state
    if state_type != TYPE_MINING:
        raise ValueError("mining_transitions is only defined for TYPE_MINING states")
    d, f, l = attack.depth, attack.forks, attack.max_fork_length
    p = protocol.p
    targets = adversary_mining_targets(c_matrix)
    sigma = len(targets)
    denominator = (1.0 - p) + p * sigma

    outcomes: Dict[ForkState, List[float]] = {}

    def accumulate(next_state: ForkState, probability: float, reward: RewardVector) -> None:
        if probability <= 0.0:
            return
        entry = outcomes.setdefault(next_state, [0.0, 0.0, 0.0])
        entry[0] += probability
        entry[1] += probability * reward[0]
        entry[2] += probability * reward[1]

    if denominator <= 0.0:
        # Degenerate corner: p == 0 and no targets is impossible (sigma >= d >= 1
        # always yields targets), and p == 0 gives denominator 1 - p = 1.
        raise ValueError("degenerate mining distribution")

    # Adversarial outcomes: one per mining target.
    adversary_probability = p / denominator if sigma else 0.0
    for depth, fork, is_new in targets:
        if is_new:
            new_c = _replace_fork(c_matrix, depth, fork, 1)
        else:
            current = c_matrix[depth - 1][fork - 1]
            new_c = _replace_fork(c_matrix, depth, fork, min(current + 1, l))
        accumulate((new_c, owners, TYPE_ADVERSARY), adversary_probability, (0.0, 0.0))

    # Honest outcome: a new honest block is found and becomes *pending* -- the
    # adversary gets to react (TYPE_HONEST) before the block displaces its forks.
    honest_probability = (1.0 - p) / denominator
    if honest_probability > 0.0:
        accumulate((c_matrix, owners, TYPE_HONEST), honest_probability, (0.0, 0.0))

    results: List[Tuple[ForkState, float, RewardVector]] = []
    for next_state, (probability, adv_mass, hon_mass) in outcomes.items():
        results.append(
            (next_state, probability, (adv_mass / probability, hon_mass / probability))
        )
    return results


def incorporate_pending_honest_block(
    state: ForkState, attack: AttackParams
) -> Tuple[ForkState, RewardVector]:
    """Append the pending honest block of a ``TYPE_HONEST`` state to the chain.

    The window shifts by one: the new block becomes depth 1 with empty forks,
    forks rooted at the old depth-``d`` block are abandoned, and the block pushed
    to depth ``d`` (or, for ``d = 1``, the fresh honest block itself) is final
    and rewarded.
    """
    c_matrix, owners, state_type = state
    if state_type != TYPE_HONEST:
        raise ValueError("only TYPE_HONEST states carry a pending honest block")
    d, f = attack.depth, attack.forks
    shifted_c = (tuple(0 for _ in range(f)),) + c_matrix[: d - 1]
    shifted_owners = (HONEST,) + owners[: d - 2] if d >= 2 else ()
    reward_adversary = 0.0
    reward_honest = 0.0
    if d == 1:
        # With attack depth 1 no block can ever be orphaned, so the fresh honest
        # block is final immediately.
        reward_honest += 1.0
    else:
        departing_owner = owners[d - 2]
        if departing_owner == ADVERSARY:
            reward_adversary += 1.0
        else:
            reward_honest += 1.0
    return (shifted_c, shifted_owners, TYPE_MINING), (reward_adversary, reward_honest)


# ----------------------------------------------------------------- release transitions


def _accepted_release_state(
    state: ForkState, action: ReleaseAction, attack: AttackParams
) -> Tuple[ForkState, RewardVector]:
    """State and finality rewards after a release is accepted as the main chain.

    Publishing the first ``k`` blocks of fork ``(i, j)`` replaces the public
    blocks at depths ``1 .. i-1`` with ``k`` adversarial blocks; the chain height
    grows by ``shift = k - (i - 1)``.  Surviving window rows move ``shift``
    positions deeper, the unpublished remainder of the fork becomes a fork on the
    new tip, and every block leaving the depth-``d`` window is rewarded.
    """
    c_matrix, owners, _ = state
    d, f, l = attack.depth, attack.forks, attack.max_fork_length
    i, j, k = action.depth, action.fork, action.blocks
    shift = k - (i - 1)
    if shift < 0:
        raise ValueError("release shorter than the public chain cannot be accepted")

    reward_adversary = 0.0
    reward_honest = 0.0

    # Newly published adversarial blocks occupy depths 1..k; those at depth >= d
    # are final immediately.
    reward_adversary += float(max(0, k - d + 1))

    # Tracked public blocks at old depths i..d-1 move to depth (old + shift); the
    # ones pushed to depth >= d are final now.  Blocks at old depths 1..i-1 are
    # orphaned and never rewarded.
    for old_depth in range(i, d):
        if old_depth + shift >= d:
            if owners[old_depth - 1] == ADVERSARY:
                reward_adversary += 1.0
            else:
                reward_honest += 1.0

    # New fork matrix.
    new_rows = [[0] * f for _ in range(d)]
    remainder = c_matrix[i - 1][j - 1] - k
    new_rows[0][0] = min(remainder, l)
    for old_depth in range(i, d + 1):
        new_depth = old_depth + shift
        if new_depth <= d:
            new_rows[new_depth - 1] = list(c_matrix[old_depth - 1])
    consumed_depth = i + shift  # == k + 1
    if consumed_depth <= d:
        # The published fork itself no longer exists at its old slot; its
        # unpublished remainder already moved to the tip.
        new_rows[consumed_depth - 1][j - 1] = 0
    new_c = tuple(tuple(row) for row in new_rows)

    # New ownership window (depths 1..d-1).
    new_owners: List[int] = []
    for depth in range(1, d):
        if depth <= k:
            new_owners.append(ADVERSARY)
        else:
            old_depth = depth - shift
            new_owners.append(owners[old_depth - 1])
    return (new_c, tuple(new_owners), TYPE_MINING), (reward_adversary, reward_honest)


def release_transitions(
    state: ForkState,
    action: ReleaseAction,
    protocol: ProtocolParams,
    attack: AttackParams,
) -> List[Tuple[ForkState, float, RewardVector]]:
    """Successor distribution of a release action in a decision state.

    In a ``TYPE_ADVERSARY`` state the published fork competes against the
    ``i - 1`` public blocks above its base, so ``k >= i`` wins outright.  In a
    ``TYPE_HONEST`` state the pending honest block is part of the competing
    chain: ``k >= i + 1`` wins outright, ``k = i`` triggers the gamma-race, and
    losing the race incorporates the pending block.
    """
    c_matrix, owners, state_type = state
    if state_type not in (TYPE_HONEST, TYPE_ADVERSARY):
        raise ValueError("release actions are only available in decision states")
    i, j, k = action.depth, action.fork, action.blocks
    if k < 1 or k > c_matrix[i - 1][j - 1]:
        raise ValueError(
            f"cannot publish {k} blocks of fork ({i}, {j}) of length {c_matrix[i - 1][j - 1]}"
        )

    accepted_state, accepted_reward = _accepted_release_state(state, action, attack)
    if state_type == TYPE_ADVERSARY:
        if k >= i:
            return [(accepted_state, 1.0, accepted_reward)]
        raise ValueError(
            f"release action {action!r} cannot beat the public chain from a TYPE_ADVERSARY state"
        )

    # TYPE_HONEST: the pending honest block is part of the competing public chain.
    public_blocks_above_base = i  # i - 1 confirmed blocks plus the pending block
    if k > public_blocks_above_base:
        # Strictly longer: adopted with certainty, the pending block is orphaned.
        return [(accepted_state, 1.0, accepted_reward)]
    if k == public_blocks_above_base:
        gamma = protocol.gamma
        rejected_state, rejected_reward = incorporate_pending_honest_block(state, attack)
        outcomes: List[Tuple[ForkState, float, RewardVector]] = []
        if gamma > 0.0:
            outcomes.append((accepted_state, gamma, accepted_reward))
        if gamma < 1.0:
            outcomes.append((rejected_state, 1.0 - gamma, rejected_reward))
        return outcomes
    raise ValueError(
        f"release action {action!r} is shorter than the public chain and cannot be accepted"
    )


# ------------------------------------------------------------- symbolic transitions

#: Symbolic probability kinds used by the cached model structure
#: (:mod:`repro.attacks.structure`).  The numeric probability of a transition is
#: recovered from its kind, its ``sigma`` (mining-denominator arity) and the
#: protocol parameters ``(p, gamma)``.
PROB_ONE = 0  #: probability 1
PROB_ADVERSARY = 1  #: p / ((1 - p) + p * sigma)
PROB_HONEST = 2  #: (1 - p) / ((1 - p) + p * sigma)
PROB_GAMMA = 3  #: gamma
PROB_ONE_MINUS_GAMMA = 4  #: 1 - gamma
#: Combined race tags used by scenarios that fold the mining lottery and the
#: tie-break into a single transition (e.g. ``sm-actions``); the selfish-forks
#: kernel never emits them.
PROB_GAMMA_HONEST = 5  #: gamma * (1 - p)
PROB_ONE_MINUS_GAMMA_HONEST = 6  #: (1 - gamma) * (1 - p)


@dataclass(frozen=True)
class SymbolicTransition:
    """One transition with its probability expressed symbolically in ``(p, gamma)``.

    The reward vector of every transition of the kernel is a constant that does
    not depend on the protocol parameters, so only the probability needs a
    symbolic representation.

    Attributes:
        successor: Successor state.
        kind: One of the ``PROB_*`` tags above.
        sigma: Number of concurrent adversarial mining targets (the arity of the
            mining-distribution denominator); 0 for non-mining kinds.
        multiplicity: Number of merged mining outcomes mapping to ``successor``
            (several capped forks can collapse onto the same state); 1 otherwise.
        reward: Constant ``(r_A, r_H)`` reward vector.
    """

    successor: ForkState
    kind: int
    sigma: int
    multiplicity: int
    reward: RewardVector


def symbolic_successor_distribution(
    state: ForkState, action: object, attack: AttackParams
) -> List[SymbolicTransition]:
    """Protocol-independent form of :func:`successor_distribution`.

    Returns the successor list of ``(state, action)`` with probabilities as
    symbolic tags instead of numbers, in the same enumeration order that
    :func:`successor_distribution` produces for protocol parameters of full
    support (``0 < p < 1``, ``0 < gamma < 1``).  Filtering the tags by a support
    signature reproduces the enumeration for boundary parameters.
    """
    c_matrix, owners, state_type = state
    if isinstance(action, MineAction):
        if state_type == TYPE_MINING:
            targets = adversary_mining_targets(c_matrix)
            sigma = len(targets)
            merged: Dict[ForkState, int] = {}
            for depth, fork, is_new in targets:
                if is_new:
                    new_c = _replace_fork(c_matrix, depth, fork, 1)
                else:
                    current = c_matrix[depth - 1][fork - 1]
                    new_c = _replace_fork(
                        c_matrix, depth, fork, min(current + 1, attack.max_fork_length)
                    )
                successor = (new_c, owners, TYPE_ADVERSARY)
                merged[successor] = merged.get(successor, 0) + 1
            result = [
                SymbolicTransition(successor, PROB_ADVERSARY, sigma, multiplicity, (0.0, 0.0))
                for successor, multiplicity in merged.items()
            ]
            result.append(
                SymbolicTransition(
                    (c_matrix, owners, TYPE_HONEST), PROB_HONEST, sigma, 1, (0.0, 0.0)
                )
            )
            return result
        if state_type == TYPE_HONEST:
            successor, reward = incorporate_pending_honest_block(state, attack)
            return [SymbolicTransition(successor, PROB_ONE, 0, 1, reward)]
        # TYPE_ADVERSARY: resume mining without revealing anything.
        return [
            SymbolicTransition((c_matrix, owners, TYPE_MINING), PROB_ONE, 0, 1, (0.0, 0.0))
        ]
    if isinstance(action, ReleaseAction):
        if state_type not in (TYPE_HONEST, TYPE_ADVERSARY):
            raise ValueError("release actions are only available in decision states")
        i, j, k = action.depth, action.fork, action.blocks
        if k < 1 or k > c_matrix[i - 1][j - 1]:
            raise ValueError(
                f"cannot publish {k} blocks of fork ({i}, {j}) of length {c_matrix[i - 1][j - 1]}"
            )
        accepted_state, accepted_reward = _accepted_release_state(state, action, attack)
        if state_type == TYPE_ADVERSARY:
            if k >= i:
                return [SymbolicTransition(accepted_state, PROB_ONE, 0, 1, accepted_reward)]
            raise ValueError(
                f"release action {action!r} cannot beat the public chain from a "
                f"TYPE_ADVERSARY state"
            )
        if k > i:
            return [SymbolicTransition(accepted_state, PROB_ONE, 0, 1, accepted_reward)]
        if k == i:
            rejected_state, rejected_reward = incorporate_pending_honest_block(state, attack)
            return [
                SymbolicTransition(accepted_state, PROB_GAMMA, 0, 1, accepted_reward),
                SymbolicTransition(rejected_state, PROB_ONE_MINUS_GAMMA, 0, 1, rejected_reward),
            ]
        raise ValueError(
            f"release action {action!r} is shorter than the public chain and cannot be accepted"
        )
    raise TypeError(f"unknown action {action!r}")


# ----------------------------------------------------------------------- action space


def available_actions(state: ForkState, attack: AttackParams) -> List[object]:
    """Return the available actions of ``state`` (Section 3.2 of the paper).

    ``TYPE_MINING`` states offer only ``mine``.  Decision states additionally
    offer every release action that can possibly be accepted (see module docs).
    """
    _, _, state_type = state
    actions: List[object] = [MineAction()]
    if state_type == TYPE_MINING:
        return actions
    c_matrix = state[0]
    for i, row in enumerate(c_matrix, start=1):
        for j, length in enumerate(row, start=1):
            if length == 0:
                continue
            minimum_blocks = i if state_type == TYPE_ADVERSARY else i
            # In a TYPE_HONEST state a k = i release races the pending block and a
            # k >= i + 1 release beats it outright; in a TYPE_ADVERSARY state
            # k >= i beats the public chain outright.  Both cases start at k = i.
            for k in range(minimum_blocks, length + 1):
                actions.append(ReleaseAction(depth=i, fork=j, blocks=k))
    return actions


def successor_distribution(
    state: ForkState,
    action: object,
    protocol: ProtocolParams,
    attack: AttackParams,
) -> List[Tuple[ForkState, float, RewardVector]]:
    """Successor distribution of ``action`` in ``state`` with finality rewards."""
    _, _, state_type = state
    if isinstance(action, MineAction):
        if state_type == TYPE_MINING:
            return mining_transitions(state, protocol, attack)
        if state_type == TYPE_HONEST:
            # Accept the pending honest block and resume mining.
            successor, reward = incorporate_pending_honest_block(state, attack)
            return [(successor, 1.0, reward)]
        # TYPE_ADVERSARY: simply resume mining without revealing anything.
        return [((state[0], state[1], TYPE_MINING), 1.0, (0.0, 0.0))]
    if isinstance(action, ReleaseAction):
        return release_transitions(state, action, protocol, attack)
    raise TypeError(f"unknown action {action!r}")
