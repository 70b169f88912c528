"""Recursive reference evaluation of the single-tree baseline's attack round.

:func:`round_expectations` is the memoised depth-first recursion over
``(public_length, levels)`` states that
:func:`repro.attacks.single_tree.single_tree_errev` replaced with a layered
numpy evaluation over a cached round graph.  It re-explores the round for
every call and applies the publication rule itself, so the two share only the
transition helpers ``_extendable_levels`` and ``_tree_depth``;
``test_single_tree_oracle.py`` asserts that their ERRev values are equal as
floats, not merely close.  :func:`simulate_single_tree_errev` estimates the
same value by Monte-Carlo simulation of attack rounds.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.attacks.single_tree import SingleTreeParams, _extendable_levels, _tree_depth
from repro.config import ProtocolParams

#: Within-round state: (public_blocks_since_fork, tree_level_occupancies).
RoundState = Tuple[int, Tuple[int, ...]]


def honest_block_outcome(
    public_length: int, levels: Tuple[int, ...], gamma: float
) -> Tuple[str, Tuple[float, float]]:
    """Resolve the publication rule right after an honest block.

    Returns:
        ``("continue", (0, 0))`` if the round goes on, or ``("end", (E[A], E[H]))``
        with the expected round rewards if the round terminates now.
    """
    depth = _tree_depth(levels)
    if depth == 0:
        return "end", (0.0, float(public_length))
    lead = depth - public_length
    if lead >= 2:
        return "continue", (0.0, 0.0)
    if lead == 1:
        # Publishing the longest path beats the public chain outright.
        return "end", (float(depth), 0.0)
    # lead == 0: equal length, gamma race.
    return "end", (gamma * depth, (1.0 - gamma) * public_length)


def round_expectations(
    protocol: ProtocolParams,
    params: SingleTreeParams,
    memo: Optional[Dict[RoundState, Tuple[float, float]]] = None,
) -> Tuple[float, float]:
    """Exact expected (adversarial, honest) finalised blocks of one attack round.

    ``protocol.p`` must lie strictly inside ``(0, 1)``.  Pass ``memo`` to
    inspect the states the recursion reached.
    """
    p = protocol.p
    gamma = protocol.gamma
    max_width = params.max_width
    cache: Dict[RoundState, Tuple[float, float]] = {} if memo is None else memo

    def expectation(state: RoundState) -> Tuple[float, float]:
        if state in cache:
            return cache[state]
        public_length, levels = state
        parents = _extendable_levels(levels, max_width)
        sigma = sum(parents.values())
        denominator = (1.0 - p) + p * sigma

        adversary_total = 0.0
        honest_total = 0.0

        # Adversarial outcomes: extend one of the extendable levels.
        for parent_level, count in parents.items():
            probability = p * count / denominator
            new_levels = list(levels)
            new_levels[parent_level] += 1
            successor = (public_length, tuple(new_levels))
            sub_adv, sub_hon = expectation(successor)
            adversary_total += probability * sub_adv
            honest_total += probability * sub_hon

        # Honest outcome: the public chain grows by one block.
        honest_probability = (1.0 - p) / denominator
        if honest_probability > 0.0:
            new_public = public_length + 1
            verdict, rewards = honest_block_outcome(new_public, levels, gamma)
            if verdict == "end":
                adversary_total += honest_probability * rewards[0]
                honest_total += honest_probability * rewards[1]
            else:
                sub_adv, sub_hon = expectation((new_public, levels))
                adversary_total += honest_probability * sub_adv
                honest_total += honest_probability * sub_hon

        cache[state] = (adversary_total, honest_total)
        return cache[state]

    start: RoundState = (0, tuple(0 for _ in range(params.max_depth)))
    return expectation(start)


def oracle_errev(protocol: ProtocolParams, params: SingleTreeParams) -> float:
    """The baseline's ERRev by the recursion, with ``single_tree_errev``'s edge cases."""
    if protocol.p == 0.0:
        return 0.0
    if protocol.p == 1.0:
        return 1.0
    adversary, honest = round_expectations(protocol, params)
    total = adversary + honest
    if total <= 0.0:
        return 0.0
    return adversary / total


def simulate_single_tree_errev(
    protocol: ProtocolParams,
    params: SingleTreeParams | None = None,
    *,
    num_rounds: int = 20_000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the single-tree baseline's ERRev.

    Simulates ``num_rounds`` attack rounds with the publication rule written
    out again, an independent cross-check of the exact evaluation.
    """
    params = params or SingleTreeParams()
    p = protocol.p
    gamma = protocol.gamma
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    rng = np.random.default_rng(seed)
    adversary_blocks = 0.0
    honest_blocks = 0.0
    for _ in range(num_rounds):
        public_length = 0
        levels = [0] * params.max_depth
        while True:
            parents = _extendable_levels(tuple(levels), params.max_width)
            sigma = sum(parents.values())
            denominator = (1.0 - p) + p * sigma
            draw = rng.random() * denominator
            threshold = 0.0
            extended = False
            for parent_level, count in parents.items():
                threshold += p * count
                if draw < threshold:
                    levels[parent_level] += 1
                    extended = True
                    break
            if extended:
                continue
            # Honest block found.
            public_length += 1
            depth = _tree_depth(tuple(levels))
            if depth == 0:
                honest_blocks += public_length
                break
            lead = depth - public_length
            if lead >= 2:
                continue
            if lead == 1:
                adversary_blocks += depth
                break
            # lead == 0: gamma race.
            if rng.random() < gamma:
                adversary_blocks += depth
            else:
                honest_blocks += public_length
            break
    total = adversary_blocks + honest_blocks
    return adversary_blocks / total if total else 0.0
