"""Object-level reference exploration of the selfish-forks skeleton.

:func:`explore_by_objects` is the breadth-first search over hashable
:data:`~repro.attacks.fork_state.ForkState` tuples that
:func:`repro.attacks.structure.build_model_structure` replaced with a
level-synchronous numpy exploration over integer state codes.  It walks the
kernel of :mod:`repro.attacks.fork_state` one state and one action at a time,
so the two explorations share no code beyond the kernel itself;
``test_explore_oracle.py`` asserts that their skeletons are equal array for
array, dtype included, and label for label.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.attacks import fork_state
from repro.attacks.fork_state import (
    ForkState,
    action_label,
    symbolic_successor_distribution,
)
from repro.attacks.registry import SupportSignature
from repro.attacks.structure import DEFAULT_MAX_STATES, SelfishForksStructure
from repro.config import AttackParams
from repro.exceptions import ConfigurationError


def explore_by_objects(
    attack: AttackParams,
    signature: SupportSignature,
    *,
    max_states: Optional[int] = DEFAULT_MAX_STATES,
) -> SelfishForksStructure:
    """Explore the reachable fragment for ``(attack, signature)`` state by state.

    States are numbered in discovery order; rows and transitions follow
    :func:`~repro.attacks.fork_state.available_actions` and
    :func:`~repro.attacks.fork_state.symbolic_successor_distribution`.

    Raises:
        ConfigurationError: If the exploration exceeds ``max_states``, or a
            state keeps no transition under ``signature``.
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
                    f"state-space exploration exceeded {max_states} states; reduce d, f or l"
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
