"""Construction of the multi-fork selfish-mining MDP (the paper's core model).

The reachable state space is explored breadth-first from the initial state; every
discovered state receives its full action set and successor distributions from
the transition kernel in :mod:`repro.attacks.fork_state`.  Reward vectors carry
two components, the number of adversarial (``r_A``) and honest (``r_H``) blocks
finalised by a transition, which Algorithm 1 combines into ``r_beta``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List

from ..config import AttackParams, ProtocolParams
from ..mdp import MDP, MDPBuilder
from . import fork_state, structure
from .fork_state import ForkState, action_label

#: Number of reward components attached to every transition (r_A, r_H).
NUM_REWARD_COMPONENTS = 2


@dataclass
class SelfishForksModel:
    """A built selfish-mining MDP together with its parameters.

    Attributes:
        mdp: The explicit MDP (reward components: ``(r_A, r_H)``).
        protocol: Protocol parameters the model was built for.
        attack: Attack parameters the model was built for.
    """

    mdp: MDP
    protocol: ProtocolParams
    attack: AttackParams

    @property
    def num_states(self) -> int:
        """Number of reachable states."""
        return self.mdp.num_states

    def describe(self) -> str:
        """One-line human-readable summary of the model size."""
        return (
            f"selfish-forks MDP: d={self.attack.depth}, f={self.attack.forks}, "
            f"l={self.attack.max_fork_length}, p={self.protocol.p}, gamma={self.protocol.gamma}; "
            f"{self.mdp.num_states} states, {self.mdp.num_rows} state-action pairs, "
            f"{self.mdp.num_transitions} transitions"
        )


def build_selfish_forks_mdp(
    protocol: ProtocolParams,
    attack: AttackParams,
    *,
    use_structure_cache: bool = True,
) -> SelfishForksModel:
    """Build the reachable fragment of the selfish-mining MDP.

    The state/action/successor skeleton -- which depends only on ``(d, f, l)``
    and the support of ``(p, gamma)`` -- is taken from the process-local
    structure cache (:mod:`repro.attacks.structure`) and only the probability
    array is refilled for the concrete parameter point.  This is the path every
    sweep point takes.

    ``use_structure_cache=False`` is not a sweep option: it selects the
    independent reference builder, a from-scratch object-level exploration
    through :class:`~repro.mdp.MDPBuilder` that the structure-cache tests and
    the benchmark's reference values cross-check the cached path against.

    Args:
        protocol: Blockchain / network parameters ``(p, gamma)``.
        attack: Attack parameters ``(d, f, l)``.
        use_structure_cache: ``False`` builds with the reference builder
            instead of the cached skeleton.

    Raises:
        ConfigurationError: If the exploration exceeds
            :data:`repro.attacks.structure.DEFAULT_MAX_STATES` states.
    """
    if use_structure_cache:
        skeleton = structure.get_model_structure(attack, protocol)
        return SelfishForksModel(
            mdp=skeleton.instantiate(protocol), protocol=protocol, attack=attack
        )
    cap = structure.DEFAULT_MAX_STATES
    builder = MDPBuilder(num_reward_components=NUM_REWARD_COMPONENTS)
    start = fork_state.initial_state(attack)
    builder.add_state(start)
    queue: deque[ForkState] = deque([start])
    expanded: Dict[ForkState, bool] = {start: False}

    while queue:
        state = queue.popleft()
        if expanded[state]:
            continue
        expanded[state] = True
        for action in fork_state.available_actions(state, attack):
            transitions = fork_state.successor_distribution(state, action, protocol, attack)
            rows: List[tuple] = []
            for successor, probability, reward in transitions:
                rows.append((successor, probability, reward))
                if successor not in expanded:
                    expanded[successor] = False
                    queue.append(successor)
                    if len(expanded) > cap:
                        raise structure.exceeded_cap()
            builder.add_action(state, action_label(action), rows)

    mdp = builder.build(initial_state=start)
    return SelfishForksModel(mdp=mdp, protocol=protocol, attack=attack)
