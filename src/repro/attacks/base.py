"""Policy interface consumed by the discrete-time chain simulator.

The simulator (see :mod:`repro.chain.simulator`) re-creates the paper's system
model with concrete block objects and asks a :class:`MiningPolicy` what the
adversary should do after every block event.  Policies observe the same
``(C, O, type)`` abstraction as the MDP (a :data:`~repro.attacks.fork_state.ForkState`),
which lets strategies computed by the formal analysis be replayed unchanged and
validated by Monte-Carlo simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Optional

from .fork_state import ForkState, MineAction, ReleaseAction


@dataclass(frozen=True)
class AttackDecision:
    """Decision returned by a policy after a block event.

    Attributes:
        release: The release action to perform, or ``None`` to keep mining.
    """

    #: Scenario whose simulator understands this decision type.  Scenarios with
    #: a different observation/decision contract subclass and override this.
    scenario_name: ClassVar[str] = "selfish-forks"

    release: Optional[ReleaseAction] = None

    @property
    def is_release(self) -> bool:
        """Whether the decision publishes a private fork."""
        return self.release is not None

    @classmethod
    def mine(cls) -> "AttackDecision":
        """The "keep mining" decision."""
        return cls(release=None)

    @classmethod
    def from_action(cls, action: object) -> "AttackDecision":
        """Convert a kernel action (:class:`MineAction` / :class:`ReleaseAction`)."""
        if isinstance(action, ReleaseAction):
            return cls(release=action)
        if isinstance(action, MineAction):
            return cls.mine()
        raise TypeError(f"unknown action {action!r}")


class MiningPolicy(ABC):
    """Abstract adversarial mining policy driven by a scenario's simulator.

    The :data:`scenario_name` hook names the attack scenario whose
    replay understands this policy's observation/decision contract; simulator
    front-ends use it to dispatch a policy to the matching scenario entry
    (see :func:`repro.attacks.registry.get_attack`).  Fork-window policies
    (the default, ``"selfish-forks"``) observe a
    :data:`~repro.attacks.fork_state.ForkState` and return an
    :class:`AttackDecision`; other scenarios may document different types.
    """

    #: Scenario this policy replays under.
    scenario_name: ClassVar[str] = "selfish-forks"

    @abstractmethod
    def decide(self, state: ForkState) -> AttackDecision:
        """Return the adversary's decision in the given abstract state."""

    def reset(self) -> None:
        """Reset internal state before a fresh simulation run (no-op by default)."""

    @property
    def name(self) -> str:
        """Human-readable policy name used in reports."""
        return type(self).__name__
