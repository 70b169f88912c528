"""Parameter containers for the selfish-mining analysis.

The paper's model is parameterised by five quantities (Section 3.2):

* ``p``      -- relative resource of the adversarial coalition,
* ``gamma``  -- switching probability of honest miners in a tie,
* ``d``      -- attack depth (number of recent main-chain blocks forked on),
* ``f``      -- forking number (private forks per main-chain block),
* ``l``      -- maximal private fork length (finiteness bound).

``ProtocolParams`` carries the first two (properties of the blockchain / network),
``AttackParams`` the last three (properties of the attack), and ``AnalysisConfig``
collects the settings of the formal analysis procedure (Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ._validation import (
    check_positive_float,
    check_positive_int,
    check_probability,
)
from .exceptions import ConfigurationError

#: The ``variant`` values of each attack scenario (``""`` is its default).
#: The scenario set is closed (see :func:`repro.attacks.registry.get_attack`);
#: it is listed here, not discovered by importing the scenario modules, so
#: that :class:`AttackParams` can validate eagerly without pulling the whole
#: :mod:`repro.attacks` package into every import of this bottom-layer module.
SCENARIO_VARIANTS: Dict[str, Tuple[str, ...]] = {
    "selfish-forks": ("",),
    "sm-actions": ("", "overpaying"),
}

#: Names of the attack scenarios.
SCENARIO_NAMES: Tuple[str, ...] = tuple(SCENARIO_VARIANTS)


@dataclass(frozen=True)
class ProtocolParams:
    """System-model parameters of the blockchain protocol.

    Attributes:
        p: Fraction of the total mining resource owned by the adversary.
        gamma: Probability that honest miners switch to a just-revealed adversarial
            chain of equal length ("switching probability" in the paper).
    """

    p: float = 0.3
    gamma: float = 0.5

    def __post_init__(self) -> None:
        check_probability(self.p, "p")
        check_probability(self.gamma, "gamma")

    def to_dict(self) -> Dict[str, float]:
        """Serialise to a plain dictionary (for CSV / JSON reporting)."""
        return {"p": self.p, "gamma": self.gamma}


@dataclass(frozen=True)
class AttackParams:
    """Parameters of one attack-scenario instance.

    The integer parameters are interpreted by the scenario named in
    ``scenario`` (one of :data:`SCENARIO_NAMES`).  For the default
    ``"selfish-forks"`` scenario they are the paper's ``(d, f, l)``; the
    ``"sm-actions"`` scenario uses only ``max_fork_length`` as its race
    truncation bound and keeps ``depth = forks = 1``.

    Attributes:
        depth: Attack depth ``d`` -- the adversary forks on the last ``d`` blocks
            of the main chain.
        forks: Forking number ``f`` -- number of private forks grown per block.
        max_fork_length: Maximal fork length ``l`` -- private forks longer than
            this are truncated, keeping the MDP finite.
        scenario: Name of the attack scenario these parameters belong to.
            Unknown names are rejected at construction time.
        variant: Scenario-specific reward-regime selector (``"overpaying"``
            for ``sm-actions``); the empty string selects the scenario default.
            Values outside :data:`SCENARIO_VARIANTS` are rejected at
            construction time.
    """

    depth: int = 2
    forks: int = 1
    max_fork_length: int = 4
    scenario: str = "selfish-forks"
    variant: str = ""

    def __post_init__(self) -> None:
        check_positive_int(self.depth, "depth")
        check_positive_int(self.forks, "forks")
        check_positive_int(self.max_fork_length, "max_fork_length")
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigurationError(
                f"scenario must be one of {SCENARIO_NAMES}, got {self.scenario!r}"
            )
        variants = SCENARIO_VARIANTS[self.scenario]
        if self.variant not in variants:
            raise ConfigurationError(
                f"variant of {self.scenario!r} must be one of {variants}, "
                f"got {self.variant!r}"
            )

    @property
    def d(self) -> int:
        """Alias matching the paper's notation."""
        return self.depth

    @property
    def f(self) -> int:
        """Alias matching the paper's notation."""
        return self.forks

    @property
    def l(self) -> int:  # noqa: E743 - matches the paper's symbol
        """Alias matching the paper's notation."""
        return self.max_fork_length

    def to_dict(self) -> Dict[str, object]:
        """Serialise to a plain dictionary (for CSV / JSON reporting)."""
        return {
            "depth": self.depth,
            "forks": self.forks,
            "max_fork_length": self.max_fork_length,
            "scenario": self.scenario,
            "variant": self.variant,
        }


@dataclass(frozen=True)
class AnalysisConfig:
    """Configuration of the formal analysis procedure (Algorithm 1).

    The mean-payoff solver of every binary-search probe has no settings here:
    policy iteration's improvement threshold and round budget are constants
    of :mod:`repro.mdp.policy_iteration`.

    Attributes:
        epsilon: Precision of the binary search over the reward parameter beta.
        evaluate_strategy: If true, the extracted strategy is additionally
            evaluated exactly (stationary-distribution ratio), which yields the
            exact ERRev it guarantees.
    """

    epsilon: float = 1e-3
    evaluate_strategy: bool = True

    def __post_init__(self) -> None:
        check_positive_float(self.epsilon, "epsilon")

    def to_dict(self) -> Dict[str, object]:
        """Serialise to a plain dictionary (for reporting)."""
        return {
            "epsilon": self.epsilon,
            "evaluate_strategy": self.evaluate_strategy,
        }


#: Attack configurations evaluated in the paper (Table 1 / Figure 2), l = 4.
PAPER_ATTACK_CONFIGS = (
    AttackParams(depth=1, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=2, max_fork_length=4),
    AttackParams(depth=3, forks=2, max_fork_length=4),
    AttackParams(depth=4, forks=2, max_fork_length=4),
)

#: Switching probabilities evaluated in Figure 2.
PAPER_GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)
