"""Result containers of the high-level API."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.algorithm1 import FormalAnalysisResult
from ..config import AttackParams, ProtocolParams


@dataclass
class AnalysisResult:
    """Complete result of analysing one parameter point.

    Attributes:
        protocol: Protocol parameters the analysis was run for.
        attack: Attack parameters the analysis was run for.
        errev_lower_bound: Epsilon-tight lower bound on the optimal ERRev
            (Algorithm 1's ``beta_low``).
        strategy_errev: Exact ERRev of the extracted strategy (stationary
            evaluation), ``None`` if evaluation was disabled.
        honest_errev: ERRev of honest mining (= ``p``), for comparison.
        num_states: Number of states of the constructed MDP.
        num_transitions: Number of transitions of the constructed MDP.
        build_seconds: Wall-clock time spent building the MDP.
        analysis_seconds: Wall-clock time spent in Algorithm 1.
        formal: The raw :class:`FormalAnalysisResult` (iteration log, strategy).
        simulated_errev: Optional Monte-Carlo estimate of the strategy's ERRev.
    """

    protocol: ProtocolParams
    attack: AttackParams
    errev_lower_bound: float
    strategy_errev: Optional[float]
    honest_errev: float
    num_states: int
    num_transitions: int
    build_seconds: float
    analysis_seconds: float
    formal: FormalAnalysisResult
    simulated_errev: Optional[float] = None

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time (model construction plus analysis)."""
        return self.build_seconds + self.analysis_seconds

    @property
    def advantage_over_honest(self) -> float:
        """How much the attack improves on honest mining (in ERRev)."""
        value = self.strategy_errev if self.strategy_errev is not None else self.errev_lower_bound
        return value - self.honest_errev

    @property
    def chain_quality(self) -> float:
        """Chain quality implied by the attack (1 - ERRev)."""
        value = self.strategy_errev if self.strategy_errev is not None else self.errev_lower_bound
        return 1.0 - value

    def to_row(self) -> Dict[str, object]:
        """Flatten into a dictionary suitable for CSV reporting."""
        return {
            "p": self.protocol.p,
            "gamma": self.protocol.gamma,
            "d": self.attack.depth,
            "f": self.attack.forks,
            "l": self.attack.max_fork_length,
            "errev_lower_bound": self.errev_lower_bound,
            "strategy_errev": self.strategy_errev,
            "honest_errev": self.honest_errev,
            "num_states": self.num_states,
            "num_transitions": self.num_transitions,
            "build_seconds": self.build_seconds,
            "analysis_seconds": self.analysis_seconds,
        }


@dataclass
class SweepPoint:
    """One point of a parameter sweep (one curve sample of Figure 2).

    Attributes:
        p: Adversarial resource fraction.
        gamma: Switching probability.
        series: Name of the curve the point belongs to (e.g. ``"d=2,f=2"``).
        errev: Expected relative revenue at the point.
        seconds: Wall-clock time spent computing the point (``None`` for
            closed-form baseline points, which are effectively free).
        solver_iterations: Total mean-payoff solver iterations Algorithm 1
            spent on the point (``None`` for baseline points).
        beta_low: Certified lower end of the point's final beta interval
            (``None`` for baseline points); satisfies ``beta_low <= ERRev*``.
        beta_up: Certified upper end of the final beta interval (``None`` for
            baseline points); satisfies ``ERRev* <= beta_up`` within the MDP's
            strategy class.
        scenario: Versioned ``name@version`` id of the attack scenario that
            computed the point (see :mod:`repro.attacks.registry`); ``None``
            for closed-form baseline points.
    """

    p: float
    gamma: float
    series: str
    errev: float
    seconds: Optional[float] = None
    solver_iterations: Optional[int] = None
    beta_low: Optional[float] = None
    beta_up: Optional[float] = None
    scenario: Optional[str] = None

    def to_row(self) -> Dict[str, object]:
        """Flatten into a dictionary suitable for CSV reporting."""
        row: Dict[str, object] = {
            "p": self.p,
            "gamma": self.gamma,
            "series": self.series,
            "errev": self.errev,
        }
        if self.seconds is not None:
            row["seconds"] = self.seconds
        if self.solver_iterations is not None:
            row["solver_iterations"] = self.solver_iterations
        if self.beta_low is not None:
            row["beta_low"] = self.beta_low
        if self.beta_up is not None:
            row["beta_up"] = self.beta_up
        if self.scenario is not None:
            row["scenario"] = self.scenario
        return row


@dataclass(frozen=True)
class SweepFailure:
    """A parameter point whose analysis raised, isolated from the rest of the sweep.

    Attributes:
        p: Adversarial resource fraction of the failed point.
        gamma: Switching probability of the failed point.
        series: Series the point belonged to.
        message: ``"ExceptionType: message"`` captured in the worker.
    """

    p: float
    gamma: float
    series: str
    message: str


@dataclass
class SweepResult:
    """A collection of sweep points grouped into named series.

    Attributes:
        points: All computed sweep points.
        description: Human-readable description of the sweep.
        failures: Points whose analysis raised; the sweep engine isolates
            per-point failures instead of aborting the whole grid.
        metadata: Execution metadata attached by the engine -- a journaled
            sweep records its journal statistics under ``metadata["journal"]``
            (path, fsync policy, replayed and recorded point counts, skipped
            units).
    """

    points: List[SweepPoint] = field(default_factory=list)
    description: str = ""
    failures: List[SweepFailure] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def total_compute_seconds(self) -> float:
        """Sum of per-point compute times (0.0 when no point carries timing)."""
        return sum(point.seconds or 0.0 for point in self.points)

    @property
    def total_solver_iterations(self) -> int:
        """Sum of per-point solver iterations across the sweep."""
        return sum(point.solver_iterations or 0 for point in self.points)

    def series_names(self) -> List[str]:
        """Names of all series, in first-appearance order."""
        names: List[str] = []
        for point in self.points:
            if point.series not in names:
                names.append(point.series)
        return names

    def series(self, name: str, gamma: Optional[float] = None) -> List[SweepPoint]:
        """Return the points of one series (optionally for a single gamma)."""
        return [
            point
            for point in self.points
            if point.series == name and (gamma is None or point.gamma == gamma)
        ]

    def gammas(self) -> List[float]:
        """Distinct gamma values present in the sweep."""
        values: List[float] = []
        for point in self.points:
            if point.gamma not in values:
                values.append(point.gamma)
        return values

    def merge(self, other: "SweepResult") -> "SweepResult":
        """Return a new sweep containing the points of both sweeps.

        Points and failures concatenate; ``metadata`` merges *shallowly* with
        ``other`` winning on key collisions -- merging two journaled sweeps
        keeps only the second one's ``metadata["journal"]`` block.
        """
        return SweepResult(
            points=self.points + other.points,
            description=self.description,
            failures=self.failures + other.failures,
            metadata={**self.metadata, **other.metadata},
        )
