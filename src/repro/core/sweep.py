"""Parameter sweeps reproducing the paper's Figure 2.

Figure 2 plots the expected relative revenue as a function of the adversary's
resource fraction ``p`` for several switching probabilities ``gamma``, comparing
the paper's attack (for several ``(d, f)`` configurations) against honest mining
and the single-tree baseline.  Every sweep evaluates both baselines, honest
mining and the single tree at :data:`DEFAULT_SINGLE_TREE` (the paper's
``l = 4, f = 5``), beside its attack series.  ``run_sweep(SweepConfig())``
regenerates those series on a laptop-scale default grid (p in steps of 0.05 up to 0.3, gamma in
{0, 0.5, 1}, ``(d, f)`` in {(1, 1), (2, 1)}); the paper's 0.01 p-step, its five
gammas and its larger ``(d, f)`` configurations are :class:`SweepConfig`
fields away.

:func:`run_sweep` is :func:`repro.core.execution.execute_sweep`: it plans the
grid, runs the units in-process (``workers=1``) or on a local process pool,
refills every point from the cached model skeleton and can chain solver warm
starts along the ``p`` axis (``warm_start_across_points``).  Each attack point
of the result is the :class:`~repro.core.results.SweepPoint` or
:class:`~repro.core.results.SweepFailure` its worker returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .._validation import check_positive_int, check_probability
from ..config import AnalysisConfig, AttackParams
from ..exceptions import ConfigurationError
from .engine import DEFAULT_SINGLE_TREE, attack_series_name
from .execution import execute_sweep

__all__ = [
    "DEFAULT_ATTACK_CONFIGS",
    "DEFAULT_SINGLE_TREE",
    "SweepConfig",
    "attack_series_name",
    "run_sweep",
]

#: Default (d, f) configurations of the paper that are tractable by default.
DEFAULT_ATTACK_CONFIGS = (
    AttackParams(depth=1, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=1, max_fork_length=4),
)


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a Figure 2 style sweep.

    The honest and single-tree baseline series are part of every sweep; only
    the attack series are configured here.  A config is validated when it is
    built and is frozen, with its grids stored as tuples (any sequence is
    accepted), so every sweep runs a valid grid.

    Attributes:
        p_values: Grid of adversarial resource fractions, each in [0, 1] and
            none repeated.
        gammas: Switching probabilities (one plot per gamma in the paper),
            each in [0, 1] and none repeated.
        attack_configs: Attack configurations swept (interpreted by the
            scenario each :class:`AttackParams` names; all configurations of a
            sweep must belong to the same scenario).  Another scenario's
            default grid is ``get_attack(name).grid_configs("default")``.
        analysis: Formal-analysis configuration used for every attack point.
        workers: Worker processes the attack points are fanned out over;
            1 (default) executes in-process.  Results are bit-for-bit
            identical across worker counts.
        warm_start_across_points: Chain each attack series along the ``p``
            axis, starting every Algorithm 1 run's first solve from the
            certified strategy of the previous grid point.  Changes results
            only within solver tolerance; disabled by default so every point
            is computed independently.
        reuse_p_axis_bounds: Exploit the monotonicity of ERRev* in ``p``: each
            point's binary search starts from the previous (smaller-p) point's
            certified ``beta_low`` instead of 0.  Sound by Theorem 3.1 and
            applied only for non-decreasing p within a series; the series is
            scheduled as one ordered block per worker so the bounds never cross
            a process boundary.  Certified intervals still have width below
            ``epsilon``; the computed values can differ from cold-interval
            results by at most ``epsilon``.
        journal_path: Path of the durable sweep journal
            (:mod:`repro.core.journal`).  When set, the record of every
            computed attack point (its ``SweepPoint`` or ``SweepFailure``)
            is appended to this crash-safe JSONL file as it lands.  ``None`` (default) disables
            journaling.  CLI: ``repro sweep --journal PATH``.
        journal_resume: Resume from an existing journal at ``journal_path``:
            intact journaled points are replayed through the normal result
            assembly and only the missing delta is recomputed, bit-for-bit
            identical to an uninterrupted run.  Requires ``journal_path``.
            CLI: ``--resume``.
        journal_fsync: Journal durability policy -- ``"never"``, ``"close"``
            (default; one fsync when the journal closes) or ``"always"``
            (fsync per record).  CLI: ``--journal-fsync``.
    """

    p_values: Tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(0, 7))
    gammas: Tuple[float, ...] = (0.0, 0.5, 1.0)
    attack_configs: Tuple[AttackParams, ...] = DEFAULT_ATTACK_CONFIGS
    analysis: AnalysisConfig = field(default_factory=lambda: AnalysisConfig(epsilon=1e-3))
    workers: int = 1
    warm_start_across_points: bool = False
    reuse_p_axis_bounds: bool = False
    journal_path: Optional[str] = None
    journal_resume: bool = False
    journal_fsync: str = "close"

    def __post_init__(self) -> None:
        for name in ("p_values", "gammas", "attack_configs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        check_positive_int(self.workers, "workers")
        for name, values in (("p_values", self.p_values), ("gammas", self.gammas)):
            if not values:
                raise ConfigurationError(f"{name} must contain at least one value")
            for value in values:
                check_probability(value, name)
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{name} must not repeat a value, got {tuple(values)!r}")
        if not isinstance(self.analysis, AnalysisConfig):
            raise ConfigurationError(
                f"analysis must be an AnalysisConfig, got {type(self.analysis).__name__}"
            )
        scenarios = {attack.scenario for attack in self.attack_configs}
        if len(scenarios) > 1:
            raise ConfigurationError(
                f"mixed-scenario sweep: attack_configs span scenarios "
                f"{sorted(scenarios)}; run one sweep per scenario"
            )
        if self.journal_resume and self.journal_path is None:
            raise ConfigurationError(
                "journal_resume requires journal_path (the journal to resume from)"
            )
        from .journal import FSYNC_POLICIES  # deferred: import cycle

        if self.journal_fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"journal_fsync must be one of {FSYNC_POLICIES}, "
                f"got {self.journal_fsync!r}"
            )


#: Run a Figure 2 style sweep and return all computed points (the public name
#: of :func:`repro.core.execution.execute_sweep`).
run_sweep = execute_sweep
