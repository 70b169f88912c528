"""Units of work of a parameter sweep: task decomposition, execution, assembly.

The engine decomposes a Figure 2 style grid into independent units of work
(:func:`_build_tasks`), computes one unit (:func:`_run_attack_task`, also the
pool workers' entry point) and assembles collected outcomes into a
:class:`~repro.core.results.SweepResult` (:func:`assemble_sweep_result`).
Running the units -- inline or on a process pool -- and merging them is
:func:`repro.core.execution.execute_sweep`.

* Both baseline series, honest mining and the single tree at
  :data:`DEFAULT_SINGLE_TREE`, are part of every sweep.  They are closed
  forms evaluated inline in the parent process; the single-tree baseline once
  per sweep for the whole ``(gamma, p)`` grid.
* Every attack configuration contributes one task per ``(gamma, p)`` point --
  or, when warm starts or certified bounds are chained across adjacent ``p``
  points (``warm_start_across_points`` / ``reuse_p_axis_bounds``), one task per
  ``(gamma, attack)`` series so that the chain stays within a single worker
  (series-ordered scheduling).

``reuse_p_axis_bounds`` exploits the monotonicity of ERRev* in ``p``: the
previous point's certified ``beta_low`` is a valid initial lower bound for the
next (larger) ``p``, so each binary search starts from an already-narrowed
interval instead of ``[0, 1]``.  The reuse is sound -- ``beta_low <= ERRev*(p)
<= ERRev*(p')`` for ``p <= p'`` -- and is applied only when the series' p values
are non-decreasing.

Determinism and failure isolation are the two design invariants:

* ``workers=1`` runs every task in-process in submission order; ``workers>1``
  runs exactly the same per-task code in subprocesses, so the computed values
  are bit-for-bit identical across worker counts and only the wall-clock
  changes.  Results are re-assembled in the canonical ``gamma -> p -> series``
  order regardless of completion order.
* A point whose model construction or analysis raises is recorded as a
  :class:`~repro.core.results.SweepFailure` instead of aborting the grid; the
  remaining points are unaffected.  The same holds for the closed-form
  baseline series evaluated in the parent.

Every point refills its model from the cached ``(attack, support)`` skeleton
(:mod:`repro.attacks.structure`).  With ``workers > 1`` the parent builds every
skeleton exactly once (:func:`_prewarm_structure_cache`) and passes the list
to the pool initializer
(:func:`~repro.attacks.structure.replace_structure_cache`); every pool worker
-- fork-started workers inherit the objects, spawn-started ones receive them
pickled -- installs them instead of exploring
(``structure_cache_stats()["builds"] == 0`` inside workers).  Outcomes come
back pickled through each unit's future.

The pool start method follows the platform default (fork on Linux, spawn
elsewhere) and can be forced with the ``REPRO_TEST_START_METHOD`` environment
variable (used by CI to exercise the spawn path on Linux runners).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis import formal_analysis
from ..attacks import (
    SingleTreeParams,
    SupportSignature,
    get_model_structure,
    honest_errev,
    single_tree_errev,
    single_tree_errev_table,
)
from ..attacks.registry import ScenarioStructure, get_attack, scenario_id_for
from ..config import AnalysisConfig, AttackParams, ProtocolParams
from .results import SweepFailure, SweepPoint, SweepResult

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .sweep import SweepConfig

#: The paper's single-tree baseline (l = 4, f = 5), a series of every sweep.
DEFAULT_SINGLE_TREE = SingleTreeParams(max_depth=4, max_width=5)
#: Series label of that baseline.
SINGLE_TREE_SERIES = f"single-tree(f={DEFAULT_SINGLE_TREE.max_width})"


def attack_series_name(attack: AttackParams) -> str:
    """Series label of an attack configuration (matches the paper's legend).

    Delegates to the scenario, so each attack family labels its own series
    (``ours(d=..,f=..)`` for ``selfish-forks``, ``sm-actions(l=..)`` for
    ``sm-actions``).
    """
    return get_attack(attack.scenario).series_name(attack)


def describe_outcome(outcome: "PointOutcome") -> str:
    """One-line progress description of a computed (or failed) attack point."""
    if outcome.error is not None:
        return (
            f"gamma={outcome.gamma} p={outcome.p} {outcome.series}: FAILED ({outcome.error})"
        )
    return (
        f"gamma={outcome.gamma} p={outcome.p} {outcome.series}: "
        f"ERRev={outcome.errev:.4f} ({outcome.num_states} states)"
    )


@dataclass(frozen=True)
class AttackTask:
    """One unit of work: one ``(gamma, attack)`` pair over a block of p values.

    When neither warm starts nor certified bounds are chained the block holds a
    single p value, giving the finest-grained fan-out; with chaining it holds
    the whole p grid of the series so the chain never crosses a process
    boundary.
    """

    gamma: float
    gamma_index: int
    attack: AttackParams
    attack_index: int
    p_values: Tuple[float, ...]
    p_indices: Tuple[int, ...]
    series: str
    analysis: AnalysisConfig
    warm_start_across_points: bool
    reuse_p_axis_bounds: bool = False


@dataclass(frozen=True)
class PointOutcome:
    """Result of one attack grid point, as returned from a worker process.

    ``scenario`` is the versioned ``name@version`` id of the attack scenario
    that computed the point (see :mod:`repro.attacks.registry`).
    """

    gamma_index: int
    p_index: int
    attack_index: int
    p: float
    gamma: float
    series: str
    errev: Optional[float]
    seconds: float
    solver_iterations: int
    num_states: int
    error: Optional[str] = None
    beta_low: Optional[float] = None
    beta_up: Optional[float] = None
    scenario: Optional[str] = None


def _run_attack_task(
    task: AttackTask,
) -> List[PointOutcome]:
    """Worker entry point; must stay importable at module top level (pickling)."""
    outcomes: List[PointOutcome] = []
    warm_rows: Optional[np.ndarray] = None
    prev_beta_low: Optional[float] = None
    prev_p: Optional[float] = None
    for p, p_index in zip(task.p_values, task.p_indices):
        start = time.perf_counter()
        try:
            protocol = ProtocolParams(p=p, gamma=task.gamma)
            mdp = get_model_structure(task.attack, protocol).instantiate(protocol)
            initial_beta_low = 0.0
            if (
                task.reuse_p_axis_bounds
                and prev_beta_low is not None
                and prev_p is not None
                and p >= prev_p
            ):
                # ERRev* is monotone in p, so the previous point's certified
                # lower bound is a valid initial lower bound here.
                initial_beta_low = min(max(prev_beta_low, 0.0), 1.0)
            result = formal_analysis(
                mdp,
                task.analysis,
                beta_low=initial_beta_low,
                initial_strategy_rows=warm_rows,
            )
            if task.warm_start_across_points:
                warm_rows = result.strategy.rows
            if task.reuse_p_axis_bounds:
                prev_beta_low = result.beta_low
                prev_p = p
            errev = (
                result.strategy_errev
                if result.strategy_errev is not None
                else result.errev_lower_bound
            )
            outcome = PointOutcome(
                gamma_index=task.gamma_index,
                p_index=p_index,
                attack_index=task.attack_index,
                p=p,
                gamma=task.gamma,
                series=task.series,
                errev=errev,
                seconds=time.perf_counter() - start,
                solver_iterations=result.total_solver_iterations,
                num_states=mdp.num_states,
                beta_low=result.beta_low,
                beta_up=result.beta_up,
                scenario=scenario_id_for(task.attack.scenario),
            )
        except Exception as exc:  # noqa: BLE001 - failure isolation is the point
            outcome = PointOutcome(
                gamma_index=task.gamma_index,
                p_index=p_index,
                attack_index=task.attack_index,
                p=p,
                gamma=task.gamma,
                series=task.series,
                errev=None,
                seconds=time.perf_counter() - start,
                solver_iterations=0,
                num_states=0,
                error=f"{type(exc).__name__}: {exc}",
            )
            # A failed point cannot seed the next one.
            warm_rows = None
            prev_beta_low = None
            prev_p = None
        outcomes.append(outcome)
    return outcomes


def _build_tasks(config: "SweepConfig") -> List[AttackTask]:
    """Decompose the sweep grid into worker tasks in deterministic order."""
    tasks: List[AttackTask] = []
    p_indices = tuple(range(len(config.p_values)))
    p_values = tuple(config.p_values)
    reuse_bounds = config.reuse_p_axis_bounds
    for gamma_index, gamma in enumerate(config.gammas):
        for attack_index, attack in enumerate(config.attack_configs):
            common = dict(
                gamma=gamma,
                gamma_index=gamma_index,
                attack=attack,
                attack_index=attack_index,
                series=attack_series_name(attack),
                analysis=config.analysis,
                warm_start_across_points=config.warm_start_across_points,
                reuse_p_axis_bounds=reuse_bounds,
            )
            if config.warm_start_across_points or reuse_bounds:
                # Series-ordered scheduling: the whole p block runs in one
                # worker so chained warm starts / certified bounds never cross
                # a process boundary.
                tasks.append(AttackTask(p_values=p_values, p_indices=p_indices, **common))
            else:
                for p_index, p in zip(p_indices, p_values):
                    tasks.append(AttackTask(p_values=(p,), p_indices=(p_index,), **common))
    return tasks


def _prewarm_structure_cache(config: "SweepConfig") -> List[ScenarioStructure]:
    """Build every ``(attack, support)`` skeleton the grid needs, once, in-parent.

    Parameter points that are invalid (and will be reported as failures by
    their worker) are skipped.

    Returns:
        The distinct structures of the grid, ready to be handed to the
        workers' pool initializer.
    """
    structures: List[ScenarioStructure] = []
    seen = set()
    for gamma in config.gammas:
        for p in config.p_values:
            try:
                protocol = ProtocolParams(p=p, gamma=gamma)
            except Exception:
                continue
            for attack in config.attack_configs:
                key = (attack, SupportSignature.of(protocol))
                if key in seen:
                    continue
                seen.add(key)
                try:
                    structures.append(get_model_structure(attack, protocol))
                except Exception:
                    # Leave the failure to surface per point inside the worker,
                    # where it is isolated as a SweepFailure.
                    continue
    return structures


def _pool_start_method() -> str:
    """Select the multiprocessing start method of the sweep pool.

    ``REPRO_TEST_START_METHOD`` (``fork`` / ``spawn`` / ``forkserver``) forces a
    method -- CI uses this to exercise the spawn path on Linux runners.  An
    unknown or platform-unavailable value raises instead of being silently
    ignored, so a typo in a CI job cannot turn its dedicated-start-method run
    into a green no-op.  Otherwise fork is pinned on Linux only: macOS lists
    "fork" as available but fork-after-threads is unsafe there (that is why
    its default moved to spawn).
    """
    available = multiprocessing.get_all_start_methods()
    override = os.environ.get("REPRO_TEST_START_METHOD", "").strip().lower()
    if override:
        if override not in available:
            raise ValueError(
                f"REPRO_TEST_START_METHOD={override!r} is not a start method "
                f"available on this platform (choose from {available})"
            )
        return override
    if sys.platform == "linux" and "fork" in available:
        return "fork"
    return "spawn"


def _single_tree_series(config: "SweepConfig") -> Optional[List[List[float]]]:
    """The single-tree baseline at every ``(gamma, p)`` of the grid, from one evaluation.

    ``None`` when an invalid parameter makes the grid form raise: every
    point is then evaluated alone, so only the invalid ones fail.
    """
    try:
        return single_tree_errev_table(config.gammas, config.p_values, DEFAULT_SINGLE_TREE)
    except Exception:
        return None


def _baseline_points(
    p: float,
    gamma: float,
    single_tree: Optional[float],
    failures: List[SweepFailure],
    report: Optional[Callable[[str], None]],
) -> List[SweepPoint]:
    """The honest and single-tree points of one grid point, with failures isolated.

    ``single_tree`` is the point's value from :func:`_single_tree_series`, or
    ``None`` to evaluate it here.  An invalid parameter point (or a raising
    baseline formula) must not abort the sweep any more than a failing attack
    point does.
    """
    points: List[SweepPoint] = []
    for series in ("honest", SINGLE_TREE_SERIES):
        try:
            protocol = ProtocolParams(p=p, gamma=gamma)
            if series == "honest":
                errev = honest_errev(protocol)
            elif single_tree is None:
                errev = single_tree_errev(protocol, DEFAULT_SINGLE_TREE)
            else:
                errev = single_tree
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            failures.append(SweepFailure(p=p, gamma=gamma, series=series, message=message))
            if report is not None:
                report(f"gamma={gamma} p={p} {series}: FAILED ({message})")
            continue
        points.append(SweepPoint(p=p, gamma=gamma, series=series, errev=errev))
    return points


def assemble_sweep_result(
    config: "SweepConfig",
    outcomes: Dict[Tuple[int, int, int], PointOutcome],
    report: Optional[Callable[[str], None]],
    *,
    description: str,
) -> SweepResult:
    """Assemble collected attack outcomes and inline baselines into a sweep result.

    The closed-form baseline series are evaluated here, in the calling process,
    and ``outcomes`` -- keyed by ``(gamma_index, p_index, attack_index)`` grid
    coordinates, however they were computed (in-process or on the pool) --
    are re-ordered into the canonical ``gamma -> p -> series`` order with
    failures isolated, so inline and pool runs produce an identically shaped
    :class:`SweepResult`.  A grid key with no collected outcome at all
    becomes a :class:`SweepFailure` instead of a crash that would discard
    every point that *was* collected.
    """
    points: List[SweepPoint] = []
    failures: List[SweepFailure] = []
    single_tree = _single_tree_series(config)
    for gamma_index, gamma in enumerate(config.gammas):
        for p_index, p in enumerate(config.p_values):
            points.extend(
                _baseline_points(
                    p,
                    gamma,
                    None if single_tree is None else single_tree[gamma_index][p_index],
                    failures,
                    report,
                )
            )
            for attack_index, attack in enumerate(config.attack_configs):
                outcome = outcomes.get((gamma_index, p_index, attack_index))
                if outcome is None:
                    failures.append(
                        SweepFailure(
                            p=p,
                            gamma=gamma,
                            series=attack_series_name(attack),
                            message="outcome never reported (worker lost)",
                        )
                    )
                    continue
                if outcome.error is not None:
                    failures.append(
                        SweepFailure(
                            p=outcome.p,
                            gamma=outcome.gamma,
                            series=outcome.series,
                            message=outcome.error,
                        )
                    )
                    continue
                points.append(
                    SweepPoint(
                        p=outcome.p,
                        gamma=outcome.gamma,
                        series=outcome.series,
                        errev=outcome.errev,
                        seconds=outcome.seconds,
                        solver_iterations=outcome.solver_iterations,
                        beta_low=outcome.beta_low,
                        beta_up=outcome.beta_up,
                        scenario=outcome.scenario,
                    )
                )
    return SweepResult(points=points, description=description, failures=failures)
