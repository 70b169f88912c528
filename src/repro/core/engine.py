"""Units of work of a parameter sweep: task decomposition, execution, assembly.

The engine decomposes a Figure 2 style grid into independent units of work
(:func:`_build_tasks`), computes one unit (:func:`_run_attack_task`, also the
pool workers' entry point) and places the collected records into a
:class:`~repro.core.results.SweepResult` (:func:`assemble_sweep_result`).
Running the units -- inline or on a process pool -- and merging them is
:func:`repro.core.execution.execute_sweep`.

Each attack point has one record from the worker to the result: the
:class:`~repro.core.results.SweepPoint` it certified, or the
:class:`~repro.core.results.SweepFailure` it raised.  The journal stores the
same records, and assembly places them without converting them.

* Both baseline series, honest mining and the single tree at
  :data:`DEFAULT_SINGLE_TREE`, are part of every sweep.  They are closed
  forms evaluated inline in the parent process; the single-tree baseline once
  per sweep for the whole ``(gamma, p)`` grid.  A :class:`SweepConfig`
  validates its grid and is frozen, so they cannot fail.
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
* An attack point whose model construction or analysis raises is recorded as
  a :class:`~repro.core.results.SweepFailure` instead of aborting the grid;
  the remaining points are unaffected.

Every point refills its model from the cached ``(attack, support)`` skeleton
(:mod:`repro.attacks.structure`).  With ``workers > 1`` the parent builds every
skeleton exactly once (:func:`_prewarm_structure_cache`) and passes the list
to the pool initializer
(:func:`~repro.attacks.structure.replace_structure_cache`); every pool worker
-- fork-started workers inherit the objects, spawn-started ones receive them
pickled -- installs them instead of exploring
(``structure_cache_stats()["builds"] == 0`` inside workers).  Records come
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
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..analysis import formal_analysis
from ..attacks import (
    SingleTreeParams,
    SupportSignature,
    get_model_structure,
    honest_errev,
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


#: What one attack point of a sweep becomes: a certified point or a failure.
PointRecord = Union[SweepPoint, SweepFailure]
#: Grid coordinates ``(gamma_index, p_index, attack_index)`` of an attack point.
GridKey = Tuple[int, int, int]


def describe_record(record: PointRecord) -> str:
    """One-line progress description of a computed (or failed) attack point."""
    head = f"gamma={record.gamma} p={record.p} {record.series}"
    if isinstance(record, SweepFailure):
        return f"{head}: FAILED ({record.message})"
    return f"{head}: ERRev={record.errev:.4f}"


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


def _run_attack_task(task: AttackTask) -> List[PointRecord]:
    """Worker entry point; must stay importable at module top level (pickling).

    Returns the unit's records in ``task.p_indices`` order: the
    :class:`SweepPoint` of every point that certified and a
    :class:`SweepFailure` for every point that raised.
    """
    records: List[PointRecord] = []
    scenario = scenario_id_for(task.attack.scenario)
    warm_rows: Optional[np.ndarray] = None
    # (p, certified beta_low) of the last point, for bound reuse.
    previous: Optional[Tuple[float, float]] = None
    for p in task.p_values:
        start = time.perf_counter()
        try:
            protocol = ProtocolParams(p=p, gamma=task.gamma)
            mdp = get_model_structure(task.attack, protocol).instantiate(protocol)
            initial_beta_low = 0.0
            if task.reuse_p_axis_bounds and previous is not None and p >= previous[0]:
                # ERRev* is monotone in p, so the previous point's certified
                # lower bound is a valid initial lower bound here.
                initial_beta_low = previous[1]
            result = formal_analysis(
                mdp,
                task.analysis,
                beta_low=initial_beta_low,
                initial_strategy_rows=warm_rows,
            )
            if task.warm_start_across_points:
                warm_rows = result.strategy.rows
            previous = (p, result.beta_low)
            records.append(
                SweepPoint(
                    p=p,
                    gamma=task.gamma,
                    series=task.series,
                    errev=(
                        result.strategy_errev
                        if result.strategy_errev is not None
                        else result.errev_lower_bound
                    ),
                    seconds=time.perf_counter() - start,
                    solver_iterations=result.total_solver_iterations,
                    beta_low=result.beta_low,
                    beta_up=result.beta_up,
                    scenario=scenario,
                )
            )
        except Exception as exc:  # noqa: BLE001 - failure isolation is the point
            message = f"{type(exc).__name__}: {exc}"
            records.append(SweepFailure(p=p, gamma=task.gamma, series=task.series, message=message))
            # A failed point cannot seed the next one.
            warm_rows = None
            previous = None
    return records


def _build_tasks(config: "SweepConfig") -> List[AttackTask]:
    """Decompose the sweep grid into worker tasks in deterministic order."""
    tasks: List[AttackTask] = []
    p_values = config.p_values
    p_indices = tuple(range(len(p_values)))
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

    Returns:
        The distinct structures of the grid, ready to be handed to the
        workers' pool initializer.
    """
    structures: List[ScenarioStructure] = []
    seen = set()
    for gamma in config.gammas:
        for p in config.p_values:
            protocol = ProtocolParams(p=p, gamma=gamma)
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


def assemble_sweep_result(
    config: "SweepConfig",
    records: Mapping[GridKey, PointRecord],
    *,
    description: str,
) -> SweepResult:
    """Place collected attack records and the baselines into a sweep result.

    The closed-form baseline series are evaluated here, in the calling
    process, the single tree once for the whole ``(gamma, p)`` grid.
    ``records`` -- keyed by ``(gamma_index, p_index, attack_index)`` grid
    coordinates, however they were computed (in-process or on the pool) --
    are placed in the canonical ``gamma -> p -> series`` order, so inline and
    pool runs produce an identically shaped :class:`SweepResult`.  A grid key
    with no record at all becomes a :class:`SweepFailure` instead of a crash
    that would discard every point that *was* collected.
    """
    points: List[SweepPoint] = []
    failures: List[SweepFailure] = []
    single_tree = single_tree_errev_table(config.gammas, config.p_values, DEFAULT_SINGLE_TREE)
    for gamma_index, gamma in enumerate(config.gammas):
        for p_index, p in enumerate(config.p_values):
            honest = honest_errev(ProtocolParams(p=p, gamma=gamma))
            points.append(SweepPoint(p=p, gamma=gamma, series="honest", errev=honest))
            points.append(
                SweepPoint(
                    p=p,
                    gamma=gamma,
                    series=SINGLE_TREE_SERIES,
                    errev=single_tree[gamma_index][p_index],
                )
            )
            for attack_index, attack in enumerate(config.attack_configs):
                record = records.get((gamma_index, p_index, attack_index))
                if record is None:
                    record = SweepFailure(
                        p=p,
                        gamma=gamma,
                        series=attack_series_name(attack),
                        message="outcome never reported (worker lost)",
                    )
                if isinstance(record, SweepFailure):
                    failures.append(record)
                else:
                    points.append(record)
    return SweepResult(points=points, description=description, failures=failures)
