"""The sweep path: plan -> run units (inline or on the pool) -> merge.

1. :class:`SweepPlan` -- the *schedulable* form of a sweep grid.  The plan
   owns the task list (one unit per grid point, or one unit per ``(gamma,
   attack)`` series under chaining); "what may run concurrently" is exactly
   "units are independent; points inside a unit are chained in p order".
   Resume filtering (:meth:`SweepPlan.with_replayed`) is a plan-to-plan
   transform, so a resumed sweep skips journal-replayed units before any of
   them is scheduled.

2. :func:`execute_sweep` runs the pending units: in-process in submission
   order when ``workers == 1``, otherwise on a
   :class:`~concurrent.futures.ProcessPoolExecutor` configured by
   :func:`pool_kwargs`, whose workers install the parent's skeletons and
   return each unit's records through its future.

3. :class:`MergeSink` -- the single merge pipeline: idempotent grid-key merge,
   journal append (a no-op for replayed keys), synthesized failures for
   crashed units, progress reporting through an optional ``progress``
   callable, and final assembly into a
   :class:`~repro.core.results.SweepResult`.  A unit's records are the
   :class:`~repro.core.results.SweepPoint` or
   :class:`~repro.core.results.SweepFailure` of each of its points, the ones
   the result holds; every one flows through :meth:`MergeSink.accept` the
   moment it exists, so the journal is crash-safe mid-sweep.

``tests/test_source_invariants.py`` pins the design: no module outside this
one may append to a sweep journal, mutate sweep-result metadata or call
``assemble_sweep_result``.

Behavioral contract: inline and pool runs produce bit-for-bit the same values
(certified bounds, ERRev, CSV value columns, journal records); only
wall-clock metadata may differ.  The conformance suite
(``tests/core/execution_conformance.py``) asserts this under fork and spawn.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..attacks.structure import replace_structure_cache
from . import engine as _engine
from .engine import AttackTask, GridKey, PointRecord
from .journal import SweepJournal
from .results import SweepFailure, SweepPoint, SweepResult

if TYPE_CHECKING:  # pragma: no cover - import cycles broken at runtime
    from .sweep import SweepConfig


# ----------------------------------------------------------------- sweep plan


@dataclass(frozen=True)
class SweepPlan:
    """The schedulable form of a sweep grid: tasks plus journal-replayed units.

    ``tasks`` are the engine's :class:`~repro.core.engine.AttackTask` units in
    deterministic grid order; the unit id of a task is its index.  Units are
    mutually independent and may run concurrently on the pool; the only
    ordering constraints are *inside* a unit, where chained warm starts /
    certified-bound reuse tie each point to its predecessor on the p axis,
    which is why a chained series travels as one unit.  ``replayed_units`` are
    the units a journal resume already completed; only :meth:`pending_tasks`
    are scheduled.
    """

    config: "SweepConfig"
    tasks: Tuple[AttackTask, ...]
    replayed_units: FrozenSet[int] = frozenset()

    @classmethod
    def build(cls, config: "SweepConfig") -> "SweepPlan":
        """Decompose ``config``'s grid into a plan (series-ordered under chaining)."""
        return cls(config=config, tasks=tuple(_engine._build_tasks(config)))

    def unit_keys(self, unit_id: int) -> Tuple[GridKey, ...]:
        """Grid keys ``(gamma_index, p_index, attack_index)`` of one unit, in p order."""
        task = self.tasks[unit_id]
        return tuple(
            (task.gamma_index, p_index, task.attack_index) for p_index in task.p_indices
        )

    def pending_tasks(self) -> List[AttackTask]:
        """Tasks of the units still to be executed (everything not replayed), in order."""
        return [
            task
            for unit_id, task in enumerate(self.tasks)
            if unit_id not in self.replayed_units
        ]

    def with_replayed(self, replayed: Mapping[GridKey, SweepPoint]) -> "SweepPlan":
        """Resume filter: mark every unit whose grid keys are all replayed.

        A *partially* journaled unit (a chained series interrupted mid-block)
        stays pending and is recomputed whole -- the chain must not cross the
        crash boundary -- which is safe because recomputed values are
        bit-for-bit identical and re-journaling replayed keys is a no-op.
        """
        if not replayed:
            return self
        done = frozenset(
            unit_id
            for unit_id in range(len(self.tasks))
            if all(key in replayed for key in self.unit_keys(unit_id))
        )
        if not done:
            return self
        return SweepPlan(config=self.config, tasks=self.tasks, replayed_units=done)


# ----------------------------------------------------------------- merge sink


class MergeSink:
    """The one merge pipeline: journal, crashed-unit failures, assembly.

    Every record a unit returns -- computed inline or on the pool -- flows
    through this object exactly once.  The sink owns the idempotent grid-key
    merge (last write wins at key level), the durable journal append
    (``record`` is a no-op for replayed keys), synthesized failures for units
    whose worker died, and progress reporting: one line per record to
    ``progress``, if given.  :meth:`assemble` adds the baseline series and
    places the merged records into the canonical ``gamma -> p -> series``
    :class:`~repro.core.results.SweepResult`.
    """

    def __init__(
        self,
        plan: SweepPlan,
        *,
        progress: Optional[Callable[[str], None]] = None,
        journal: Optional["SweepJournal"] = None,
    ) -> None:
        """Create the sink for one sweep run (one plan, one optional journal)."""
        self.plan = plan
        self.progress = progress
        self.journal = journal
        self.records: Dict[GridKey, PointRecord] = {}

    def replay(self, replayed: Mapping[GridKey, SweepPoint]) -> None:
        """Seed journal-replayed points: merged silently, never re-journaled."""
        self.records.update(replayed)

    def _merge(self, key: GridKey, record: PointRecord) -> None:
        self.records[key] = record
        if self.journal is not None:
            self.journal.record(key, record)
        if self.progress is not None:
            self.progress(_engine.describe_record(record))

    def accept(self, task: AttackTask, records: Sequence[PointRecord]) -> None:
        """Merge a unit's records, given in ``task.p_indices`` order: journal and report each."""
        for p_index, record in zip(task.p_indices, records):
            self._merge((task.gamma_index, p_index, task.attack_index), record)

    def synthesize_missing(self, task: AttackTask, message: str) -> None:
        """Record synthesized failures for a crashed unit's unreported keys.

        Only grid keys that never made it anywhere become failures, so each
        key is merged exactly once.
        """
        for p, p_index in zip(task.p_values, task.p_indices):
            key = (task.gamma_index, p_index, task.attack_index)
            if key not in self.records:
                self._merge(
                    key, SweepFailure(p=p, gamma=task.gamma, series=task.series, message=message)
                )

    def assemble(self, *, description: str) -> SweepResult:
        """Place the merged records (plus inline baselines) into the result."""
        return _engine.assemble_sweep_result(
            self.plan.config, self.records, description=description
        )

    def journal_metadata(self) -> Optional[Dict[str, object]]:
        """The ``metadata["journal"]`` block (``None`` when journaling is off)."""
        if self.journal is None:
            return None
        return {
            "path": str(self.journal.path),
            "fsync": self.journal.fsync,
            "replayed": self.journal.replayed,
            "recorded": self.journal.recorded,
            "skipped_units": len(self.plan.replayed_units),
        }


# -------------------------------------------------------------- orchestration


def pool_kwargs(config: "SweepConfig") -> Dict[str, object]:
    """Keyword arguments (besides ``max_workers``) of the sweep's process pool.

    The start method comes from :func:`~repro.core.engine._pool_start_method`.
    The parent builds every skeleton of the grid once and hands the list to
    the pool initializer,
    :func:`~repro.attacks.structure.replace_structure_cache`: fork-started
    workers inherit the objects and spawn-started workers receive them
    pickled.  Either way every worker installs them in its structure cache
    and performs zero explorations (``structure_cache_stats()["builds"] ==
    0``).
    """
    return {
        "mp_context": multiprocessing.get_context(_engine._pool_start_method()),
        "initializer": replace_structure_cache,
        "initargs": (_engine._prewarm_structure_cache(config),),
    }


def execute_sweep(
    config: "SweepConfig",
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run a Figure 2 style sweep: plan -> run units -> merge -> assemble.

    ``config.workers == 1`` runs every pending unit in-process in submission
    order; ``workers > 1`` fans them over a process pool (:func:`pool_kwargs`)
    and merges each unit's records as its future completes.  A unit whose
    worker died (OOM kill, segfault, broken pool) must not discard the
    records already collected from the others: its unreported points become
    synthesized "worker crashed" failures once the pool has joined.

    The only function in the package that opens a sweep journal, constructs a
    :class:`MergeSink` and attaches result metadata.  The pool is shut down,
    and the journal sealed, before the result is assembled -- also when a
    unit or a progress callback used for cancellation raises.

    Args:
        config: The sweep configuration; ``config.workers`` selects the degree
            of parallelism (1 = in-process serial execution).
        progress: Optional callback invoked with a short message per attack
            point (and per failure) as results become available -- in task
            order when serial, in completion order when parallel.

    Returns:
        A :class:`SweepResult` whose points are ordered ``gamma -> p ->
        (honest, single-tree, attacks...)`` independent of worker scheduling,
        with per-point timings attached and failures isolated.
    """
    workers = config.workers
    plan = SweepPlan.build(config)
    journal: Optional[SweepJournal] = None
    replayed: Mapping[GridKey, SweepPoint] = {}
    if config.journal_path is not None:
        journal = SweepJournal.open(
            config.journal_path,
            config,
            resume=config.journal_resume,
            fsync=config.journal_fsync,
        )
        replayed = journal.replayed_points()
        plan = plan.with_replayed(replayed)
    sink = MergeSink(plan, progress=progress, journal=journal)
    sink.replay(replayed)
    try:
        pending = plan.pending_tasks()
        if workers == 1:
            for task in pending:
                sink.accept(task, _engine._run_attack_task(task))
        elif pending:
            crashed: List[Tuple[AttackTask, str]] = []
            with ProcessPoolExecutor(max_workers=workers, **pool_kwargs(config)) as pool:  # type: ignore[arg-type]
                futures = {pool.submit(_engine._run_attack_task, task): task for task in pending}
                for future in as_completed(futures):
                    task = futures[future]
                    try:
                        records = future.result()
                    except Exception as exc:
                        crashed.append((task, f"worker crashed: {type(exc).__name__}: {exc}"))
                        continue
                    sink.accept(task, records)
            for task, message in crashed:
                sink.synthesize_missing(task, message)
    finally:
        if journal is not None:
            journal.close()
    result = sink.assemble(
        description=(
            f"figure-2 sweep over p={list(config.p_values)} and gamma={list(config.gammas)} "
            f"(workers={workers})"
        )
    )
    journal_meta = sink.journal_metadata()
    if journal_meta is not None:
        result.metadata["journal"] = journal_meta
    return result


__all__ = ["MergeSink", "SweepPlan", "execute_sweep", "pool_kwargs"]
