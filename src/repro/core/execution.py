"""One execution plane: sweep scheduling, backend protocol and merge pipeline.

The sweep machinery is split into three explicit layers:

1. :class:`SweepPlan` -- the *schedulable* form of a sweep grid.  The plan
   owns the task list (one unit per grid point, or one unit per ``(gamma,
   attack)`` series under chaining); "what may run concurrently" is exactly
   "units are independent; points inside a unit are chained in p order".
   Resume filtering (:meth:`SweepPlan.with_replayed`) is a plan-to-plan
   transform, so every backend skips journal-replayed units the same way.

2. :class:`ExecutionBackend` -- the protocol that turns a plan's tasks into
   :class:`~repro.core.engine.PointOutcome`\\ s, and *nothing else*:
   ``start(plan)`` prepares a plan and ``outcomes()`` streams outcome events.
   :class:`SerialBackend` runs units in-process in submission order and
   :class:`PoolBackend` fans them over a
   :class:`~concurrent.futures.ProcessPoolExecutor` whose workers install the
   parent's skeletons and return outcomes through their futures.  Backends
   never journal, never merge, never synthesize failures.

3. :class:`MergeSink` -- the single merge pipeline: idempotent grid-key merge,
   journal append (a no-op for replayed keys), synthesized failures for
   crashed units, progress reporting through
   :class:`~repro.core.reporting.ProgressReporter`, and final assembly into a
   :class:`~repro.core.results.SweepResult`.  Every outcome flows through
   :meth:`MergeSink.accept` the moment it exists, so the journal is
   crash-safe mid-sweep.

:func:`execute_plan` is the thin orchestration over the three layers::

    plan -> journal resume-filter -> backend events -> sink -> assemble

and is what :func:`repro.core.engine.execute_sweep` delegates to.  Lint rule
RL007 (:mod:`repro.lint.rules.merge_pipeline`) pins the design: no module
outside this one may append to a sweep journal, mutate sweep-result metadata
or call ``assemble_sweep_result``.

Behavioral contract: both backends produce bit-for-bit the same values
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
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..attacks.structure import replace_structure_cache
from . import engine as _engine
from .journal import GridKey
from .reporting import ProgressReporter
from .results import SweepResult

if TYPE_CHECKING:  # pragma: no cover - import cycles broken at runtime
    from .engine import AttackTask, PointOutcome
    from .journal import SweepJournal
    from .sweep import SweepConfig


# ----------------------------------------------------------------- sweep plan


@dataclass(frozen=True)
class SweepPlan:
    """The schedulable form of a sweep grid: tasks plus journal-replayed units.

    ``tasks`` are the engine's :class:`~repro.core.engine.AttackTask` units in
    deterministic grid order; the unit id of a task is its index.  Units are
    mutually independent and may run concurrently on any backend; the only
    ordering constraints are *inside* a unit, where chained warm starts /
    certified-bound reuse tie each point to its predecessor on the p axis,
    which is why a chained series travels as one unit.  ``replayed_units`` are
    the units a journal resume already completed; backends schedule only
    :attr:`pending_units`.
    """

    config: "SweepConfig"
    tasks: Tuple["AttackTask", ...]
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

    @property
    def pending_units(self) -> Tuple[int, ...]:
        """Unit ids still to be executed (everything not replayed), in order."""
        return tuple(
            unit_id for unit_id in range(len(self.tasks)) if unit_id not in self.replayed_units
        )

    def pending_tasks(self) -> List[Tuple[int, "AttackTask"]]:
        """``(unit_id, task)`` pairs of the pending units, in submission order."""
        return [(unit_id, self.tasks[unit_id]) for unit_id in self.pending_units]

    def with_replayed(self, replayed: Mapping[GridKey, "PointOutcome"]) -> "SweepPlan":
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
    """The one merge pipeline: journal, retry accounting, assembly.

    Every computed :class:`~repro.core.engine.PointOutcome` -- whatever backend
    produced it -- flows through this object exactly once.  The sink owns the
    idempotent grid-key merge (last write wins at key level), the durable
    journal append (``record`` is a no-op for replayed keys), synthesized
    failures for units whose worker died, and progress reporting.  Baseline
    synthesis and per-point transient-retry accounting
    (``metadata["recovery"]``) happen in :meth:`assemble`, which
    re-orders the merged outcomes into the canonical ``gamma -> p -> series``
    :class:`~repro.core.results.SweepResult`.
    """

    def __init__(
        self,
        plan: SweepPlan,
        *,
        reporter: ProgressReporter,
        journal: Optional["SweepJournal"] = None,
    ) -> None:
        """Create the sink for one sweep run (one plan, one optional journal)."""
        self.plan = plan
        self.reporter = reporter
        self.journal = journal
        self.outcomes: Dict[GridKey, "PointOutcome"] = {}

    @staticmethod
    def key_of(outcome: "PointOutcome") -> GridKey:
        """Grid key ``(gamma_index, p_index, attack_index)`` of one outcome."""
        return (outcome.gamma_index, outcome.p_index, outcome.attack_index)

    def replay(self, replayed: Mapping[GridKey, "PointOutcome"]) -> None:
        """Seed journal-replayed outcomes: merged silently, never re-journaled."""
        self.outcomes.update(replayed)

    def accept(self, outcomes: Iterable["PointOutcome"]) -> None:
        """Merge computed outcomes at key level: journal and report each one."""
        for outcome in outcomes:
            self.outcomes[self.key_of(outcome)] = outcome
            if self.journal is not None:
                self.journal.record(outcome)
            self.reporter(_engine.describe_outcome(outcome))

    def synthesize_missing(self, task: "AttackTask", message: str) -> None:
        """Record synthesized failures for a crashed unit's unreported keys.

        Only grid keys that never made it anywhere become failures, so each
        key is merged exactly once.
        """
        self.accept(
            [
                _engine.PointOutcome(
                    gamma_index=task.gamma_index,
                    p_index=p_index,
                    attack_index=task.attack_index,
                    p=p,
                    gamma=task.gamma,
                    series=task.series,
                    errev=None,
                    seconds=0.0,
                    solver_iterations=0,
                    num_states=0,
                    error=message,
                )
                for p, p_index in zip(task.p_values, task.p_indices)
                if (task.gamma_index, p_index, task.attack_index) not in self.outcomes
            ]
        )

    def assemble(self, *, description: str) -> SweepResult:
        """Assemble the merged outcomes (plus inline baselines) into the result."""
        return _engine.assemble_sweep_result(
            self.plan.config, self.outcomes, self.reporter, description=description
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


# ------------------------------------------------------------ backend events


@dataclass(frozen=True)
class OutcomeBatch:
    """One streamed batch of computed outcomes (one unit's, in p order)."""

    outcomes: Tuple["PointOutcome", ...]


@dataclass(frozen=True)
class UnitCrash:
    """A unit whose worker died; unreported keys become synthesized failures."""

    unit_id: int
    message: str


#: Events an :meth:`ExecutionBackend.outcomes` iterator may stream.
BackendEvent = Union[OutcomeBatch, UnitCrash]


# -------------------------------------------------------------------- backends


class ExecutionBackend:
    """Protocol of every sweep execution backend: tasks in, outcomes out.

    A backend's only job is turning a plan's pending tasks into
    :class:`~repro.core.engine.PointOutcome`\\ s; it never journals, merges or
    assembles.  The contract is

    * :meth:`start` -- prepare a plan (for the pool: build the skeletons),
    * :meth:`outcomes` -- stream :class:`OutcomeBatch` / :class:`UnitCrash`
      events as units complete, releasing every resource when the stream ends
      or is closed,

    and :func:`execute_plan` drives those two, feeding each event into the
    :class:`MergeSink`.
    """

    def start(self, plan: SweepPlan) -> None:
        """Prepare the execution of ``plan``'s pending units."""
        raise NotImplementedError

    def outcomes(self) -> Iterator[BackendEvent]:
        """Stream outcome events until every pending unit is accounted for."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process execution: units run in submission order on this thread.

    The reference backend: deterministic ordering, no IPC.
    """

    def __init__(self) -> None:
        """Create an idle serial backend (the plan arrives with ``start``)."""
        self._plan: Optional[SweepPlan] = None

    def start(self, plan: SweepPlan) -> None:
        """Prepare in-process execution."""
        self._plan = plan

    def outcomes(self) -> Iterator[BackendEvent]:
        """Compute each pending unit inline and stream its outcomes."""
        assert self._plan is not None  # start() ran
        for _unit_id, task in self._plan.pending_tasks():
            yield OutcomeBatch(outcomes=tuple(_engine._run_attack_task(task)))


class PoolBackend(ExecutionBackend):
    """Process-pool execution: skeletons in as objects, outcomes out by pickle.

    The parent builds every skeleton of the grid once and hands the list to
    the pool initializer,
    :func:`~repro.attacks.structure.replace_structure_cache`.  Fork-started
    workers inherit the objects and spawn-started workers receive them
    pickled; either way every worker installs them in its structure cache and
    performs zero explorations (``structure_cache_stats()["builds"] == 0``).
    Each unit's outcomes return through its future; a unit whose worker died
    becomes a :class:`UnitCrash` once the pool has joined, and every point of
    it a synthesized failure.
    """

    def __init__(self) -> None:
        """Create an idle pool backend (the pool opens in ``outcomes``)."""
        self._plan: Optional[SweepPlan] = None
        self._pool_kwargs: Dict[str, object] = {}
        self._workers: int = 0

    def start(self, plan: SweepPlan) -> None:
        """Pick the start method, build the skeletons, size the pool."""
        self._plan = plan
        config = plan.config
        self._workers = int(config.workers)
        if not plan.pending_units:
            return
        pool_kwargs: Dict[str, object] = {
            "mp_context": multiprocessing.get_context(_engine._pool_start_method())
        }
        if config.use_structure_cache:
            structures = _engine._prewarm_structure_cache(config)
            if structures:
                pool_kwargs["initializer"] = replace_structure_cache
                pool_kwargs["initargs"] = (structures,)
        self._pool_kwargs = pool_kwargs

    def outcomes(self) -> Iterator[BackendEvent]:
        """Fan pending units over the pool and stream outcomes as they land."""
        assert self._plan is not None  # start() ran
        pending = self._plan.pending_tasks()
        if not pending:
            return
        crashed: List[Tuple[int, str]] = []
        with ProcessPoolExecutor(max_workers=self._workers, **self._pool_kwargs) as pool:  # type: ignore[arg-type]
            futures = {
                pool.submit(_engine._run_attack_task, task): unit_id
                for unit_id, task in pending
            }
            for future in as_completed(futures):
                try:
                    outcomes = future.result()
                except Exception as exc:
                    # A worker that died (OOM kill, segfault, broken pool)
                    # must not discard the outcomes already collected from
                    # others; its unit is reported once the pool has joined.
                    crashed.append(
                        (futures[future], f"worker crashed: {type(exc).__name__}: {exc}")
                    )
                    continue
                yield OutcomeBatch(outcomes=tuple(outcomes))
        for unit_id, message in crashed:
            yield UnitCrash(unit_id=unit_id, message=message)


# -------------------------------------------------------------- orchestration


def execute_plan(
    config: "SweepConfig",
    backend: ExecutionBackend,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Thin orchestration: plan -> resume filter -> backend events -> assemble.

    The only function in the package that opens a sweep journal, constructs a
    :class:`MergeSink` and attaches result metadata -- both backends funnel
    through it, so resume semantics and metadata shapes cannot drift between
    them.  The backend's stream is closed (which shuts a pool down), and the
    journal is sealed, in ``finally`` blocks *before* the result is assembled,
    so the durability policy runs even when the backend (or a progress
    callback used for cancellation) raises.
    """
    reporter = ProgressReporter.wrap(progress)
    plan = SweepPlan.build(config)
    journal: Optional["SweepJournal"] = None
    journal_path = getattr(config, "journal_path", None)
    if journal_path is not None:
        from .journal import SweepJournal

        journal = SweepJournal.open(
            journal_path,
            config,
            resume=config.journal_resume,
            fsync=config.journal_fsync,
        )
    replayed: Mapping[GridKey, "PointOutcome"] = {}
    if journal is not None:
        replayed = journal.replayed_outcomes()
        plan = plan.with_replayed(replayed)
    sink = MergeSink(plan, reporter=reporter, journal=journal)
    if replayed:
        sink.replay(replayed)
    try:
        backend.start(plan)
        stream = backend.outcomes()
        try:
            for event in stream:
                if isinstance(event, UnitCrash):
                    sink.synthesize_missing(plan.tasks[event.unit_id], event.message)
                else:
                    sink.accept(event.outcomes)
        finally:
            close_stream = getattr(stream, "close", None)
            if close_stream is not None:
                close_stream()
    finally:
        if journal is not None:
            journal.close()
    result = sink.assemble(
        description=(
            f"figure-2 sweep over p={list(config.p_values)} and gamma={list(config.gammas)} "
            f"(workers={int(config.workers)})"
        )
    )
    journal_meta = sink.journal_metadata()
    if journal_meta is not None:
        result.metadata["journal"] = journal_meta
    return result


__all__ = [
    "BackendEvent",
    "ExecutionBackend",
    "MergeSink",
    "OutcomeBatch",
    "PoolBackend",
    "SerialBackend",
    "SweepPlan",
    "UnitCrash",
    "execute_plan",
]
