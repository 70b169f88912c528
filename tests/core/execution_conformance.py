"""Reusable conformance harness for the two ways a sweep runs its units.

A sweep (:func:`repro.core.execution.execute_sweep`) runs its units inline
(``workers=1``) or on the local process pool, and both must satisfy the same
observable contract: bit-for-bit equality with the serial
reference on every certified value, zero structure builds inside worker
processes, journal resume that recomputes only the missing delta, per-point
failure isolation (on a valid grid point whose refill really raises), a hard
worker crash that loses no grid point silently, and
graceful cancellation that leaves no worker process and a resumable journal
behind.

The hard crash is a real one: :func:`crash_skeletons` installs, into the
parent's structure cache, selfish-forks skeletons of a subclass whose
``instantiate`` calls ``os._exit`` at the ``p`` named by
``REPRO_TEST_CRASH_AT_P``.  The sweep hands the cached skeletons to its pool,
so the workers refill from them.  Only the crashed run sets the variable; the
serial reference, the crashed and the resumed run all sweep the
``selfish-forks`` scenario, so they share one journal fingerprint.

Instead of re-proving these per execution path with a hand-rolled copy of
the same tests, each path registers an :class:`ExecutionContract` here and
``tests/core/test_execution_conformance.py`` runs the whole invariant suite
against it -- the pool additionally under both the ``fork`` and ``spawn``
start methods.

This module is deliberately *not* named ``test_*``: it is imported by the
conformance test module, and its probe targets must be importable at module
top level so spawn-started pool workers can unpickle them by qualified name.
Fork-started workers inherit the crash skeletons; spawn-started workers
unpickle them, which imports this module for their class.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Optional
from unittest import mock

from repro.attacks.registry import SupportSignature
from repro.attacks.structure import (
    SelfishForksStructure,
    clear_structure_cache,
    replace_structure_cache,
    structure_cache_stats,
)
from repro.config import ProtocolParams
from repro.config import AnalysisConfig, AttackParams
from repro.core.execution import pool_kwargs
from repro.core.results import SweepResult
from repro.core.sweep import SweepConfig, run_sweep


class SweepCancelled(Exception):
    """Raised from a progress callback to cancel a running sweep."""


# ------------------------------------------------------- the crash skeleton

#: Environment variable naming the ``p`` at which a crash skeleton's refill exits.
CRASH_AT_P_ENV_VAR = "REPRO_TEST_CRASH_AT_P"


class CrashForksStructure(SelfishForksStructure):
    """A selfish-forks skeleton whose refill hard-kills the process at one ``p`` (tests)."""

    def instantiate(self, protocol):
        """Exit with status 17 when ``protocol.p`` is ``$REPRO_TEST_CRASH_AT_P``."""
        crash_at = os.environ.get(CRASH_AT_P_ENV_VAR)
        if crash_at is not None and protocol.p == float(crash_at):
            os._exit(17)
        return super().instantiate(protocol)


@contextmanager
def crash_skeletons(grid: dict) -> Iterator[None]:
    """Serve every skeleton of ``grid`` from the structure cache as a crash skeleton.

    The cache is emptied again after the block, so every other test explores
    its own plain skeletons.
    """
    structures = []
    for attack in grid["attack_configs"]:
        signatures = {
            SupportSignature.of(ProtocolParams(p=p, gamma=gamma))
            for gamma in grid["gammas"]
            for p in grid["p_values"]
        }
        for signature in signatures:
            structure = SelfishForksStructure.explore(attack, signature)
            structure.__class__ = CrashForksStructure
            structures.append(structure)
    replace_structure_cache(structures)
    try:
        yield
    finally:
        clear_structure_cache()


# ------------------------------------------------------------------- the grid


#: Scenarios every grid-level invariant is checked on.
SCENARIOS = ("selfish-forks", "sm-actions")

_ATTACKS = {
    "selfish-forks": (
        AttackParams(depth=1, forks=1, max_fork_length=4),
        AttackParams(depth=2, forks=1, max_fork_length=4),
    ),
    "sm-actions": (
        AttackParams(depth=1, forks=1, max_fork_length=4, scenario="sm-actions"),
        AttackParams(
            depth=1, forks=1, max_fork_length=4, scenario="sm-actions", variant="overpaying"
        ),
    ),
}


def base_grid(scenario: str = "selfish-forks", **overrides) -> dict:
    """The tiny conformance grid: 2 p-values x 1 gamma x 2 attack series."""
    grid = dict(
        p_values=(0.0, 0.1),
        gammas=(0.5,),
        attack_configs=_ATTACKS[scenario],
        analysis=AnalysisConfig(epsilon=1e-2),
    )
    grid.update(overrides)
    return grid


def chained_grid() -> dict:
    """The base grid with warm starts and bounds chained along p (one unit per series)."""
    return base_grid(warm_start_across_points=True, reuse_p_axis_bounds=True)


#: The attack of :func:`failing_grid`: overpaying ``sm-actions`` rewards diverge at ``p >= 0.5``.
FAILING_ATTACK = _ATTACKS["sm-actions"][1]


def failing_grid(chained: bool = False) -> dict:
    """A valid grid whose middle point (p = 0.5) raises ``ModelError`` at refill, in its worker.

    ``chained`` chains warm starts and bounds along p, so the failing point
    sits inside a unit between two that certify.
    """
    return dict(
        p_values=(0.1, 0.5, 0.3),
        gammas=(0.5,),
        attack_configs=(FAILING_ATTACK,),
        analysis=AnalysisConfig(epsilon=1e-2),
        warm_start_across_points=chained,
        reuse_p_axis_bounds=chained,
    )


@lru_cache(maxsize=None)
def serial_reference(chained: bool = False, scenario: str = "selfish-forks") -> SweepResult:
    """The uninterrupted serial run every execution path must reproduce bit-for-bit."""
    grid = chained_grid() if chained else base_grid(scenario)
    return run_sweep(SweepConfig(**grid, workers=1))


@lru_cache(maxsize=None)
def failing_reference(chained: bool) -> SweepResult:
    """The serial run of :func:`failing_grid`."""
    return run_sweep(SweepConfig(**failing_grid(chained), workers=1))


def attack_keys(result: SweepResult) -> List[tuple]:
    """``(p, gamma, series)`` of every certified attack point and every failure."""
    keys = [(p.p, p.gamma, p.series) for p in result.points if p.beta_low is not None]
    return keys + [(f.p, f.gamma, f.series) for f in result.failures]


def value_rows(result: SweepResult) -> List[Dict[str, object]]:
    """CSV rows minus wall-clock columns: the bit-for-bit comparable surface."""
    return [
        {key: value for key, value in point.to_row().items() if "seconds" not in key}
        for point in result.points
    ]


def assert_bit_for_bit(reference: SweepResult, result: SweepResult) -> None:
    """Every certified value (and the CSV value columns) agrees exactly."""
    assert value_rows(result) == value_rows(reference)
    for ours, theirs in zip(reference.points, result.points):
        assert (ours.p, ours.gamma, ours.series) == (theirs.p, theirs.gamma, theirs.series)
        assert ours.errev == theirs.errev
        assert ours.beta_low == theirs.beta_low
        assert ours.beta_up == theirs.beta_up
        assert ours.solver_iterations == theirs.solver_iterations


# -------------------------------------------------------------- config helper


def _config(grid: dict, *, journal_path=None, resume: bool = False, **extra) -> SweepConfig:
    """The grid's :class:`SweepConfig`."""
    kwargs = dict(grid, **extra)
    if journal_path is not None:
        kwargs.update(journal_path=str(journal_path), journal_resume=resume)
    return SweepConfig(**kwargs)


# --------------------------------------------------------------------- serial


def _serial_execute(grid: dict, *, progress=None, journal_path=None, resume=False):
    return run_sweep(
        _config(grid, journal_path=journal_path, resume=resume, workers=1),
        progress=progress,
    )


# ----------------------------------------------------------------------- pool


def _pool_execute(grid: dict, *, progress=None, journal_path=None, resume=False):
    return run_sweep(
        _config(grid, journal_path=journal_path, resume=resume, workers=2),
        progress=progress,
    )


def _pool_worker_builds(grid: dict) -> List[int]:
    """Per-worker build counts under a sweep's own pool wiring.

    Uses :func:`pool_kwargs` to build the skeletons and derive the exact pool
    configuration a sweep would use (start method included, via
    ``REPRO_TEST_START_METHOD``), then asks every worker for its
    ``structure_cache_stats()`` instead of computing points.
    """
    kwargs = pool_kwargs(_config(grid, workers=2))
    (structures,) = kwargs["initargs"]
    with ProcessPoolExecutor(max_workers=2, **kwargs) as pool:
        stats = [
            future.result() for future in [pool.submit(structure_cache_stats) for _ in range(4)]
        ]
    # Every worker holds exactly the parent's skeletons, nothing it built itself.
    assert all(entry["attaches"] == entry["entries"] == len(structures) for entry in stats)
    return [entry["builds"] for entry in stats]


def _pool_crash(grid: dict, journal_path, crash_at_p: float) -> SweepResult:
    """A pool sweep whose workers exit refilling a crash skeleton at ``p == crash_at_p``."""
    with mock.patch.dict(os.environ, {CRASH_AT_P_ENV_VAR: repr(crash_at_p)}):
        return _pool_execute(grid, journal_path=journal_path)


# -------------------------------------------------------------- cancellation


def _cancel_via_progress(execute: Callable[..., SweepResult]):
    """Cancel by raising from the progress callback on the first outcome."""

    def cancel(grid: dict, journal_path) -> BaseException:
        def explode(message: str) -> None:
            if "ERRev=" in message:
                raise SweepCancelled(message)

        try:
            execute(grid, progress=explode, journal_path=journal_path)
        except SweepCancelled as exc:
            return exc
        raise AssertionError("sweep completed without reporting any outcome")

    return cancel


# -------------------------------------------------------------------- registry


@dataclass(frozen=True)
class ExecutionContract:
    """What one execution path must provide to inherit the suite.

    ``execute`` runs a sweep end-to-end; ``cancel`` provokes a mid-sweep
    cancellation and returns the exception that aborted it;
    ``worker_builds`` reports the structure builds performed inside worker
    processes (``None`` without workers); ``crash`` runs a sweep whose
    workers exit while refilling a crash skeleton at the given ``p``
    (``None`` without workers); ``cross_process`` opts the contract into the
    fork/spawn start-method matrix.
    """

    kind: str
    cross_process: bool
    execute: Callable[..., SweepResult]
    cancel: Callable[[dict, Any], BaseException]
    worker_builds: Optional[Callable[[dict], List[int]]] = None
    crash: Optional[Callable[[dict, Any, float], SweepResult]] = None


CONTRACTS: Dict[str, ExecutionContract] = {
    "serial": ExecutionContract(
        kind="serial",
        cross_process=False,
        execute=_serial_execute,
        cancel=_cancel_via_progress(_serial_execute),
    ),
    "pool": ExecutionContract(
        kind="pool",
        cross_process=True,
        execute=_pool_execute,
        cancel=_cancel_via_progress(_pool_execute),
        worker_builds=_pool_worker_builds,
        crash=_pool_crash,
    ),
}
