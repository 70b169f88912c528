"""Per-point dispatch overhead of the execution plane's three backends.

Every sweep backend (:mod:`repro.core.execution`) pays a per-point tax on top
of the solver itself: serial pays only the merge sink, the pool adds
future scheduling plus pickled outcome returns, and the loopback fabric adds
TCP framing and streamed scheduling.  This benchmark separates that tax from
solver time: each variant runs the identical grid, and

    dispatch_overhead = (wall_seconds - solver_seconds) / attack_points

where ``solver_seconds`` is the sum of the per-point timings the outcomes
carry.  For parallel backends that sum counts every worker's solver time, so
overlap can drive the overhead *negative* -- the column is a comparison
metric, not an absolute cost: serial is the floor, and the spread between
backends is the scheduling tax.  All variants must agree on the ERRev
checksum bit-for-bit (asserted),
so the overhead numbers compare equal work.  Rows land in
``benchmarks/results/backend_dispatch_overhead.csv``; the CI smoke job runs
this on a reduced grid so a scheduling regression in any backend shows up on
every push.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import AnalysisConfig, AttackParams, SweepConfig, run_sweep
from repro.attacks import clear_structure_cache
from repro.core.reporting import render_table, write_csv

from conftest import smoke_mode

_SRC = Path(__file__).resolve().parents[1] / "src"

EPSILON = 1e-3
POOL_WORKERS = 2
if smoke_mode():
    P_VALUES = (0.05, 0.1, 0.15)
    GAMMAS = (0.5,)
else:
    P_VALUES = tuple(round(0.05 * i, 2) for i in range(0, 6))
    GAMMAS = (0.0, 0.5)
ATTACKS = (
    AttackParams(depth=1, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=1, max_fork_length=4),
)

COLUMNS = [
    "backend",
    "workers",
    "wall_seconds",
    "solver_seconds",
    "attack_points",
    "dispatch_overhead_seconds",
    "errev_checksum",
]

_ROWS: list[dict] = []
_SWEEPS: dict = {}


def _grid_config(**overrides) -> SweepConfig:
    settings = dict(
        p_values=P_VALUES,
        gammas=GAMMAS,
        attack_configs=ATTACKS,
        analysis=AnalysisConfig(epsilon=EPSILON),
    )
    settings.update(overrides)
    return SweepConfig(**settings)


def _row(backend: str, workers: int, seconds: float, sweep) -> dict:
    assert not sweep.failures, [failure.message for failure in sweep.failures]
    _SWEEPS[backend] = sweep
    timed = [point for point in sweep.points if point.seconds is not None]
    solver_seconds = sum(point.seconds for point in timed)
    return {
        "backend": backend,
        "workers": workers,
        "wall_seconds": seconds,
        "solver_seconds": solver_seconds,
        "attack_points": len(timed),
        "dispatch_overhead_seconds": (seconds - solver_seconds) / len(timed),
        "errev_checksum": round(sum(point.errev for point in sweep.points), 9),
    }


def _run_serial() -> dict:
    clear_structure_cache()
    start = time.perf_counter()
    sweep = run_sweep(_grid_config(workers=1))
    return _row("serial", 1, time.perf_counter() - start, sweep)


def _run_pool() -> dict:
    clear_structure_cache()
    start = time.perf_counter()
    sweep = run_sweep(_grid_config(workers=POOL_WORKERS))
    return _row("pool", POOL_WORKERS, time.perf_counter() - start, sweep)


def _run_distributed_loopback() -> dict:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    workers = [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--connect",
                f"127.0.0.1:{port}",
                "--connect-retry-seconds",
                "30",
                "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        for _ in range(POOL_WORKERS)
    ]
    clear_structure_cache()
    try:
        start = time.perf_counter()
        sweep = run_sweep(
            _grid_config(
                coordinator=f"127.0.0.1:{port}",
                distributed_workers=POOL_WORKERS,
            )
        )
        seconds = time.perf_counter() - start
    finally:
        for worker in workers:
            worker.wait(timeout=30)
    return _row("distributed-loopback", POOL_WORKERS, seconds, sweep)


_VARIANTS = {
    "serial": _run_serial,
    "pool": _run_pool,
    "distributed-loopback": _run_distributed_loopback,
}


@pytest.mark.parametrize("backend", list(_VARIANTS))
def test_backend_dispatch(benchmark, backend):
    """Time one backend on the shared grid (solver time netted out later)."""
    row = benchmark.pedantic(_VARIANTS[backend], rounds=1, iterations=1)
    _ROWS.append(row)


def test_dispatch_overhead_agrees_and_persists(results_dir):
    """Backends must agree on the checksum; persist the overhead CSV."""
    done = {row["backend"] for row in _ROWS}
    for backend, runner in _VARIANTS.items():
        if backend not in done:
            _ROWS.append(runner())
    checksums = {row["backend"]: row["errev_checksum"] for row in _ROWS}
    assert len(set(checksums.values())) == 1, (
        f"backends computed different grids: {checksums}"
    )
    reference = _SWEEPS["serial"]
    for backend in ("pool", "distributed-loopback"):
        assert [(p.p, p.gamma, p.series, p.errev) for p in reference.points] == [
            (p.p, p.gamma, p.series, p.errev) for p in _SWEEPS[backend].points
        ], backend
    rows = sorted(_ROWS, key=lambda row: row["backend"])
    path = write_csv(rows, results_dir / "backend_dispatch_overhead.csv", columns=COLUMNS)
    print()
    print(render_table(rows))
    print(f"dispatch overhead written to {path}")
