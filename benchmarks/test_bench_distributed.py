"""Ablation: distributed sweep fabric vs local execution on the same grid.

Three execution backends compute an identical ``(p, gamma, attack)`` grid:

* ``serial``            -- the in-process reference (``workers=1``),
* ``local-pool``        -- the process-pool engine, workers installing the
                           packed skeletons (``workers=2``),
* ``distributed-loopback`` -- the TCP coordinator/worker fabric
                           (:mod:`repro.core.distributed`) with two worker
                           *processes* connected over 127.0.0.1, model
                           skeletons shipped as the same payload over the socket.

All three must produce bit-for-bit identical points (asserted); the wall-clock
spread quantifies the fabric's overhead (connection setup, framing, streamed
scheduling) against the pool it generalises.  Rows land in
``benchmarks/results/distributed_ablation.csv``; the CI smoke job runs this on
a reduced grid so the loopback fabric is exercised on every push.
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
DISTRIBUTED_WORKERS = 2
if smoke_mode():
    P_VALUES = (0.05, 0.1, 0.15, 0.2)
    GAMMAS = (0.5,)
else:
    P_VALUES = tuple(round(0.05 * i, 2) for i in range(0, 7))
    GAMMAS = (0.0, 0.5)
ATTACKS = (
    AttackParams(depth=1, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=1, max_fork_length=4),
)

COLUMNS = [
    "variant",
    "workers",
    "wall_seconds",
    "points",
    "units",
    "reassigned_units",
    "worker_builds",
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


def _row(variant: str, workers: int, seconds: float, sweep, **extra) -> dict:
    assert not sweep.failures, [failure.message for failure in sweep.failures]
    _SWEEPS[variant] = sweep
    row = {
        "variant": variant,
        "workers": workers,
        "wall_seconds": seconds,
        "points": len(sweep.points),
        "units": "",
        "reassigned_units": "",
        "worker_builds": "",
        "errev_checksum": round(sum(point.errev for point in sweep.points), 9),
    }
    row.update(extra)
    return row


def _run_serial() -> dict:
    clear_structure_cache()
    start = time.perf_counter()
    sweep = run_sweep(_grid_config(workers=1))
    return _row("serial", 1, time.perf_counter() - start, sweep)


def _run_local_pool() -> dict:
    clear_structure_cache()
    start = time.perf_counter()
    sweep = run_sweep(_grid_config(workers=DISTRIBUTED_WORKERS))
    return _row("local-pool", DISTRIBUTED_WORKERS, time.perf_counter() - start, sweep)


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
        for _ in range(DISTRIBUTED_WORKERS)
    ]
    clear_structure_cache()
    try:
        start = time.perf_counter()
        sweep = run_sweep(
            _grid_config(
                coordinator=f"127.0.0.1:{port}",
                distributed_workers=DISTRIBUTED_WORKERS,
            )
        )
        seconds = time.perf_counter() - start
    finally:
        for worker in workers:
            worker.wait(timeout=30)
    fabric = sweep.metadata["distributed"]
    builds = sum(stats["builds"] for stats in fabric["workers"].values())
    return _row(
        "distributed-loopback",
        DISTRIBUTED_WORKERS,
        seconds,
        sweep,
        units=fabric["units"],
        reassigned_units=fabric["reassigned_units"],
        worker_builds=builds,
    )


_VARIANTS = {
    "serial": _run_serial,
    "local-pool": _run_local_pool,
    "distributed-loopback": _run_distributed_loopback,
}


@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_backend_variant(benchmark, variant):
    """Time one execution backend on the shared grid."""
    row = benchmark.pedantic(_VARIANTS[variant], rounds=1, iterations=1)
    _ROWS.append(row)


def test_backends_agree_and_persist(results_dir):
    """All backends must compute identical points; persist the ablation CSV."""
    done = {row["variant"] for row in _ROWS}
    for variant, runner in _VARIANTS.items():
        if variant not in done:
            _ROWS.append(runner())
    reference = _SWEEPS["serial"]
    for variant in ("local-pool", "distributed-loopback"):
        assert [(p.p, p.gamma, p.series, p.errev) for p in reference.points] == [
            (p.p, p.gamma, p.series, p.errev) for p in _SWEEPS[variant].points
        ], variant
    builds = sum(
        stats["builds"]
        for stats in _SWEEPS["distributed-loopback"].metadata["distributed"]["workers"].values()
    )
    assert builds == 0, "remote workers must never explore"
    rows = sorted(_ROWS, key=lambda row: row["variant"])
    path = write_csv(rows, results_dir / "distributed_ablation.csv", columns=COLUMNS)
    print()
    print(render_table(rows))
    print(f"ablation written to {path}")
