"""Ablation: shared-memory model plane versus per-worker prewarm.

A spawn-started pool (forced via ``REPRO_TEST_START_METHOD``) either lets every
worker rebuild all model skeletons in its initializer (the prewarm baseline,
``use_shared_structures=False``) or attaches the parent-built skeletons
zero-copy from one shared-memory segment.  Both sweeps must produce identical
points; the wall-clock difference is the per-worker exploration cost the plane
eliminates.

Timings land in ``benchmarks/results/shared_structure_ablation.csv``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import AnalysisConfig, AttackParams, SweepConfig, run_sweep
from repro.attacks import clear_structure_cache
from repro.core.reporting import render_table, write_csv

from conftest import smoke_mode

WORKERS = 4
EPSILON = 1e-3
if smoke_mode():
    P_VALUES = (0.1, 0.3)
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
    "start_method",
    "workers",
    "wall_seconds",
    "points",
    "solver_iterations",
    "errev_checksum",
]

#: (label, use_shared_structures) spawn-sweep variants of the ablation.
SWEEP_VARIANTS = [
    ("spawn-prewarm-per-worker", False),
    ("spawn-shared-plane", True),
]

_ROWS: list[dict] = []
_SWEEPS: dict = {}


def _sweep_config(use_shared: bool) -> SweepConfig:
    return SweepConfig(
        p_values=P_VALUES,
        gammas=GAMMAS,
        attack_configs=ATTACKS,
        analysis=AnalysisConfig(epsilon=EPSILON),
        workers=WORKERS,
        use_shared_structures=use_shared,
    )


def _run_sweep_variant(label: str, use_shared: bool) -> dict:
    """One forced-spawn sweep; the env override is scoped to the call."""
    clear_structure_cache()
    previous = os.environ.get("REPRO_TEST_START_METHOD")
    os.environ["REPRO_TEST_START_METHOD"] = "spawn"
    try:
        start = time.perf_counter()
        sweep = run_sweep(_sweep_config(use_shared))
        seconds = time.perf_counter() - start
    finally:
        if previous is None:
            os.environ.pop("REPRO_TEST_START_METHOD", None)
        else:
            os.environ["REPRO_TEST_START_METHOD"] = previous
    assert not sweep.failures, [f.message for f in sweep.failures]
    _SWEEPS[label] = sweep
    return {
        "variant": label,
        "start_method": "spawn",
        "workers": WORKERS,
        "wall_seconds": seconds,
        "points": len(sweep.points),
        "solver_iterations": sweep.total_solver_iterations,
        "errev_checksum": round(sum(point.errev for point in sweep.points), 9),
    }


@pytest.mark.parametrize("label,use_shared", SWEEP_VARIANTS)
def test_spawn_sweep_variant(benchmark, label, use_shared):
    """Time one forced-spawn sweep per structure-distribution variant."""
    row = benchmark.pedantic(_run_sweep_variant, args=(label, use_shared), rounds=1, iterations=1)
    _ROWS.append(row)


def test_variants_agree_and_persist(results_dir):
    """Both spawn variants must compute identical points; persist the ablation."""
    done = {row["variant"] for row in _ROWS}
    for label, use_shared in SWEEP_VARIANTS:
        if label not in done:
            _ROWS.append(_run_sweep_variant(label, use_shared))
    baseline = _SWEEPS["spawn-prewarm-per-worker"]
    shared = _SWEEPS["spawn-shared-plane"]
    assert [(p.p, p.gamma, p.series, p.errev) for p in baseline.points] == [
        (p.p, p.gamma, p.series, p.errev) for p in shared.points
    ]
    rows = sorted(_ROWS, key=lambda row: row["variant"])
    path = write_csv(rows, results_dir / "shared_structure_ablation.csv", columns=COLUMNS)
    print()
    print(render_table(rows))
    print(f"ablation written to {path}")
