"""Ablation: shared-memory results plane versus the pickled return path.

A pooled sweep either pickles every ``PointOutcome`` through the pool's result
queue (``use_results_plane=False``) or publishes packed records into the
shared-memory ring the parent drains.  Both sweeps must produce identical
points; the plane-path run must additionally report **zero pickled result
payloads** in ``SweepResult.metadata["results_plane"]``.

Timings and counters land in ``benchmarks/results/results_plane_ablation.csv``.
"""

from __future__ import annotations

import time

import pytest

from repro import AnalysisConfig, AttackParams, SweepConfig, run_sweep
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
    "workers",
    "wall_seconds",
    "points",
    "via_plane",
    "via_pickle",
    "errev_checksum",
]

#: (label, use_results_plane) sweep variants of the ablation.
SWEEP_VARIANTS = [
    ("pickled-return-path", False),
    ("results-plane", True),
]

_ROWS: list = []
_SWEEPS: dict = {}


def _sweep_config(use_plane: bool) -> SweepConfig:
    return SweepConfig(
        p_values=P_VALUES,
        gammas=GAMMAS,
        attack_configs=ATTACKS,
        analysis=AnalysisConfig(epsilon=EPSILON),
        workers=WORKERS,
        use_results_plane=use_plane,
    )


def _run_variant(label: str, use_plane: bool) -> dict:
    start = time.perf_counter()
    sweep = run_sweep(_sweep_config(use_plane))
    seconds = time.perf_counter() - start
    assert not sweep.failures, [f.message for f in sweep.failures]
    plane_stats = sweep.metadata.get("results_plane", {})
    if use_plane:
        assert plane_stats.get("enabled"), "the plane must be active in plane variants"
        assert plane_stats.get("via_pickle") == 0, "plane variants must not pickle outcomes"
    _SWEEPS[label] = sweep
    return {
        "variant": label,
        "workers": WORKERS,
        "wall_seconds": seconds,
        "points": len(sweep.points),
        "via_plane": plane_stats.get("via_plane", 0),
        "via_pickle": plane_stats.get("via_pickle", 0),
        "errev_checksum": round(sum(point.errev for point in sweep.points), 9),
    }


@pytest.mark.parametrize("label,use_plane", SWEEP_VARIANTS)
def test_sweep_variant(benchmark, label, use_plane):
    """Time one pooled sweep per return-path variant."""
    row = benchmark.pedantic(_run_variant, args=(label, use_plane), rounds=1, iterations=1)
    _ROWS.append(row)


def test_variants_agree_and_persist(results_dir):
    """Both return paths must compute identical points; persist the ablation."""
    done = {row["variant"] for row in _ROWS}
    for label, use_plane in SWEEP_VARIANTS:
        if label not in done:
            _ROWS.append(_run_variant(label, use_plane))
    pickled = _SWEEPS["pickled-return-path"]
    plane = _SWEEPS["results-plane"]
    assert [(p.p, p.gamma, p.series, p.errev) for p in pickled.points] == [
        (p.p, p.gamma, p.series, p.errev) for p in plane.points
    ]
    rows = sorted(_ROWS, key=lambda row: row["variant"])
    path = write_csv(rows, results_dir / "results_plane_ablation.csv", columns=COLUMNS)
    print()
    print(render_table(rows))
    print(f"ablation written to {path}")
