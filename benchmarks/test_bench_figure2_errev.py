"""Figure 2: expected relative revenue vs adversarial resource, per gamma.

The paper's Figure 2 shows, for each gamma in {0, 0.25, 0.5, 0.75, 1}, the ERRev
achieved by the multi-fork attack (several (d, f) configurations) together with
the honest-mining and single-tree baselines, for p in [0, 0.3].

This benchmark regenerates the series (coarser p-grid and gamma set by default;
``REPRO_FULL=1`` switches to the paper's full grid), writes them to CSV, renders
an ASCII panel per gamma, and asserts the qualitative shape of the paper's
results:

* the attack dominates honest mining everywhere;
* already (d, f) = (2, 1) beats the single-tree baseline;
* ERRev grows with p, gamma, d and f;
* (d, f) = (1, 1) coincides with honest mining for gamma <= 0.5.
"""

from __future__ import annotations

import time

import pytest

from repro import AnalysisConfig, AttackParams, SweepConfig, run_sweep
from repro.attacks import build_selfish_forks_mdp, clear_structure_cache
from repro.analysis import formal_analysis
from repro.core.reporting import ascii_plot, write_csv
from repro.core.sweep import sweep_figure2

from conftest import full_mode, smoke_mode

if full_mode():
    GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)
elif smoke_mode():
    GAMMAS = (0.0, 0.5)
else:
    GAMMAS = (0.0, 0.5, 1.0)
ATTACKS = (
    (
        AttackParams(depth=1, forks=1, max_fork_length=4),
        AttackParams(depth=2, forks=1, max_fork_length=4),
        AttackParams(depth=2, forks=2, max_fork_length=4),
    )
    if full_mode()
    else (
        AttackParams(depth=1, forks=1, max_fork_length=4),
        AttackParams(depth=2, forks=1, max_fork_length=4),
    )
)

_SWEEPS = {}


def _run_sweep():
    sweep = sweep_figure2(
        fine_grid=full_mode(),
        gammas=GAMMAS,
        attack_configs=ATTACKS,
        epsilon=1e-3,
    )
    # The engine isolates per-point failures instead of raising; a partial
    # sweep must not be persisted as the reproduction artifact.
    assert not sweep.failures, [
        f"{f.series} p={f.p} gamma={f.gamma}: {f.message}" for f in sweep.failures
    ]
    return sweep


def test_figure2_sweep_runtime(benchmark, results_dir):
    """Time the full Figure 2 sweep and persist the series."""
    sweep = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    _SWEEPS["figure2"] = sweep
    path = write_csv(
        [point.to_row() for point in sweep.points],
        results_dir / "figure2_errev.csv",
        columns=["p", "gamma", "series", "errev", "seconds", "solver_iterations",
                 "beta_low", "beta_up"],
    )
    print()
    for gamma in GAMMAS:
        print(ascii_plot(sweep, gamma))
        print()
    print(f"series written to {path}")
    assert sweep.points


@pytest.fixture(scope="module")
def sweep():
    if "figure2" not in _SWEEPS:
        _SWEEPS["figure2"] = _run_sweep()
    return _SWEEPS["figure2"]


class TestFigure2Shape:
    def test_honest_baseline_is_diagonal(self, sweep):
        for point in sweep.series("honest"):
            assert point.errev == pytest.approx(point.p)

    def test_attack_dominates_honest_everywhere(self, sweep):
        for name in sweep.series_names():
            if not name.startswith("ours"):
                continue
            for point in sweep.series(name):
                assert point.errev >= point.p - 2e-3

    def test_d2f1_beats_single_tree_at_high_p(self, sweep):
        single_tree_name = next(
            name for name in sweep.series_names() if name.startswith("single-tree")
        )
        for gamma in GAMMAS:
            ours = {point.p: point.errev for point in sweep.series("ours(d=2,f=1)", gamma)}
            tree = {point.p: point.errev for point in sweep.series(single_tree_name, gamma)}
            top_p = max(ours)
            assert ours[top_p] >= tree[top_p] - 1e-9

    def test_errev_monotone_in_p(self, sweep):
        for name in sweep.series_names():
            if not name.startswith("ours"):
                continue
            for gamma in GAMMAS:
                values = [point.errev for point in sweep.series(name, gamma)]
                assert all(b >= a - 5e-3 for a, b in zip(values, values[1:]))

    def test_errev_monotone_in_gamma(self, sweep):
        for name in sweep.series_names():
            if not name.startswith("ours"):
                continue
            by_gamma = {
                gamma: {point.p: point.errev for point in sweep.series(name, gamma)}
                for gamma in GAMMAS
            }
            for p in by_gamma[GAMMAS[0]]:
                values = [by_gamma[gamma][p] for gamma in GAMMAS]
                assert all(b >= a - 5e-3 for a, b in zip(values, values[1:]))

    def test_d1f1_matches_honest_for_low_gamma(self, sweep):
        for gamma in (g for g in GAMMAS if g <= 0.5):
            for point in sweep.series("ours(d=1,f=1)", gamma):
                assert point.errev == pytest.approx(point.p, abs=5e-3)

    def test_depth_two_strictly_better_at_top_p(self, sweep):
        for gamma in GAMMAS:
            d1 = {point.p: point.errev for point in sweep.series("ours(d=1,f=1)", gamma)}
            d2 = {point.p: point.errev for point in sweep.series("ours(d=2,f=1)", gamma)}
            top_p = max(d1)
            assert d2[top_p] > d1[top_p]


class TestEngineAblation:
    """Serial-vs-parallel and cold-vs-warm timings of the sweep engine.

    Results are persisted to ``benchmarks/results/engine_ablation.csv`` and
    ``benchmarks/results/warm_start_ablation.csv`` so that speedups can be
    tracked across commits.
    """

    def _grid(self):
        if smoke_mode():
            p_values = (0.1, 0.2, 0.3)
        else:
            p_values = tuple(round(0.05 * i, 2) for i in range(0, 7))
        return dict(
            p_values=p_values,
            gammas=GAMMAS,
            attack_configs=ATTACKS,
            analysis=AnalysisConfig(epsilon=1e-3),
        )

    def test_serial_vs_parallel_timings(self, results_dir):
        """The parallel engine must match the serial values exactly; record timings."""
        grid = self._grid()
        rows = []
        sweeps = {}
        modes = [
            ("serial-cached", dict(workers=1)),
            ("serial-cached-warm", dict(workers=1, warm_start_across_points=True)),
            ("parallel4-cached", dict(workers=4)),
        ]
        for label, engine_kwargs in modes:
            clear_structure_cache()
            start = time.perf_counter()
            sweep = run_sweep(SweepConfig(**grid, **engine_kwargs))
            seconds = time.perf_counter() - start
            sweeps[label] = sweep
            rows.append(
                {
                    "mode": label,
                    "workers": engine_kwargs.get("workers", 1),
                    "warm_start_across_points": engine_kwargs.get(
                        "warm_start_across_points", False
                    ),
                    "wall_seconds": round(seconds, 4),
                    "compute_seconds": round(sweep.total_compute_seconds, 4),
                    "solver_iterations": sweep.total_solver_iterations,
                    "points": len(sweep.points),
                }
            )
            assert not sweep.failures
        path = write_csv(
            rows,
            results_dir / "engine_ablation.csv",
            columns=["mode", "workers", "warm_start_across_points",
                     "wall_seconds", "compute_seconds", "solver_iterations", "points"],
        )
        print(f"\nengine ablation written to {path}")
        for row in rows:
            print(
                f"  {row['mode']:>22}: {row['wall_seconds']:7.2f}s wall, "
                f"{row['solver_iterations']} solver iterations"
            )
        # Parallel execution must reproduce the serial values bit for bit.
        serial = sweeps["serial-cached"].points
        parallel = sweeps["parallel4-cached"].points
        assert [(pt.p, pt.gamma, pt.series, pt.errev) for pt in serial] == [
            (pt.p, pt.gamma, pt.series, pt.errev) for pt in parallel
        ]
        # Warm-started chains must agree with independent points to epsilon.
        warm = sweeps["serial-cached-warm"].points
        for cold_point, warm_point in zip(serial, warm):
            assert warm_point.errev == pytest.approx(cold_point.errev, abs=2e-3)

    def test_cold_vs_warm_solver_sweeps(self, results_dir):
        """Warm-started Algorithm 1 needs fewer solver sweeps; record the counts."""
        attack = AttackParams(depth=2, forks=1, max_fork_length=4)
        from repro import ProtocolParams

        model = build_selfish_forks_mdp(ProtocolParams(p=0.3, gamma=0.5), attack)
        rows = []
        counts = {}
        for solver in ("policy_iteration", "value_iteration"):
            for warm in (False, True):
                config = AnalysisConfig(
                    epsilon=1e-3, solver=solver, warm_start=warm, solver_tolerance=1e-7
                )
                start = time.perf_counter()
                result = formal_analysis(model.mdp, config)
                seconds = time.perf_counter() - start
                counts[(solver, warm)] = (result.total_solver_iterations, result)
                rows.append(
                    {
                        "solver": solver,
                        "warm_start": warm,
                        "solver_iterations": result.total_solver_iterations,
                        "binary_search_iterations": result.num_iterations,
                        "errev_lower_bound": result.errev_lower_bound,
                        "wall_seconds": round(seconds, 4),
                    }
                )
        path = write_csv(
            rows,
            results_dir / "warm_start_ablation.csv",
            columns=["solver", "warm_start", "solver_iterations",
                     "binary_search_iterations", "errev_lower_bound", "wall_seconds"],
        )
        print(f"\nwarm-start ablation written to {path}")
        for solver in ("policy_iteration", "value_iteration"):
            cold_iters, cold = counts[(solver, False)]
            warm_iters, warm = counts[(solver, True)]
            print(f"  {solver}: cold={cold_iters} sweeps, warm={warm_iters} sweeps")
            # Same epsilon-tight bounds, measurably fewer sweeps when warm.
            assert warm.errev_lower_bound == pytest.approx(
                cold.errev_lower_bound, abs=cold.epsilon
            )
            assert warm_iters < cold_iters
