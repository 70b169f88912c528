"""Tests of the parallel sweep engine (:mod:`repro.core.engine`).

The two contract-level guarantees are exercised here: parallel execution
reproduces the serial values exactly, and a warm-started analysis certifies
exactly what a cold bisection does while spending fewer solver iterations.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from cold_bisection import cold_bisection
from repro import (
    AnalysisConfig,
    AttackParams,
    ProtocolParams,
    SweepConfig,
    run_sweep,
)
from repro.analysis import formal_analysis
from repro.attacks import build_selfish_forks_mdp, single_tree_errev
from repro.core import execute_sweep
from repro.core.engine import _build_tasks


PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def with_unchecked_p_values(config: SweepConfig, p_values) -> SweepConfig:
    """``config`` with a p grid set after validation.

    ``SweepConfig`` rejects a p outside [0, 1]; set afterwards, such a point
    raises inside the engine instead, which is what the failure-isolation
    tests need.
    """
    config.p_values = p_values
    return config


def small_grid(**engine_kwargs) -> SweepConfig:
    return SweepConfig(
        p_values=(0.0, 0.15, 0.3),
        gammas=(0.0, 0.5),
        attack_configs=(
            AttackParams(depth=1, forks=1, max_fork_length=4),
            AttackParams(depth=2, forks=1, max_fork_length=4),
        ),
        analysis=AnalysisConfig(epsilon=1e-2),
        **engine_kwargs,
    )


def point_tuples(sweep):
    return [(point.p, point.gamma, point.series, point.errev) for point in sweep.points]


class TestParallelEqualsSerial:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_sweep(small_grid(workers=1))

    def test_parallel_points_identical(self, serial):
        parallel = run_sweep(small_grid(workers=4))
        assert point_tuples(parallel) == point_tuples(serial)

    def test_parallel_with_warm_chaining_identical(self):
        chained_serial = run_sweep(small_grid(workers=1, warm_start_across_points=True))
        chained_parallel = run_sweep(small_grid(workers=3, warm_start_across_points=True))
        assert point_tuples(chained_parallel) == point_tuples(chained_serial)

    def test_warm_chaining_matches_independent_points_within_epsilon(self, serial):
        chained = run_sweep(small_grid(workers=1, warm_start_across_points=True))
        for independent, warm in zip(serial.points, chained.points):
            assert (independent.p, independent.gamma, independent.series) == (
                warm.p,
                warm.gamma,
                warm.series,
            )
            assert warm.errev == pytest.approx(independent.errev, abs=1e-2)

    def test_points_in_canonical_order(self, serial):
        expected = []
        for gamma in (0.0, 0.5):
            for p in (0.0, 0.15, 0.3):
                expected.extend(
                    [
                        (p, gamma, "honest"),
                        (p, gamma, "single-tree(f=5)"),
                        (p, gamma, "ours(d=1,f=1)"),
                        (p, gamma, "ours(d=2,f=1)"),
                    ]
                )
        assert [(pt.p, pt.gamma, pt.series) for pt in serial.points] == expected

    def test_attack_points_carry_timings(self, serial):
        for point in serial.points:
            if point.series.startswith("ours"):
                assert point.seconds is not None and point.seconds >= 0.0
                assert point.solver_iterations is not None and point.solver_iterations > 0
                assert "seconds" in point.to_row()
            else:
                assert point.seconds is None
                assert "seconds" not in point.to_row()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            execute_sweep(small_grid(workers=0))


class TestFailureIsolation:
    def failing_grid(self, workers: int) -> SweepConfig:
        # p = 1.5 is invalid and raises inside the worker; baselines are
        # disabled so the parent never touches the bad point itself.
        config = SweepConfig(
            p_values=(0.1, 0.3),
            gammas=(0.5,),
            attack_configs=(AttackParams(depth=1, forks=1, max_fork_length=4),),
            include_honest=False,
            include_single_tree=False,
            analysis=AnalysisConfig(epsilon=1e-2),
            workers=workers,
        )
        return with_unchecked_p_values(config, (0.1, 1.5, 0.3))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_point_is_isolated(self, workers):
        sweep = run_sweep(self.failing_grid(workers))
        assert [point.p for point in sweep.points] == [0.1, 0.3]
        assert len(sweep.failures) == 1
        failure = sweep.failures[0]
        assert failure.p == 1.5 and failure.series == "ours(d=1,f=1)"
        assert "ConfigurationError" in failure.message

    def test_failure_reported_via_progress(self):
        messages = []
        run_sweep(self.failing_grid(1), progress=messages.append)
        assert sum("FAILED" in message for message in messages) == 1

    def test_warm_chain_restarts_after_failure(self):
        config = self.failing_grid(1)
        config.warm_start_across_points = True
        sweep = run_sweep(config)
        assert [point.p for point in sweep.points] == [0.1, 0.3]
        assert len(sweep.failures) == 1

    def test_crashed_worker_recorded_as_failures(self, monkeypatch):
        """A worker that dies (not merely raises) must not abort the sweep."""
        import os

        import repro.core.engine as engine_module

        def die(task):
            os._exit(1)

        # Fork-started workers inherit the patched module, so every task's
        # worker kills itself and the pool breaks.
        monkeypatch.setattr(engine_module, "_run_attack_task", die)
        config = SweepConfig(
            p_values=(0.1, 0.2),
            gammas=(0.5,),
            attack_configs=(AttackParams(depth=1, forks=1, max_fork_length=4),),
            analysis=AnalysisConfig(epsilon=1e-2),
            workers=2,
        )
        sweep = execute_sweep(config)
        assert len(sweep.failures) == 2
        assert all("worker crashed" in failure.message for failure in sweep.failures)
        # Baselines computed in the parent survive.
        assert {point.series for point in sweep.points} == {"honest", "single-tree(f=5)"}

    def test_baseline_failures_isolated_too(self):
        config = self.failing_grid(1)
        config.include_honest = True
        config.include_single_tree = True
        sweep = run_sweep(config)
        # The bad point fails once per series (honest, single-tree, attack)
        # instead of aborting the sweep in the parent.
        assert {failure.series for failure in sweep.failures} == {
            "honest",
            "single-tree(f=5)",
            "ours(d=1,f=1)",
        }
        assert all(failure.p == 1.5 for failure in sweep.failures)
        assert [point.p for point in sweep.points if point.series == "honest"] == [0.1, 0.3]
        single_tree = [point.p for point in sweep.points if point.series == "single-tree(f=5)"]
        assert single_tree == [0.1, 0.3]


def test_single_tree_series_is_one_grid_evaluation_per_gamma(monkeypatch):
    """The baseline evaluates its round graph once per gamma, to every point's own value."""
    from repro.core import engine as engine_module

    evaluated = []
    grid = engine_module.single_tree_errev_grid

    def counting_grid(gamma, p_values, params):
        evaluated.append((gamma, tuple(p_values)))
        return grid(gamma, p_values, params)

    monkeypatch.setattr(engine_module, "single_tree_errev_grid", counting_grid)
    config = small_grid()
    sweep = run_sweep(config)
    assert evaluated == [(gamma, config.p_values) for gamma in config.gammas]
    points = [point for point in sweep.points if point.series == "single-tree(f=5)"]
    assert len(points) == len(config.gammas) * len(config.p_values)
    for point in points:
        protocol = ProtocolParams(p=point.p, gamma=point.gamma)
        assert point.errev == single_tree_errev(protocol, config.single_tree)


class TestTaskDecomposition:
    def test_point_tasks_without_chaining(self):
        tasks = _build_tasks(small_grid(workers=2))
        # 2 gammas x 2 attacks x 3 p values, one point each.
        assert len(tasks) == 12
        assert all(len(task.p_values) == 1 for task in tasks)

    def test_series_tasks_with_chaining(self):
        tasks = _build_tasks(small_grid(workers=2, warm_start_across_points=True))
        # 2 gammas x 2 attacks, whole p block each.
        assert len(tasks) == 4
        assert all(task.p_values == (0.0, 0.15, 0.3) for task in tasks)

    def test_series_tasks_with_bound_reuse(self):
        """Bound reuse forces series-ordered scheduling even without warm chaining."""
        tasks = _build_tasks(small_grid(workers=2, reuse_p_axis_bounds=True))
        assert len(tasks) == 4
        assert all(task.p_values == (0.0, 0.15, 0.3) for task in tasks)
        assert all(task.reuse_p_axis_bounds for task in tasks)


class TestExecutionPaths:
    @pytest.mark.parametrize("field", ["coordinator", "connect", "distributed_workers"])
    def test_no_multi_host_options(self, field):
        """Sweeps run serially or on the local pool; there is no multi-host mode."""
        with pytest.raises(TypeError):
            SweepConfig(**{field: 1})

    @pytest.mark.parametrize("module", ["asyncio", "socket"])
    def test_package_has_no_network_transport(self, module):
        """No module of the package imports a networking or event-loop stack."""
        offenders = []
        for path in sorted(PACKAGE.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                if any(name == module or name.startswith(module + ".") for name in names):
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
        assert offenders == []

    def test_single_worker_runs_inline_without_a_pool(self, monkeypatch):
        """``workers == 1`` runs every unit in-process; no pool is ever opened."""
        import repro.core.execution as execution_module

        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 must not open a process pool")

        monkeypatch.setattr(execution_module, "ProcessPoolExecutor", no_pool)
        result = execute_sweep(small_grid(workers=1))
        assert not result.failures
        assert len(result.points) == len(point_tuples(run_sweep(small_grid(workers=1))))

    def test_engine_does_not_import_the_orchestration(self):
        """The engine runs units; only ``execution`` orchestrates (no import cycle)."""
        tree = ast.parse((PACKAGE / "core" / "engine.py").read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.append(node.module or "")
                imported.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.extend(alias.name for alias in node.names)
        assert not [name for name in imported if name.split(".")[-1] == "execution"]


class TestSpawnContextPrewarm:
    """On spawn platforms workers must install the parent's skeletons.

    Regression tests: the engine used to skip cache population entirely off
    Linux, so every spawned worker silently rebuilt every skeleton per task.
    The platform check happens in the parent only, so monkeypatching
    ``sys.platform`` drives the real spawn + initializer path even on Linux.
    """

    def spawn_grid(self, **kwargs):
        return SweepConfig(
            p_values=(0.1, 0.3),
            gammas=(0.5,),
            attack_configs=(AttackParams(depth=1, forks=1, max_fork_length=4),),
            analysis=AnalysisConfig(epsilon=1e-2),
            **kwargs,
        )

    def test_spawn_pool_prewarms_and_matches_serial(self, monkeypatch):
        import repro.core.engine as engine_module

        serial = execute_sweep(self.spawn_grid(workers=1))
        monkeypatch.setattr(engine_module.sys, "platform", "darwin")
        spawned = execute_sweep(self.spawn_grid(workers=2))
        assert not spawned.failures
        assert point_tuples(spawned) == point_tuples(serial)

    def test_pool_kwargs_start_method_follows_platform(self, monkeypatch):
        """Off Linux (and without an override) the pool context is spawn."""
        import repro.core.engine as engine_module
        from repro.core.execution import pool_kwargs

        monkeypatch.delenv("REPRO_TEST_START_METHOD", raising=False)
        monkeypatch.setattr(engine_module.sys, "platform", "darwin")
        kwargs = pool_kwargs(self.spawn_grid(workers=2))
        assert kwargs["mp_context"].get_start_method() == "spawn"
        assert set(kwargs) == {"mp_context", "initializer", "initargs"}

    def test_initializer_importable_and_idempotent(self):
        """The initializer and its skeletons must survive the spawn pickling."""
        import pickle

        from repro.attacks import clear_structure_cache, structure_cache_stats
        from repro.core.execution import pool_kwargs

        kwargs = pool_kwargs(self.spawn_grid(workers=2))
        initializer = kwargs["initializer"]
        (structures,) = pickle.loads(pickle.dumps(kwargs["initargs"]))
        assert pickle.loads(pickle.dumps(initializer)) is initializer
        try:
            initializer(structures)
            initializer(structures)
            stats = structure_cache_stats()
            assert (stats["builds"], stats["attaches"], stats["entries"]) == (0, 1, 1)
        finally:
            clear_structure_cache()


class TestMonotonePAxisBoundReuse:
    def test_reuse_matches_cold_within_epsilon(self):
        cold = run_sweep(small_grid(workers=1))
        reused = run_sweep(small_grid(workers=1, reuse_p_axis_bounds=True))
        for independent, warm in zip(cold.points, reused.points):
            assert (independent.p, independent.gamma, independent.series) == (
                warm.p,
                warm.gamma,
                warm.series,
            )
            assert warm.errev == pytest.approx(independent.errev, abs=1e-2)

    def test_reuse_certified_interval_still_tight(self):
        reused = run_sweep(small_grid(workers=1, reuse_p_axis_bounds=True))
        for point in reused.points:
            if point.series.startswith("ours"):
                assert point.beta_low is not None and point.beta_up is not None
                assert point.beta_low <= point.errev + 1e-9
                assert point.beta_up - point.beta_low < 1e-2

    def test_reuse_parallel_identical_to_serial(self):
        serial = run_sweep(small_grid(workers=1, reuse_p_axis_bounds=True))
        parallel = run_sweep(small_grid(workers=3, reuse_p_axis_bounds=True))
        assert point_tuples(parallel) == point_tuples(serial)

    def test_reuse_composes_with_warm_chaining(self):
        cold = run_sweep(small_grid(workers=1))
        combined = run_sweep(
            small_grid(workers=1, reuse_p_axis_bounds=True, warm_start_across_points=True)
        )
        for independent, warm in zip(cold.points, combined.points):
            assert warm.errev == pytest.approx(independent.errev, abs=1e-2)

    def test_reuse_spends_fewer_binary_search_solves(self):
        """Starting from the previous certified bound must shrink total solver work."""
        grid = SweepConfig(
            p_values=(0.1, 0.2, 0.3, 0.35, 0.4),
            gammas=(0.5,),
            attack_configs=(AttackParams(depth=2, forks=1, max_fork_length=4),),
            include_honest=False,
            include_single_tree=False,
            analysis=AnalysisConfig(epsilon=1e-3),
        )
        cold = run_sweep(grid)
        grid_reuse = SweepConfig(
            p_values=grid.p_values,
            gammas=grid.gammas,
            attack_configs=grid.attack_configs,
            include_honest=False,
            include_single_tree=False,
            analysis=AnalysisConfig(epsilon=1e-3),
            reuse_p_axis_bounds=True,
        )
        reused = run_sweep(grid_reuse)
        assert reused.total_solver_iterations < cold.total_solver_iterations

    def test_failure_resets_the_bound_chain(self):
        config = SweepConfig(
            p_values=(0.1, 0.3),
            gammas=(0.5,),
            attack_configs=(AttackParams(depth=1, forks=1, max_fork_length=4),),
            include_honest=False,
            include_single_tree=False,
            analysis=AnalysisConfig(epsilon=1e-2),
            reuse_p_axis_bounds=True,
        )
        sweep = run_sweep(with_unchecked_p_values(config, (0.1, 1.5, 0.3)))
        assert [point.p for point in sweep.points] == [0.1, 0.3]
        assert len(sweep.failures) == 1


class TestAssembleMissingOutcomes:
    """Regression: a grid key nobody reported must become a failure, not a crash.

    ``assemble_sweep_result`` used to index ``outcomes[...]`` bare, so a lost
    unit raised ``KeyError`` and discarded every point that *was* collected.
    """

    def test_missing_outcome_becomes_sweep_failure(self):
        from repro.core.engine import _run_attack_task, assemble_sweep_result

        config = small_grid(workers=1)
        tasks = _build_tasks(config)
        outcomes = {}
        for task in tasks:
            for outcome in _run_attack_task(task):
                outcomes[(outcome.gamma_index, outcome.p_index, outcome.attack_index)] = outcome
        lost = (0, 1, 1)  # gamma=0.0, p=0.15, second attack
        del outcomes[lost]
        sweep = assemble_sweep_result(config, outcomes, lambda _: None, description="test")
        (failure,) = sweep.failures
        assert "outcome never reported" in failure.message
        assert (failure.p, failure.gamma, failure.series) == (0.15, 0.0, "ours(d=2,f=1)")
        # Every collected point survives the lost one.
        assert len(sweep.points) == len(run_sweep(config).points) - 1


class TestWarmStartedAlgorithm1:
    @pytest.fixture(scope="class")
    def model(self):
        return build_selfish_forks_mdp(
            ProtocolParams(p=0.3, gamma=0.5), AttackParams(depth=2, forks=1, max_fork_length=4)
        )

    def test_same_bounds_fewer_rounds(self, model):
        config = AnalysisConfig(epsilon=1e-3, solver_tolerance=1e-7)
        cold = cold_bisection(model.mdp, config)
        warm = formal_analysis(model.mdp, config)
        assert [record.beta for record in warm.iterations] == cold.betas
        assert (warm.beta_low, warm.beta_up, warm.strategy_errev) == (
            cold.beta_low, cold.beta_up, cold.strategy_errev
        )
        assert warm.total_solver_iterations < cold.solver_iterations

    def test_cross_point_warm_start_same_result(self, model):
        config = AnalysisConfig(epsilon=1e-3)
        seed = formal_analysis(model.mdp, config)
        adjacent = build_selfish_forks_mdp(
            ProtocolParams(p=0.29, gamma=0.5), AttackParams(depth=2, forks=1, max_fork_length=4)
        )
        cold = formal_analysis(adjacent.mdp, config)
        warm = formal_analysis(
            adjacent.mdp,
            config,
            initial_strategy_rows=seed.strategy.rows,
        )
        assert warm.errev_lower_bound == pytest.approx(cold.errev_lower_bound, abs=config.epsilon)
        assert warm.total_solver_iterations <= cold.total_solver_iterations

    @pytest.mark.parametrize(
        "p, gamma", [(0.25, 0.5), (0.29, 0.5), (0.35, 0.5), (0.3, 0.0), (0.3, 1.0)]
    )
    def test_chained_search_certifies_what_a_cold_one_does(self, model, p, gamma):
        """A search started from a neighbouring point's strategy, as a chained sweep
        starts it, probes and certifies exactly what a cold search does."""
        config = AnalysisConfig(epsilon=1e-3)
        seed = formal_analysis(model.mdp, config)
        neighbour = build_selfish_forks_mdp(
            ProtocolParams(p=p, gamma=gamma), AttackParams(depth=2, forks=1, max_fork_length=4)
        ).mdp
        warm = formal_analysis(neighbour, config, initial_strategy_rows=seed.strategy.rows)
        cold = cold_bisection(neighbour, config)
        assert [record.beta for record in warm.iterations] == cold.betas
        assert (warm.beta_low, warm.beta_up, warm.strategy_errev) == (
            cold.beta_low, cold.beta_up, cold.strategy_errev
        )
        assert warm.total_solver_iterations < cold.solver_iterations

    def test_incompatible_warm_start_ignored(self, model):
        small = build_selfish_forks_mdp(
            ProtocolParams(p=0.3, gamma=0.5), AttackParams(depth=1, forks=1, max_fork_length=4)
        )
        donor = formal_analysis(small.mdp, AnalysisConfig(epsilon=1e-2))
        result = formal_analysis(
            model.mdp,
            AnalysisConfig(epsilon=1e-2),
            initial_strategy_rows=donor.strategy.rows,
        )
        assert result.interval_width < 1e-2

    @pytest.mark.parametrize("bad_row", ["past-the-end", "negative"])
    def test_out_of_range_warm_start_rows_ignored(self, model, bad_row):
        """Correct length but out-of-range row indices must fall back to cold."""
        import numpy as np

        config = AnalysisConfig(epsilon=1e-2)
        cold = formal_analysis(model.mdp, config)
        if bad_row == "past-the-end":
            bogus_rows = np.full(model.mdp.num_states, model.mdp.num_rows + 100, dtype=np.int64)
        else:
            # -1 would wrap to the model's last row, which belongs to the last state.
            bogus_rows = cold.strategy.rows.copy()
            bogus_rows[-1] = -1
        result = formal_analysis(model.mdp, config, initial_strategy_rows=bogus_rows)
        assert [it.solver_iterations for it in result.iterations] == [
            it.solver_iterations for it in cold.iterations
        ]
        assert (result.beta_low, result.beta_up) == (cold.beta_low, cold.beta_up)

    def test_iteration_log_carries_solver_counts(self, model):
        """A solved probe logs its rounds, a certified one none and the certificate's name."""
        result = formal_analysis(model.mdp, AnalysisConfig(epsilon=1e-2))
        for record in result.iterations:
            if record.certificate is None:
                assert record.solver_iterations > 0
            else:
                assert record.certificate in ("lower", "upper")
                assert record.solver_iterations == 0
        assert {record.certificate for record in result.iterations} == {None, "lower", "upper"}
        assert result.total_solver_iterations > sum(
            record.solver_iterations for record in result.iterations
        )
