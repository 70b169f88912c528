"""Tests of the shared-memory results plane (:mod:`repro.core.results_plane`).

Mirrors the model-plane suite's contracts for the return path: every
:class:`PointOutcome` field round-trips through a packed record byte-exactly,
pooled sweeps return outcomes with **zero pickled result payloads**, and the
segment lifecycle never leaks -- unlinked after a clean pool shutdown and after
a simulated worker crash alike, on fork and spawn start methods.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import pytest

from repro import AnalysisConfig, AttackParams, SweepConfig
from repro.core.engine import PointOutcome, execute_sweep
from repro.core.results_plane import (
    ERROR_BYTES,
    active_results_plane_names,
    attach_results_plane,
    create_results_plane,
    forget_inherited_results_planes,
    install_results_plane,
    installed_results_plane,
)
from repro.exceptions import ModelError


def segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def full_outcome(**overrides) -> PointOutcome:
    """A PointOutcome with every optional field populated."""
    values = dict(
        gamma_index=1,
        p_index=2,
        attack_index=0,
        p=0.30000000000000004,  # a float that exposes any repr sloppiness
        gamma=0.5,
        series="ours(d=2,f=1)",
        errev=0.3391549026187659,
        seconds=0.1234,
        solver_iterations=17,
        num_states=148,
        error=None,
        beta_low=0.3386230468750001,
        beta_up=0.33935546875,
    )
    values.update(overrides)
    return PointOutcome(**values)


@pytest.fixture()
def plane():
    plane = create_results_plane(2, 3, 2)
    yield plane
    plane.release()


class TestRecordRoundTrip:
    def test_every_field_round_trips_byte_exactly(self, plane):
        outcome = full_outcome()
        assert plane.write(outcome)
        slot = plane.slot_of(outcome.gamma_index, outcome.p_index, outcome.attack_index)
        assert plane.read(slot) == outcome

    def test_none_fields_round_trip_as_none(self, plane):
        failed = full_outcome(
            gamma_index=0,
            p_index=0,
            errev=None,
            error="ConfigurationError: p must lie in [0, 1], got 1.5",
            beta_low=None,
            beta_up=None,
            solver_iterations=0,
            num_states=0,
        )
        assert plane.write(failed)
        assert plane.read(plane.slot_of(0, 0, 0)) == failed

    def test_unicode_error_strings_round_trip(self, plane):
        outcome = full_outcome(errev=None, error="SolverError: β-interval dégénéré ≤ ε")
        assert plane.write(outcome)
        restored = plane.read(plane.slot_of(1, 2, 0))
        assert restored.error == outcome.error

    def test_zero_errev_distinct_from_missing(self, plane):
        assert plane.write(full_outcome(errev=0.0))
        assert plane.read(plane.slot_of(1, 2, 0)).errev == 0.0

    def test_oversized_error_string_is_refused_not_truncated(self, plane):
        oversized = full_outcome(errev=None, error="x" * (ERROR_BYTES + 1))
        assert not plane.write(oversized)
        assert plane.read(plane.slot_of(1, 2, 0)) is None

    def test_trailing_nul_string_is_refused(self, plane):
        """Fixed-size numpy bytes fields strip trailing NULs: spill, not corrupt."""
        assert not plane.write(full_outcome(errev=None, error="boom\x00"))

    def test_out_of_grid_outcome_is_refused(self, plane):
        assert not plane.write(full_outcome(gamma_index=7))

    def test_unwritten_and_midwrite_slots_read_as_none(self, plane):
        assert plane.read(0) is None
        outcome = full_outcome(gamma_index=0, p_index=0)
        assert plane.write(outcome)
        slot = plane.slot_of(0, 0, 0)
        # Simulate a writer that died mid-record: odd seq means "in flux".
        plane._records["seq"][slot] = 3
        assert plane.read(slot) is None

    def test_drain_new_returns_each_record_once(self, plane):
        first = full_outcome(gamma_index=0, p_index=0)
        second = full_outcome(gamma_index=1, p_index=1)
        assert plane.write(first)
        assert [outcome for outcome in plane.drain_new()] == [first]
        assert plane.write(second)
        assert plane.drain_new() == [second]
        assert plane.drain_new() == []


class TestPlaneLifecycle:
    def test_attach_reads_creator_records(self):
        plane = create_results_plane(1, 2, 1)
        try:
            outcome = full_outcome(gamma_index=0, p_index=1, attack_index=0)
            assert plane.write(outcome)
            forget_inherited_results_planes()  # force a real second mapping
            attached = attach_results_plane(plane.name)
            try:
                assert attached.read(attached.slot_of(0, 1, 0)) == outcome
                assert attached.num_slots == plane.num_slots
            finally:
                attached.release()
            assert segment_exists(plane.name), "worker release must not unlink"
        finally:
            plane.release()
        assert not segment_exists(plane.name)

    def test_create_empty_grid_rejected(self):
        with pytest.raises(ModelError):
            create_results_plane(0, 3, 2)

    def test_attach_racing_creator_unlink_gets_clean_error(self):
        """Unknown-name and foreign-segment refusal now live in the shared
        conformance suite (``test_shm_conformance.py``); what stays here is the
        race an attacher can lose: the creator unlinked first."""
        plane = create_results_plane(1, 1, 1)
        name = plane.name
        forget_inherited_results_planes()  # force the real mapping path
        plane.release()
        with pytest.raises(ModelError, match="not available"):
            attach_results_plane(name)

    def test_install_and_forget(self):
        plane = create_results_plane(1, 1, 1)
        try:
            forget_inherited_results_planes()
            installed = install_results_plane(plane.name)
            try:
                assert installed_results_plane() is installed
            finally:
                installed.release()
            assert installed_results_plane() is None, "a closed plane must not be handed out"
        finally:
            forget_inherited_results_planes()
            plane.release()


def sweep_grid(**kwargs) -> SweepConfig:
    return SweepConfig(
        p_values=(0.1, 0.3),
        gammas=(0.5,),
        attack_configs=(AttackParams(1, 1, 4), AttackParams(2, 1, 4)),
        analysis=AnalysisConfig(epsilon=1e-2),
        **kwargs,
    )


def capture_results_plane_names(monkeypatch) -> list:
    """Record the segment names the engine creates during a sweep."""
    import repro.core.engine as engine_module
    import repro.core.results_plane as results_module

    names = []
    original = results_module.create_results_plane

    def capturing(*args):
        plane = original(*args)
        names.append(plane.name)
        return plane

    monkeypatch.setattr(results_module, "create_results_plane", capturing)
    # The engine imports the factory lazily from the module, so patching the
    # module attribute is enough; assert that stays true.
    assert engine_module is not None
    return names


class TestEngineIntegration:
    def test_pooled_sweep_returns_zero_pickled_payloads(self):
        """Acceptance: every outcome of a healthy pooled sweep rides the plane."""
        sweep = execute_sweep(sweep_grid(workers=2))
        assert not sweep.failures
        stats = sweep.metadata["results_plane"]
        assert stats["enabled"]
        assert stats["via_pickle"] == 0
        assert stats["synthesized"] == 0
        assert stats["via_plane"] == 4  # 1 gamma x 2 p x 2 attacks
        assert stats["slots"] == 4

    def test_plane_and_pickle_paths_compute_identical_points(self):
        serial = execute_sweep(sweep_grid(workers=1))
        plane_on = execute_sweep(sweep_grid(workers=2))
        plane_off = execute_sweep(sweep_grid(workers=2, use_results_plane=False))
        tuples = lambda sweep: [  # noqa: E731
            (p.p, p.gamma, p.series, p.errev, p.beta_low, p.beta_up) for p in sweep.points
        ]
        assert tuples(plane_on) == tuples(serial)
        assert tuples(plane_off) == tuples(serial)
        assert plane_off.metadata["results_plane"]["enabled"] is False
        assert plane_off.metadata["results_plane"]["via_pickle"] == 4

    def test_segment_unlinked_after_pool_shutdown(self, monkeypatch):
        names = capture_results_plane_names(monkeypatch)
        sweep = execute_sweep(sweep_grid(workers=2))
        assert not sweep.failures
        assert names, "the engine must create a results plane for a pooled sweep"
        for name in names:
            assert not segment_exists(name)
            assert name not in active_results_plane_names()

    def test_worker_crash_does_not_leak_segment(self, monkeypatch):
        """A pool whose workers die must still unlink the results plane."""
        import os

        import repro.core.engine as engine_module

        names = capture_results_plane_names(monkeypatch)

        def die(task):
            os._exit(1)

        monkeypatch.setattr(engine_module, "_run_attack_task", die)
        monkeypatch.setenv("REPRO_TEST_START_METHOD", "fork")
        sweep = execute_sweep(sweep_grid(workers=2))
        assert sweep.failures and all(
            "worker crashed" in failure.message for failure in sweep.failures
        )
        assert sweep.metadata["results_plane"]["synthesized"] == 4
        assert names
        for name in names:
            assert not segment_exists(name)

    def test_spawn_started_pool_matches_serial(self, monkeypatch):
        """Satellite: the plane works under a spawn start method too."""
        serial = execute_sweep(sweep_grid(workers=1))
        monkeypatch.setenv("REPRO_TEST_START_METHOD", "spawn")
        spawned = execute_sweep(sweep_grid(workers=2))
        assert not spawned.failures
        assert spawned.metadata["results_plane"]["via_pickle"] == 0
        assert spawned.metadata["results_plane"]["via_plane"] == 4
        assert [(p.p, p.gamma, p.series, p.errev) for p in spawned.points] == [
            (p.p, p.gamma, p.series, p.errev) for p in serial.points
        ]

    def test_oversized_error_spills_to_pickle_untruncated(self, monkeypatch):
        """An error string too large for a record must arrive complete via pickle."""
        import repro.analysis as analysis_module
        import repro.core.engine as engine_module

        marker = "E" * (ERROR_BYTES + 100)

        def explode(*args, **kwargs):
            raise RuntimeError(marker)

        monkeypatch.setattr(engine_module, "formal_analysis", explode)
        assert analysis_module is not None
        monkeypatch.setenv("REPRO_TEST_START_METHOD", "fork")
        config = sweep_grid(workers=2)
        config.include_honest = False
        config.include_single_tree = False
        sweep = execute_sweep(config)
        assert len(sweep.failures) == 4
        assert all(marker in failure.message for failure in sweep.failures)
        assert sweep.metadata["results_plane"]["via_pickle"] == 4
        assert sweep.metadata["results_plane"]["via_plane"] == 0


class TestInstallConcurrency:
    def test_concurrent_install_leaves_consistent_sink(self):
        """Racing installs must end with one coherent installed plane.

        Regression for the unguarded ``_INSTALLED_PLANE`` rebinding (RL002):
        install/forget now update the global under the registry lock.
        """
        import threading

        plane = create_results_plane(1, 1, 1)
        handles = []
        errors = []
        try:
            forget_inherited_results_planes()
            barrier = threading.Barrier(4)

            def hit():
                barrier.wait()
                try:
                    handles.append(install_results_plane(plane.name))
                except Exception as exc:  # pragma: no cover - the regression
                    errors.append(exc)

            threads = [threading.Thread(target=hit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            installed = installed_results_plane()
            assert installed in handles
            assert not installed.closed
        finally:
            for handle in handles:
                handle.release()
            forget_inherited_results_planes()
            plane.release()
