"""The execution-conformance suite: inline and pool runs, one set of invariants.

Parametrized over every :data:`execution_conformance.CONTRACTS` entry (serial,
pool) and -- for the pool -- over the ``fork`` and ``spawn`` start methods.

The invariants are the acceptance criteria of the execution plane: bit-for-bit
equality with the serial reference, zero builds inside workers, delta-only
journal resume, per-point failure isolation, hard worker crashes that lose no
point silently, and graceful cancellation that leaves no worker process and a
resumable journal behind.
"""

from __future__ import annotations

import multiprocessing

import pytest
from execution_conformance import (
    CONTRACTS,
    SCENARIOS,
    SweepCancelled,
    assert_bit_for_bit,
    attack_keys,
    base_grid,
    chained_grid,
    crash_skeletons,
    failing_grid,
    failing_reference,
    serial_reference,
)

pytestmark = pytest.mark.parametrize("kind", sorted(CONTRACTS))


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, kind, monkeypatch):
    """Pin the pool start method; single run for the inline path."""
    if not CONTRACTS[kind].cross_process and request.param != "fork":
        pytest.skip("start method does not apply to inline execution")
    monkeypatch.setenv("REPRO_TEST_START_METHOD", request.param)
    return request.param


class TestBitForBit:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_matches_serial_reference(self, kind, start_method, scenario):
        """Certified bounds and CSV value columns agree with serial exactly."""
        contract = CONTRACTS[kind]
        result = contract.execute(base_grid(scenario))
        assert not result.failures
        assert_bit_for_bit(serial_reference(scenario=scenario), result)
        assert result.description

    def test_chained_series_match_reference(self, kind, start_method):
        """Warm-start and bound-reuse chains (one unit per series) reproduce serial exactly."""
        contract = CONTRACTS[kind]
        result = contract.execute(chained_grid())
        assert not result.failures
        assert_bit_for_bit(serial_reference(chained=True), result)


class TestWorkerBuilds:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_workers_never_explore(self, kind, start_method, scenario):
        """Acceptance invariant: worker processes perform zero builds."""
        contract = CONTRACTS[kind]
        if contract.worker_builds is None:
            pytest.skip("inline execution has no worker processes")
        builds = contract.worker_builds(base_grid(scenario))
        assert builds and all(count == 0 for count in builds)


class TestJournalResume:
    def test_resume_recomputes_nothing_after_a_complete_run(self, kind, tmp_path):
        """A resumed complete journal replays every point and records none."""
        contract = CONTRACTS[kind]
        journal_path = tmp_path / "sweep.journal"
        first = contract.execute(base_grid(), journal_path=journal_path)
        assert not first.failures
        first_meta = first.metadata["journal"]
        assert first_meta["recorded"] > 0 and first_meta["replayed"] == 0

        resumed = contract.execute(base_grid(), journal_path=journal_path, resume=True)
        assert not resumed.failures
        meta = resumed.metadata["journal"]
        assert meta["recorded"] == 0, "a complete journal must leave no delta"
        assert meta["replayed"] == first_meta["recorded"]
        assert meta["skipped_units"] > 0
        assert_bit_for_bit(first, resumed)


class TestFailureIsolation:
    @pytest.mark.parametrize("chained", [False, True], ids=["unchained", "chained"])
    def test_bad_point_is_isolated(self, kind, start_method, chained):
        """A point that raises fails alone; its neighbours and its baselines still certify."""
        contract = CONTRACTS[kind]
        result = contract.execute(failing_grid(chained))
        attack = "sm-actions(l=4,overpaying)"
        assert [(point.p, point.series) for point in result.points] == [
            (p, name)
            for p in (0.1, 0.5, 0.3)
            for name in ("honest", "single-tree(f=5)", attack)
            if (p, name) != (0.5, attack)
        ]
        (failure,) = result.failures
        assert (failure.p, failure.series) == (0.5, attack)
        assert failure.message.startswith("ModelError: the overpaying settlement rewards diverge")
        assert_bit_for_bit(failing_reference(chained), result)


class TestHardWorkerCrash:
    def test_crash_inside_chained_unit_loses_no_point(self, kind, start_method, tmp_path):
        """A worker hard-killed inside a chained unit loses no point silently.

        The crash skeletons' refill exits (``os._exit``) at the second
        point of every unit, before the unit returns.  Every point of the
        dead units comes back as a failure, and a journal resume without the
        crash reproduces the serial run bit for bit.
        """
        contract = CONTRACTS[kind]
        if contract.crash is None:
            pytest.skip("inline execution has no worker processes")
        journal_path = tmp_path / "sweep.journal"
        grid = chained_grid()
        with crash_skeletons(grid):
            reference = CONTRACTS["serial"].execute(grid)
            crashed = contract.crash(grid, journal_path, 0.1)
            resumed = contract.execute(grid, journal_path=journal_path, resume=True)
        assert not reference.failures
        assert sorted(attack_keys(crashed)) == sorted(attack_keys(reference))
        assert len(crashed.failures) == len(attack_keys(reference))
        assert all("worker crashed" in f.message for f in crashed.failures)
        assert not resumed.failures
        assert_bit_for_bit(reference, resumed)


class TestGracefulCancellation:
    def test_cancellation_leaves_resumable_journal_and_no_residue(self, kind, tmp_path):
        """Cancellation propagates, leaves no worker behind, and the journal resumes."""
        contract = CONTRACTS[kind]
        journal_path = tmp_path / "sweep.journal"
        exc = contract.cancel(base_grid(), journal_path)
        assert isinstance(exc, SweepCancelled)
        assert not multiprocessing.active_children(), "cancellation left workers behind"
        assert journal_path.exists(), "the journal must survive a cancellation"

        resumed = contract.execute(base_grid(), journal_path=journal_path, resume=True)
        assert not resumed.failures
        assert_bit_for_bit(serial_reference(), resumed)
        assert resumed.metadata["journal"]["replayed"] > 0
