"""Tests of the durable sweep journal (repro.core.journal).

Unit tests cover the record format (checksums, torn tails, mid-file
corruption, fingerprint pinning); the integration tests prove the acceptance
property of the journal: a sweep -- serial or pooled, including a pooled
``repro sweep`` process SIGKILLed mid-run -- restarted with
``--journal PATH --resume`` recomputes only the unjournaled delta and
produces a bit-for-bit identical result.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.attacks.structure import SelfishForksStructure
from repro.config import AnalysisConfig, AttackParams
from repro.core.engine import PointOutcome
from repro.core.journal import (
    FSYNC_POLICIES,
    JOURNAL_VERSION,
    SweepJournal,
    decode_record,
    encode_record,
    journal_fingerprint,
)
from repro.core.sweep import SweepConfig, run_sweep
from repro.exceptions import ConfigurationError, ModelError

_SRC = Path(__file__).resolve().parents[2] / "src"


def _grid(**overrides) -> dict:
    base = dict(
        p_values=(0.0, 0.1),
        gammas=(0.5,),
        attack_configs=(AttackParams(depth=1, forks=1),),
        analysis=AnalysisConfig(epsilon=1e-2),
    )
    base.update(overrides)
    return base


def _sigkill_grid(**overrides) -> dict:
    return _grid(
        p_values=(0.0, 0.05, 0.1, 0.15),
        attack_configs=(AttackParams(depth=1, forks=1), AttackParams(depth=2, forks=1)),
        **overrides,
    )


def _assert_same_points(expected, actual):
    assert [(point.p, point.gamma, point.series) for point in expected.points] == [
        (point.p, point.gamma, point.series) for point in actual.points
    ]
    for ours, theirs in zip(expected.points, actual.points):
        assert ours.errev == theirs.errev
        assert ours.beta_low == theirs.beta_low
        assert ours.beta_up == theirs.beta_up
        assert ours.solver_iterations == theirs.solver_iterations


def _journal_lines(path: Path) -> list:
    """The complete (newline-terminated) lines of a journal file."""
    data = path.read_bytes()
    complete, _, _tail = data.rpartition(b"\n")
    return complete.split(b"\n") if complete else []


def _point_record_count(path: Path) -> int:
    if not path.exists():
        return 0
    count = 0
    for line in _journal_lines(path):
        record = decode_record(line)
        if record is not None and record.get("kind") == "point":
            count += 1
    return count


def _truncate_to_points(path: Path, keep: int) -> None:
    """Rewrite the journal keeping the meta record and the first ``keep`` points."""
    lines = _journal_lines(path)
    kept, points = [], 0
    for line in lines:
        record = decode_record(line)
        assert record is not None
        if record.get("kind") == "point":
            if points >= keep:
                continue
            points += 1
        kept.append(line)
    path.write_bytes(b"\n".join(kept) + b"\n")


# ------------------------------------------------------------- record format


def test_record_roundtrip_and_checksum_rejection():
    record = {"kind": "point", "outcome": {"p": 0.30000000000000004, "n": None}}
    line = encode_record(record)
    assert line.endswith(b"\n")
    assert decode_record(line[:-1]) == record
    # Any tampering with the payload must fail the checksum.
    tampered = line[:-1].replace(b"0.30000000000000004", b"0.31")
    assert decode_record(tampered) is None
    assert decode_record(b"not json at all") is None
    assert decode_record(b'{"crc": "00000000"}') is None


def test_fingerprint_pins_values_not_scheduling():
    config = SweepConfig(**_grid())
    fingerprint = journal_fingerprint(config)
    assert fingerprint == journal_fingerprint(SweepConfig(**_grid(), workers=4))
    assert fingerprint != journal_fingerprint(
        SweepConfig(**_grid(analysis=AnalysisConfig(epsilon=5e-3)))
    )
    assert fingerprint != journal_fingerprint(SweepConfig(**_grid(p_values=(0.0, 0.2))))


def test_open_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ConfigurationError, match="fsync"):
        SweepJournal.open(tmp_path / "j", SweepConfig(**_grid()), fsync="sometimes")
    assert FSYNC_POLICIES == ("never", "close", "always")


def test_record_after_close_raises(tmp_path):
    journal = SweepJournal.open(tmp_path / "j", SweepConfig(**_grid()))
    journal.close()
    journal.close()  # idempotent
    outcome = PointOutcome(
        gamma_index=0, p_index=0, attack_index=0, p=0.0, gamma=0.5,
        series="s", errev=0.0, seconds=0.0, solver_iterations=0, num_states=1,
    )
    with pytest.raises(ModelError, match="closed"):
        journal.record(outcome)


# ------------------------------------------------- torn tails and corruption


def test_torn_tail_is_truncated_on_resume(tmp_path):
    path = tmp_path / "sweep.journal"
    grid = _grid()
    clean = run_sweep(SweepConfig(**grid, journal_path=str(path)))
    intact_points = _point_record_count(path)
    # Simulate a crash mid-append: a final line without its newline.
    with open(path, "ab") as handle:
        handle.write(b'{"crc": "dead', )
    resumed = run_sweep(
        SweepConfig(**grid, journal_path=str(path), journal_resume=True)
    )
    assert resumed.metadata["journal"]["replayed"] == intact_points
    _assert_same_points(clean, resumed)
    # A complete-but-checksum-invalid final line is the same torn-tail case.
    with open(path, "ab") as handle:
        handle.write(b'{"crc": "00000000", "record": {"kind": "point"}}\n')
    resumed_again = run_sweep(
        SweepConfig(**grid, journal_path=str(path), journal_resume=True)
    )
    _assert_same_points(clean, resumed_again)


def test_mid_file_corruption_is_rejected(tmp_path):
    path = tmp_path / "sweep.journal"
    grid = _grid()
    run_sweep(SweepConfig(**grid, journal_path=str(path)))
    lines = _journal_lines(path)
    assert len(lines) >= 3  # meta + at least two points
    lines[1] = lines[1][:-1] + (b"!" if lines[1][-1:] != b"!" else b"?")
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ModelError, match="corrupt"):
        run_sweep(SweepConfig(**grid, journal_path=str(path), journal_resume=True))


def test_resume_refuses_foreign_fingerprint(tmp_path):
    path = tmp_path / "sweep.journal"
    run_sweep(SweepConfig(**_grid(), journal_path=str(path)))
    other = _grid(analysis=AnalysisConfig(epsilon=5e-3))
    with pytest.raises(ModelError, match="different sweep"):
        run_sweep(SweepConfig(**other, journal_path=str(path), journal_resume=True))


def test_resume_refuses_journal_with_removed_analysis_keys(tmp_path):
    """A journal whose analysis settings carry the removed search options is foreign."""
    path = tmp_path / "sweep.journal"
    grid = _grid()
    run_sweep(SweepConfig(**grid, journal_path=str(path)))
    lines = _journal_lines(path)
    meta = decode_record(lines[0])
    assert meta is not None and meta["kind"] == "meta"
    meta["fingerprint"]["analysis"].update(batch_probes=1, portfolio_deadline=None)
    lines[0] = encode_record(meta)[:-1]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ModelError, match="different sweep"):
        run_sweep(SweepConfig(**grid, journal_path=str(path), journal_resume=True))


def test_resume_refuses_other_scenario_version(tmp_path, monkeypatch):
    """Points computed under another scenario version are never replayed."""
    path = tmp_path / "sweep.journal"
    grid = _grid()
    run_sweep(SweepConfig(**grid, journal_path=str(path)))
    monkeypatch.setattr(
        SelfishForksStructure, "SCENARIO_VERSION", SelfishForksStructure.SCENARIO_VERSION + 1
    )
    with pytest.raises(ModelError, match="different sweep"):
        run_sweep(SweepConfig(**grid, journal_path=str(path), journal_resume=True))


def test_resume_refuses_version_1_journal(tmp_path):
    """Format-1 and format-2 journals are foreign: refused before any replay.

    Format 1 fingerprinted the structure-cache switch; format-2 point records
    carry a ``recovery_retries`` key that ``PointOutcome`` no longer has.
    """
    path = tmp_path / "sweep.journal"
    grid = _grid()
    run_sweep(SweepConfig(**grid, journal_path=str(path)))
    written = _journal_lines(path)
    meta = decode_record(written[0])
    assert meta is not None and meta["fingerprint"]["journal_version"] == JOURNAL_VERSION == 3
    points = [decode_record(line) for line in written[1:]]
    assert points and all(point is not None for point in points)
    for version, fingerprint_extra, outcome_extra in (
        (1, {"use_structure_cache": True}, {}),
        (2, {}, {"recovery_retries": None}),
    ):
        old_meta = json.loads(json.dumps(meta))
        old_meta["fingerprint"].update(journal_version=version, **fingerprint_extra)
        lines = [encode_record(old_meta)[:-1]]
        for point in points:
            old_point = json.loads(json.dumps(point))
            old_point["outcome"].update(outcome_extra)
            lines.append(encode_record(old_point)[:-1])
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ModelError, match="different sweep"):
            run_sweep(SweepConfig(**grid, journal_path=str(path), journal_resume=True))


def test_structure_cache_switch_is_gone():
    """Every sweep point refills the cached skeleton; there is no switch to pin."""
    assert "use_structure_cache" not in journal_fingerprint(SweepConfig(**_grid()))
    with pytest.raises(TypeError):
        SweepConfig(**_grid(), use_structure_cache=True)


def test_errored_records_are_recomputed_on_resume(tmp_path):
    path = tmp_path / "sweep.journal"
    grid = _grid()
    config = SweepConfig(**grid)
    with SweepJournal.open(path, config) as journal:
        journal.record(
            PointOutcome(
                gamma_index=0, p_index=0, attack_index=0, p=0.0, gamma=0.5,
                series="ours(d=1,f=1)", errev=None, seconds=0.0,
                solver_iterations=0, num_states=0, error="worker crashed",
            )
        )
    resumed = run_sweep(
        SweepConfig(**grid, journal_path=str(path), journal_resume=True)
    )
    # The errored record is not replayed: every point is recomputed cleanly.
    assert resumed.metadata["journal"]["replayed"] == 0
    assert not resumed.failures
    _assert_same_points(run_sweep(config), resumed)


# ------------------------------------------------------------ resume = delta


@pytest.mark.parametrize("workers", [1, 2])
def test_resume_computes_only_the_delta_bit_for_bit(tmp_path, workers):
    path = tmp_path / "sweep.journal"
    grid = _grid(p_values=(0.0, 0.05, 0.1))
    clean = run_sweep(SweepConfig(**grid))
    full = run_sweep(SweepConfig(**grid, workers=workers, journal_path=str(path)))
    _assert_same_points(clean, full)
    total = _point_record_count(path)
    # Only attack points are journaled; the honest / single-tree baselines
    # are recomputed per run (they are closed-form, not solver work).
    assert total == len(grid["p_values"]) * len(grid["gammas"]) * len(
        grid["attack_configs"]
    )
    _truncate_to_points(path, 1)
    resumed = run_sweep(
        SweepConfig(
            **grid, workers=workers, journal_path=str(path), journal_resume=True
        )
    )
    _assert_same_points(clean, resumed)
    meta = resumed.metadata["journal"]
    assert meta["replayed"] == 1
    assert meta["recorded"] == total - 1
    assert meta["skipped_units"] >= 1
    # The journal is canonical again: a further resume computes nothing.
    rerun = run_sweep(
        SweepConfig(
            **grid, workers=workers, journal_path=str(path), journal_resume=True
        )
    )
    assert rerun.metadata["journal"]["replayed"] == total
    assert rerun.metadata["journal"]["recorded"] == 0
    _assert_same_points(clean, rerun)


def test_resume_recomputes_partial_chained_series_whole(tmp_path):
    path = tmp_path / "sweep.journal"
    grid = _grid(p_values=(0.0, 0.05, 0.1), reuse_p_axis_bounds=True)
    clean = run_sweep(SweepConfig(**grid))
    run_sweep(SweepConfig(**grid, journal_path=str(path)))
    total = _point_record_count(path)
    _truncate_to_points(path, 1)
    resumed = run_sweep(
        SweepConfig(**grid, journal_path=str(path), journal_resume=True)
    )
    # The chained series has one unit spanning all p: a partial journal must
    # not skip it (the tail depends on the head), so nothing is skipped and
    # the whole series is recomputed -- to identical values.
    meta = resumed.metadata["journal"]
    assert meta["skipped_units"] == 0
    assert meta["replayed"] == 1
    assert meta["recorded"] == total - 1  # replayed keys are not re-appended
    _assert_same_points(clean, resumed)


def test_fsync_policies_produce_identical_journals(tmp_path):
    def normalized(path: Path) -> list:
        records = [decode_record(line) for line in _journal_lines(path)]
        assert all(record is not None for record in records)
        for record in records:
            record.get("outcome", {}).pop("seconds", None)  # wall clock varies
        return records

    grid = _grid()
    journals = {}
    for policy in FSYNC_POLICIES:
        path = tmp_path / f"{policy}.journal"
        run_sweep(SweepConfig(**grid, journal_path=str(path), journal_fsync=policy))
        journals[policy] = normalized(path)
    assert journals["never"] == journals["close"] == journals["always"]


# ------------------------------------------------------ SIGKILL acceptance


def test_sigkilled_pool_sweep_resumes_bit_for_bit(tmp_path):
    """SIGKILL a pooled ``repro sweep`` once it has journaled two points, then
    resume on a pool: only the unjournaled delta is recomputed, and the result
    is bit-for-bit equal to an uninterrupted serial run.

    The sweep runs in its own session and the whole process group is killed,
    so its pool workers die with it (as on a host crash) instead of lingering
    as orphans.
    """
    grid = _sigkill_grid()
    serial = run_sweep(SweepConfig(**grid))
    total = len(grid["p_values"]) * len(grid["gammas"]) * len(grid["attack_configs"])
    journal = tmp_path / "sweep.journal"
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    env.pop("REPRO_FAULTS", None)
    sweep = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep",
            "--gamma", "0.5", "--p-max", "0.15", "--p-step", "0.05",
            "--epsilon", "0.01", "--workers", "2",
            "--journal", str(journal), "--journal-fsync", "always",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 180.0
        # The points land within a few milliseconds of each other, hence the
        # tight polling.
        while time.monotonic() < deadline:
            if _point_record_count(journal) >= 2:
                break
            if sweep.poll() is not None:
                pytest.fail("sweep exited before any kill")
            time.sleep(0.002)
        else:
            pytest.fail("no journaled points before the deadline")
    finally:
        # SIGKILL: no atexit, no flush beyond the per-record fsync.
        try:
            os.killpg(sweep.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group already exited
        sweep.wait(timeout=30)
    assert _point_record_count(journal) >= 2
    resumed = run_sweep(
        SweepConfig(**grid, workers=2, journal_path=str(journal), journal_resume=True)
    )
    assert not resumed.failures
    _assert_same_points(serial, resumed)
    meta = resumed.metadata["journal"]
    assert meta["replayed"] >= 2
    assert meta["replayed"] + meta["recorded"] == total
    assert meta["skipped_units"] == meta["replayed"]


def test_journal_lines_are_valid_json(tmp_path):
    path = tmp_path / "sweep.journal"
    run_sweep(SweepConfig(**_grid(), journal_path=str(path)))
    lines = _journal_lines(path)
    assert decode_record(lines[0])["kind"] == "meta"
    for line in lines:
        envelope = json.loads(line)
        assert set(envelope) == {"crc", "record"}
