"""Tests of deterministic fault injection (repro.core.faults) and the
recovery paths it drives.

Unit tests pin the plan grammar and Nth-hit semantics; the integration tests
fire each registered site through a real sweep (serial and pooled) and assert
the recovery invariant: injected faults change retry counters and failure
reports, never computed values.
"""

from __future__ import annotations

import pytest

from repro.config import AnalysisConfig, AttackParams
from repro.core.faults import (
    DEFAULT_POINT_RETRIES,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_fault_plan,
    fault_stats,
    install_fault_plan,
    is_transient_error,
    maybe_fail,
    parse_fault_plan,
    point_retry_limit,
    reset_fault_plan,
)
from repro.core.sweep import SweepConfig, run_sweep
from repro.exceptions import ConfigurationError, ModelError


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """No plan leaks into or out of any test (env *and* process-local state)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_fault_plan()
    yield
    reset_fault_plan()


def _grid(**overrides) -> dict:
    base = dict(
        p_values=(0.0, 0.1),
        gammas=(0.5,),
        attack_configs=(AttackParams(depth=1, forks=1),),
        analysis=AnalysisConfig(epsilon=1e-2),
    )
    base.update(overrides)
    return base


def _assert_same_points(expected, actual):
    assert [(point.p, point.gamma, point.series) for point in expected.points] == [
        (point.p, point.gamma, point.series) for point in actual.points
    ]
    for ours, theirs in zip(expected.points, actual.points):
        assert ours.errev == theirs.errev
        assert ours.beta_low == theirs.beta_low
        assert ours.beta_up == theirs.beta_up


def _arm(monkeypatch, spec: str) -> None:
    """Install a fault plan the way subprocesses receive it: via the env.

    ``reset_fault_plan()`` re-arms the lazy load so *this* process and any
    fork-started pool worker (which inherits the already-imported module)
    both pick the plan up from ``REPRO_FAULTS``.
    """
    monkeypatch.setenv("REPRO_FAULTS", spec)
    reset_fault_plan()


# ------------------------------------------------------------- plan grammar


def test_parse_fault_plan_grammar():
    plan = parse_fault_plan("engine.point_transient:2, engine.worker_crash_pre_result:1:3 ")
    assert plan.specs["engine.point_transient"] == FaultSpec(
        site="engine.point_transient", nth=2, count=1
    )
    assert plan.specs["engine.worker_crash_pre_result"] == FaultSpec(
        site="engine.worker_crash_pre_result", nth=1, count=3
    )
    forever = parse_fault_plan(" ,engine.point_transient:4:*")
    assert forever.specs["engine.point_transient"] == FaultSpec(
        site="engine.point_transient", nth=4, count=None
    )


@pytest.mark.parametrize(
    "spec",
    [
        "nonexistent.site:1",
        "engine.point_transient",
        "engine.point_transient:0",
        "engine.point_transient:-1",
        "engine.point_transient:x",
        "engine.point_transient:1:0",
        "engine.point_transient:1:y",
        "engine.point_transient:1:2:3",
        "engine.point_transient:1,engine.point_transient:2",
    ],
)
def test_parse_fault_plan_rejects_malformed(spec):
    with pytest.raises(ConfigurationError):
        parse_fault_plan(spec)


@pytest.mark.parametrize(
    "site",
    ["distributed.result_drop", "distributed.result_corrupt", "distributed.heartbeat_stall"],
)
def test_retired_distributed_sites_are_unknown(site):
    with pytest.raises(ConfigurationError, match="unknown fault site"):
        parse_fault_plan(f"{site}:1")
    with pytest.raises(ModelError, match="unregistered"):
        maybe_fail(site)


def test_fault_spec_windows():
    assert [FaultSpec("s", nth=2).fires_on(hit) for hit in (1, 2, 3)] == [
        False, True, False,
    ]
    assert [FaultSpec("s", nth=2, count=2).fires_on(hit) for hit in (1, 2, 3, 4)] == [
        False, True, True, False,
    ]
    forever = FaultSpec("s", nth=3, count=None)
    assert [forever.fires_on(hit) for hit in (2, 3, 100)] == [False, True, True]


def test_plan_hits_are_deterministic_and_counted():
    plan = parse_fault_plan("engine.point_transient:2:2")
    fired = [plan.hit("engine.point_transient") for _ in range(5)]
    assert fired == [False, True, True, False, False]
    assert plan.stats()["engine.point_transient"] == {"hits": 5, "fired": 2}
    # An unplanned site is still counted (it just never fires).
    assert plan.hit("engine.worker_crash_pre_result") is False
    assert plan.stats()["engine.worker_crash_pre_result"] == {"hits": 1, "fired": 0}


# --------------------------------------------------------- process-wide plan


def test_maybe_fail_rejects_unregistered_site():
    with pytest.raises(ModelError, match="unregistered"):
        maybe_fail("made.up_site")


def test_no_plan_means_no_fire():
    assert maybe_fail("engine.point_transient") is False
    assert fault_stats() == {}


def test_plan_loads_lazily_from_env(monkeypatch):
    _arm(monkeypatch, "engine.point_transient:1")
    assert maybe_fail("engine.point_transient") is True
    assert maybe_fail("engine.point_transient") is False
    stats = fault_stats()
    assert stats["engine.point_transient"] == {"hits": 2, "fired": 1}
    # The env is read exactly once per process: changing it without a reset
    # does not re-install.
    monkeypatch.setenv("REPRO_FAULTS", "engine.worker_crash_pre_result:1")
    assert maybe_fail("engine.worker_crash_pre_result") is False
    reset_fault_plan()
    assert maybe_fail("engine.worker_crash_pre_result") is True


def test_install_fault_plan_accepts_string_plan_and_none():
    installed = install_fault_plan("engine.point_transient:1")
    assert isinstance(installed, FaultPlan)
    assert active_fault_plan() is installed
    assert install_fault_plan(None) is None
    assert active_fault_plan() is None
    with pytest.raises(ConfigurationError):
        install_fault_plan("bogus:1")


def test_injected_fault_is_transient_model_error():
    fault = InjectedFault("engine.point_transient")
    assert isinstance(fault, ModelError)
    assert fault.site == "engine.point_transient"
    assert is_transient_error(fault)
    assert is_transient_error(ConnectionResetError())
    assert is_transient_error(OSError("io blip"))
    assert not is_transient_error(ModelError("deterministic"))
    assert not is_transient_error(ConfigurationError("bad config"))
    assert not is_transient_error(ValueError("logic bug"))


def test_point_retry_limit_env_override(monkeypatch):
    assert point_retry_limit() == DEFAULT_POINT_RETRIES
    monkeypatch.setenv("REPRO_POINT_RETRIES", "5")
    assert point_retry_limit() == 5
    monkeypatch.setenv("REPRO_POINT_RETRIES", "0")
    assert point_retry_limit() == 0
    monkeypatch.setenv("REPRO_POINT_RETRIES", "-1")
    with pytest.raises(ConfigurationError):
        point_retry_limit()
    monkeypatch.setenv("REPRO_POINT_RETRIES", "many")
    with pytest.raises(ConfigurationError):
        point_retry_limit()


def test_every_registered_site_has_a_description():
    for site, description in FAULT_SITES.items():
        assert "." in site and description


# ---------------------------------------------------------------- CLI wiring


def test_cli_rejects_bad_fault_spec_and_orphan_resume(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["sweep", "--inject-faults", "bogus:1"])
    assert "unknown fault site" in capsys.readouterr().err
    with pytest.raises(SystemExit, match="--resume requires --journal"):
        main(["sweep", "--resume"])
    with pytest.raises(SystemExit):
        main(["worker"])
    assert "invalid choice: 'worker'" in capsys.readouterr().err


# ----------------------------------------------------- engine recovery paths


def test_transient_point_fault_is_retried_to_identical_values(monkeypatch):
    grid = _grid()
    clean = run_sweep(SweepConfig(**grid))
    _arm(monkeypatch, "engine.point_transient:1")
    recovered = run_sweep(SweepConfig(**grid))
    assert not recovered.failures
    _assert_same_points(clean, recovered)
    assert recovered.metadata["recovery"] == {"point_retries": 1}
    assert "recovery" not in clean.metadata


def test_exhausted_retries_record_a_failure(monkeypatch):
    _arm(monkeypatch, "engine.point_transient:1:*")
    failed = run_sweep(SweepConfig(**_grid()))
    # Every attempt of every attack point fails: the bounded retry loop gives
    # up and records failures instead of retrying forever.
    assert failed.failures
    assert all("injected fault" in failure.message for failure in failed.failures)
    # Failure isolation keeps the baselines: honest/single-tree still compute.
    assert {point.series for point in failed.points} >= {"honest"}


def test_pooled_worker_crash_journals_cleanly_and_resumes(tmp_path, monkeypatch):
    grid = _grid(p_values=(0.0, 0.05, 0.1))
    clean = run_sweep(SweepConfig(**grid))
    journal = tmp_path / "sweep.journal"
    _arm(monkeypatch, "engine.worker_crash_pre_result:1")
    crashed = run_sweep(
        SweepConfig(**grid, workers=2, journal_path=str(journal))
    )
    assert crashed.failures  # every pool worker died on its first unit
    monkeypatch.delenv("REPRO_FAULTS")
    reset_fault_plan()
    resumed = run_sweep(
        SweepConfig(
            **grid, workers=2, journal_path=str(journal), journal_resume=True
        )
    )
    assert not resumed.failures
    _assert_same_points(clean, resumed)
