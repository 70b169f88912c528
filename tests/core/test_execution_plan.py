"""Unit tests of the sweep plan and the merge sink (:mod:`repro.core.execution`).

The conformance suite drives both end to end through real sweeps.  These tests
pin the pieces on their own, with hand-made outcomes and no solver runs: how a
grid decomposes into units, which units a journal resume skips, and what the
sink does with each outcome (merge, journal, report, synthesize, assemble).
"""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, AttackParams, SweepConfig
from repro.core.engine import PointOutcome, attack_series_name, describe_outcome
from repro.core.execution import MergeSink, SweepPlan
from repro.core.journal import SweepJournal
from repro.core.reporting import ProgressReporter

ATTACKS = (
    AttackParams(depth=1, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=1, max_fork_length=4),
)


def _config(**overrides) -> SweepConfig:
    params = dict(
        p_values=(0.0, 0.1, 0.2),
        gammas=(0.0, 0.5),
        attack_configs=ATTACKS,
        include_single_tree=False,
        analysis=AnalysisConfig(epsilon=1e-2),
    )
    params.update(overrides)
    return SweepConfig(**params)


def _outcome(plan: SweepPlan, key, *, error=None) -> PointOutcome:
    gamma_index, p_index, attack_index = key
    config = plan.config
    task = next(
        task
        for task in plan.tasks
        if task.gamma_index == gamma_index and task.attack_index == attack_index
    )
    return PointOutcome(
        gamma_index=gamma_index,
        p_index=p_index,
        attack_index=attack_index,
        p=config.p_values[p_index],
        gamma=config.gammas[gamma_index],
        series=task.series,
        errev=None if error else 0.25,
        seconds=0.0,
        solver_iterations=0 if error else 3,
        num_states=0 if error else 10,
        error=error,
        beta_low=None if error else 0.24,
        beta_up=None if error else 0.26,
        scenario=None if error else "selfish-forks@1",
    )


def _sink(plan: SweepPlan, *, journal=None):
    messages = []
    return MergeSink(plan, reporter=ProgressReporter(messages.append), journal=journal), messages


class TestSweepPlan:
    def test_unchained_grid_has_one_unit_per_point(self):
        plan = SweepPlan.build(_config())
        assert len(plan.tasks) == 2 * 2 * 3
        assert all(len(task.p_values) == 1 for task in plan.tasks)
        keys = [key for unit in range(len(plan.tasks)) for key in plan.unit_keys(unit)]
        assert len(set(keys)) == len(keys) == 12

    @pytest.mark.parametrize(
        "chaining", [{"warm_start_across_points": True}, {"reuse_p_axis_bounds": True}]
    )
    def test_chained_grid_has_one_unit_per_series(self, chaining):
        plan = SweepPlan.build(_config(**chaining))
        assert len(plan.tasks) == 2 * 2
        for unit_id, task in enumerate(plan.tasks):
            assert task.p_values == (0.0, 0.1, 0.2)
            assert plan.unit_keys(unit_id) == tuple(
                (task.gamma_index, p_index, task.attack_index) for p_index in (0, 1, 2)
            )

    def test_units_are_in_gamma_then_attack_order(self):
        plan = SweepPlan.build(_config(warm_start_across_points=True))
        assert [(task.gamma_index, task.attack_index) for task in plan.tasks] == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_nothing_replayed_keeps_the_plan(self):
        plan = SweepPlan.build(_config())
        assert plan.with_replayed({}) is plan
        assert plan.pending_tasks() == list(plan.tasks)

    def test_fully_replayed_units_are_skipped_in_order(self):
        plan = SweepPlan.build(_config())
        replayed = {key: _outcome(plan, key) for key in plan.unit_keys(0) + plan.unit_keys(5)}
        resumed = plan.with_replayed(replayed)
        assert resumed.replayed_units == frozenset({0, 5})
        assert resumed.pending_tasks() == [
            task for unit_id, task in enumerate(plan.tasks) if unit_id not in (0, 5)
        ]

    def test_partially_replayed_chained_unit_stays_pending(self):
        plan = SweepPlan.build(_config(warm_start_across_points=True))
        first_two = plan.unit_keys(1)[:2]
        resumed = plan.with_replayed({key: _outcome(plan, key) for key in first_two})
        assert resumed is plan
        assert resumed.pending_tasks() == list(plan.tasks)


class TestMergeSink:
    def test_accept_merges_by_key_and_reports_each_outcome(self):
        plan = SweepPlan.build(_config())
        sink, messages = _sink(plan)
        first = _outcome(plan, (0, 1, 0))
        again = _outcome(plan, (0, 1, 0), error="ModelError: boom")
        sink.accept([first, again])
        assert sink.outcomes == {(0, 1, 0): again}
        assert messages == [describe_outcome(first), describe_outcome(again)]

    def test_replay_merges_silently(self):
        plan = SweepPlan.build(_config())
        sink, messages = _sink(plan)
        outcome = _outcome(plan, (1, 2, 1))
        sink.replay({(1, 2, 1): outcome})
        assert sink.outcomes == {(1, 2, 1): outcome}
        assert messages == []

    def test_synthesize_missing_fails_only_unreported_keys(self):
        plan = SweepPlan.build(_config(reuse_p_axis_bounds=True))
        task = plan.tasks[2]
        sink, messages = _sink(plan)
        survivor = _outcome(plan, (task.gamma_index, 0, task.attack_index))
        sink.accept([survivor])
        sink.synthesize_missing(task, "worker crashed: BrokenProcessPool")
        assert sink.outcomes[(task.gamma_index, 0, task.attack_index)] is survivor
        for p_index in (1, 2):
            synthesized = sink.outcomes[(task.gamma_index, p_index, task.attack_index)]
            assert synthesized.error == "worker crashed: BrokenProcessPool"
            assert synthesized.errev is None
            assert synthesized.p == plan.config.p_values[p_index]
            assert synthesized.series == task.series
        assert len(messages) == 3
        assert all("FAILED (worker crashed" in line for line in messages[1:])

    def test_journal_records_accepted_outcomes_once(self, tmp_path):
        config = _config()
        plan = SweepPlan.build(config)
        with SweepJournal.open(tmp_path / "j.jsonl", config) as journal:
            sink, _ = _sink(plan, journal=journal)
            sink.accept([_outcome(plan, (0, 0, 0)), _outcome(plan, (0, 0, 1))])
            metadata = sink.journal_metadata()
        assert metadata == {
            "path": str(tmp_path / "j.jsonl"),
            "fsync": "close",
            "replayed": 0,
            "recorded": 2,
            "skipped_units": 0,
        }
        with SweepJournal.open(tmp_path / "j.jsonl", config, resume=True) as resumed:
            assert set(resumed.replayed_outcomes()) == {(0, 0, 0), (0, 0, 1)}

    def test_journal_metadata_counts_skipped_units(self, tmp_path):
        config = _config()
        plan = SweepPlan.build(config)
        keys = plan.unit_keys(0) + plan.unit_keys(1)
        with SweepJournal.open(tmp_path / "j.jsonl", config) as journal:
            for key in keys:
                journal.record(_outcome(plan, key))
        with SweepJournal.open(tmp_path / "j.jsonl", config, resume=True) as journal:
            resumed = plan.with_replayed(journal.replayed_outcomes())
            sink, _ = _sink(resumed, journal=journal)
            sink.replay(journal.replayed_outcomes())
            sink.accept([_outcome(plan, keys[0])])
            metadata = sink.journal_metadata()
        assert metadata["replayed"] == 2
        assert metadata["recorded"] == 0
        assert metadata["skipped_units"] == 2

    def test_no_journal_means_no_journal_metadata(self):
        sink, _ = _sink(SweepPlan.build(_config()))
        assert sink.journal_metadata() is None

    def test_assemble_orders_points_and_isolates_failures(self):
        plan = SweepPlan.build(_config(gammas=(0.5,), p_values=(0.1, 0.2)))
        sink, _ = _sink(plan)
        sink.accept(
            [
                _outcome(plan, (0, 1, 1)),
                _outcome(plan, (0, 0, 0)),
                _outcome(plan, (0, 1, 0), error="ModelError: boom"),
            ]
        )
        result = sink.assemble(description="unit")
        assert result.description == "unit"
        first, second = (attack_series_name(attack) for attack in ATTACKS)
        assert [(point.p, point.series) for point in result.points] == [
            (0.1, "honest"),
            (0.1, first),
            (0.2, "honest"),
            (0.2, second),
        ]
        assert [(failure.p, failure.series, failure.message) for failure in result.failures] == [
            (0.1, second, "outcome never reported (worker lost)"),
            (0.2, first, "ModelError: boom"),
        ]
