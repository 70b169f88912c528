"""Fixture-driven positive/negative cases for every lint rule.

Each rule gets at least one fixture proving it *fires* on violating code and
one proving it stays *quiet* on compliant code; scoping tests prove rules do
not leak outside their path scopes.
"""

from __future__ import annotations

import pytest

from repro.lint.rules import ALL_RULES
from repro.lint.rules.determinism import WALL_CLOCK_CALLS, CertifiedPathDeterminismRule
from repro.lint.rules.fork_safety import ForkSafetyRule
from repro.lint.rules.merge_pipeline import MergePipelineRule

RL002 = [ForkSafetyRule()]
RL003 = [CertifiedPathDeterminismRule()]
RL007 = [MergePipelineRule()]


def ids(violations):
    return [v.rule_id for v in violations]


# --------------------------------------------------------------------- RL002


def test_rl002_fires_on_unguarded_global_rebinding(harness):
    violations = harness.lint(
        "core/engine.py",
        """
        _CACHE = None

        def cache():
            global _CACHE
            if _CACHE is None:
                _CACHE = object()
            return _CACHE
        """,
        RL002,
    )
    assert ids(violations) == ["RL002"]
    assert "_CACHE" in violations[0].message


def test_rl002_quiet_on_lock_guarded_global(harness):
    violations = harness.lint(
        "core/engine.py",
        """
        import threading

        _CACHE = None
        _CACHE_LOCK = threading.Lock()

        def cache():
            global _CACHE
            with _CACHE_LOCK:
                if _CACHE is None:
                    _CACHE = object()
                return _CACHE
        """,
        RL002,
    )
    assert violations == []


def test_rl002_fires_on_bare_acquire(harness):
    violations = harness.lint(
        "core/engine.py",
        """
        import threading

        LOCK = threading.Lock()

        def critical():
            LOCK.acquire()
            try:
                return 1
            finally:
                LOCK.release()
        """,
        RL002,
    )
    assert ids(violations) == ["RL002"]
    assert ".acquire()" in violations[0].message


def test_rl002_global_check_scoped_to_engine_trees(harness):
    # Same unguarded-global fixture, but outside core/attacks/mdp/analysis.
    violations = harness.lint(
        "reporting/tables.py",
        """
        _CACHE = None

        def cache():
            global _CACHE
            _CACHE = object()
            return _CACHE
        """,
        RL002,
    )
    assert violations == []


def test_rl002_fires_on_tuple_unpacked_global_rebinding(harness):
    violations = harness.lint(
        "core/engine.py",
        """
        _PAYLOAD = None
        _COUNT = 0

        def install(payload):
            global _PAYLOAD, _COUNT
            _PAYLOAD, _COUNT = payload, len(payload)
        """,
        RL002,
    )
    assert ids(violations) == ["RL002", "RL002"]
    messages = " ".join(v.message for v in violations)
    assert "_PAYLOAD" in messages and "_COUNT" in messages


def test_rl002_fires_on_augmented_global_rebinding(harness):
    violations = harness.lint(
        "attacks/registry.py",
        """
        _BUILDS = 0

        def count_build():
            global _BUILDS
            _BUILDS += 1
        """,
        RL002,
    )
    assert ids(violations) == ["RL002"]
    assert "_BUILDS" in violations[0].message


def test_rl002_nested_def_has_its_own_global_scope(harness):
    # The outer ``global`` does not reach the inner def: the inner assignment
    # binds a local.  Only the inner def that declares the global fires.
    violations = harness.lint(
        "core/engine.py",
        """
        _STATE = None

        def outer():
            global _STATE

            def local_only():
                _STATE = 1
                return _STATE

            def rebinds():
                global _STATE
                _STATE = 2

            return local_only, rebinds
        """,
        RL002,
    )
    assert ids(violations) == ["RL002"]
    assert violations[0].line == 13


def test_rl002_quiet_under_lock_returned_by_call(harness):
    violations = harness.lint(
        "mdp/cache.py",
        """
        _CACHE = None

        def cache(registry):
            global _CACHE
            with registry.cache_lock():
                _CACHE = object()
            return _CACHE
        """,
        RL002,
    )
    assert violations == []


def test_rl002_non_lock_context_manager_does_not_guard(harness):
    violations = harness.lint(
        "core/journal.py",
        """
        _HANDLE = None

        def open_journal(path):
            global _HANDLE
            with open(path) as stream:
                _HANDLE = stream.read()
        """,
        RL002,
    )
    assert ids(violations) == ["RL002"]


def test_rl002_bare_acquire_scoped_to_engine_trees(harness):
    violations = harness.lint(
        "reporting/tables.py",
        """
        import threading

        LOCK = threading.Lock()

        def critical():
            LOCK.acquire()
            LOCK.release()
        """,
        RL002,
    )
    assert violations == []


def test_rl002_quiet_on_acquire_whose_result_is_used(harness):
    # Only an acquire *statement* is flagged; a non-blocking acquire whose
    # result decides the branch is an explicit protocol, not a leak.
    violations = harness.lint(
        "core/engine.py",
        """
        import threading

        LOCK = threading.Lock()

        def try_critical():
            if not LOCK.acquire(blocking=False):
                return None
            try:
                return 1
            finally:
                LOCK.release()
        """,
        RL002,
    )
    assert violations == []


# --------------------------------------------------------------------- RL003


def test_rl003_fires_on_stdlib_random(harness):
    violations = harness.lint(
        "mdp/solver.py",
        """
        import random

        def jitter():
            return random.random()
        """,
        RL003,
    )
    assert ids(violations) == ["RL003", "RL003"]  # the import and the call
    assert "hidden global RNG state" in violations[0].message


def test_rl003_fires_on_legacy_numpy_random_and_wall_clock(harness):
    violations = harness.lint(
        "analysis/formal.py",
        """
        import time

        import numpy as np

        def noisy():
            return np.random.rand(3) * time.time()
        """,
        RL003,
    )
    messages = " ".join(v.message for v in violations)
    assert ids(violations) == ["RL003", "RL003"]
    assert "np.random.rand" in messages
    assert "wall-clock read time.time()" in messages


def test_rl003_quiet_on_seeded_rng_and_monotonic_timers(harness):
    violations = harness.lint(
        "attacks/simulate.py",
        """
        import time

        import numpy as np

        def simulate(seed):
            rng = np.random.default_rng(seed)
            start = time.perf_counter()
            draws = rng.random(10)
            return draws, time.perf_counter() - start
        """,
        RL003,
    )
    assert violations == []


def test_rl003_fires_on_set_iteration(harness):
    violations = harness.lint(
        "attacks/structure.py",
        """
        def build(edges):
            return [edge for edge in set(edges)]
        """,
        RL003,
    )
    assert ids(violations) == ["RL003"]
    assert "hash-seed-dependent order" in violations[0].message


def test_rl003_quiet_on_sorted_set_iteration(harness):
    violations = harness.lint(
        "attacks/structure.py",
        """
        def build(edges):
            return [edge for edge in sorted(set(edges))]
        """,
        RL003,
    )
    assert violations == []


def test_rl003_scoped_to_certified_paths(harness):
    # random use outside attacks/mdp/analysis is out of scope for RL003.
    violations = harness.lint(
        "core/sweep.py",
        """
        import random

        def shuffle_order(items):
            random.shuffle(items)
            return items
        """,
        RL003,
    )
    assert violations == []


def test_rl003_fires_on_from_random_import(harness):
    violations = harness.lint(
        "analysis/bisection.py",
        """
        from random import uniform

        def probe(low, high):
            return uniform(low, high)
        """,
        RL003,
    )
    assert ids(violations) == ["RL003"]
    assert "from random import" in violations[0].message


@pytest.mark.parametrize("call", sorted(WALL_CLOCK_CALLS))
def test_rl003_fires_on_every_wall_clock_read(harness, call):
    violations = harness.lint(
        "mdp/solver.py",
        f"""
        def stamp():
            return {call}()
        """,
        RL003,
    )
    assert ids(violations) == ["RL003"]
    assert f"wall-clock read {call}()" in violations[0].message


@pytest.mark.parametrize(
    "call", ["time.perf_counter", "time.perf_counter_ns", "time.monotonic", "time.process_time"]
)
def test_rl003_quiet_on_duration_timers(harness, call):
    violations = harness.lint(
        "analysis/algorithm1.py",
        f"""
        import time

        def timed(solve):
            start = {call}()
            solve()
            return {call}() - start
        """,
        RL003,
    )
    assert violations == []


def test_rl003_quiet_on_explicit_numpy_generator_construction(harness):
    violations = harness.lint(
        "attacks/simulate.py",
        """
        import numpy as np

        def generator(seed):
            return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        """,
        RL003,
    )
    assert violations == []


def test_rl003_fires_on_fully_qualified_legacy_numpy_seed(harness):
    violations = harness.lint(
        "mdp/solver.py",
        """
        import numpy

        def reseed():
            numpy.random.seed(0)
        """,
        RL003,
    )
    assert ids(violations) == ["RL003"]
    assert "numpy.random.seed()" in violations[0].message


@pytest.mark.parametrize(
    "source, described",
    [
        ("for edge in {1, 2}:\n    yield edge", "a set literal"),
        ("for edge in {e for e in edges}:\n    yield edge", "a set comprehension"),
        ("for edge in frozenset(edges):\n    yield edge", "frozenset(...)"),
        ("yield {edge: 1 for edge in set(edges)}", "set(...)"),
        ("yield sum(edge for edge in set(edges))", "set(...)"),
    ],
    ids=["for-set-literal", "for-set-comprehension", "for-frozenset", "dict-comp", "genexp"],
)
def test_rl003_fires_on_each_set_iteration_form(harness, source, described):
    body = "\n".join("    " + line for line in source.splitlines())
    violations = harness.lint("attacks/structure.py", f"def build(edges):\n{body}\n", RL003)
    assert ids(violations) == ["RL003"]
    assert f"iterating {described}" in violations[0].message


# --------------------------------------------------------------------- RL007


def test_rl007_fires_on_direct_assembly(harness):
    violations = harness.lint(
        "core/custom_backend.py",
        """
        from repro.core.engine import assemble_sweep_result

        def finish(config, outcomes, report):
            return assemble_sweep_result(config, outcomes, report, description="x")
        """,
        RL007,
    )
    assert ids(violations) == ["RL007"]
    assert "MergeSink.assemble" in violations[0].message
    assert violations[0].fix_hint


def test_rl007_fires_on_side_channel_journal_append(harness):
    violations = harness.lint(
        "core/custom_backend.py",
        """
        def merge(self, outcome):
            self.journal.record(outcome)
        """,
        RL007,
    )
    assert ids(violations) == ["RL007"]
    assert "journal" in violations[0].message


def test_rl007_fires_on_ad_hoc_metadata_counters(harness):
    violations = harness.lint(
        "core/custom_backend.py",
        """
        def attach(result, stats):
            result.metadata["fabric"] = stats
            result.metadata.update(stats)
        """,
        RL007,
    )
    assert ids(violations) == ["RL007", "RL007"]
    assert all("execute_sweep" in v.message for v in violations)


def test_rl007_quiet_inside_the_execution_plane(harness):
    violations = harness.lint(
        "core/execution.py",
        """
        def assemble(self, result, journal, outcome):
            journal.record(outcome)
            result.metadata["journal"] = {"recorded": journal.recorded}
        """,
        RL007,
    )
    assert violations == []


def test_rl007_fires_inside_the_assembler(harness):
    # The assembler gets no exemption: it builds the result, execute_sweep
    # attaches metadata -- also through a helper nested in the assembler.
    violations = harness.lint(
        "core/engine.py",
        """
        def assemble_sweep_result(config, outcomes, report, description):
            result = build(config, outcomes, description)
            result.metadata["summary"] = {"points": 0}

            def note(key, value):
                result.metadata[key] = value

            note("extra", 1)
            return result
        """,
        RL007,
    )
    assert ids(violations) == ["RL007", "RL007"]


def test_rl007_quiet_on_non_journal_record_calls(harness):
    # Any object may have a record() method -- only the journal's counts.
    violations = harness.lint(
        "analysis/algorithm1.py",
        """
        def solve(scheduler, probes, elapsed):
            scheduler.record(probes, elapsed)
        """,
        RL007,
    )
    assert violations == []


def test_rl007_fires_on_augmented_metadata_counter(harness):
    violations = harness.lint(
        "core/engine.py",
        """
        def bump(result):
            result.metadata["retries"] += 1
        """,
        RL007,
    )
    assert ids(violations) == ["RL007"]
    assert "result.metadata" in violations[0].message


def test_rl007_fires_on_module_qualified_assembly(harness):
    violations = harness.lint(
        "core/sweep.py",
        """
        from repro.core import engine

        def finish(config, outcomes, report):
            return engine.assemble_sweep_result(config, outcomes, report, description="x")
        """,
        RL007,
    )
    assert ids(violations) == ["RL007"]


def test_rl007_fires_on_private_journal_attribute(harness):
    violations = harness.lint(
        "core/sweep.py",
        """
        class Runner:
            def merge(self, outcome):
                self._journal.record(outcome)
        """,
        RL007,
    )
    assert ids(violations) == ["RL007"]
    assert "self._journal.record" in violations[0].message


def test_rl007_quiet_on_other_dicts(harness):
    violations = harness.lint(
        "core/reporting.py",
        """
        def row(point, extra):
            fields = point.to_row()
            fields["series"] = point.series
            fields.update(extra)
            return fields
        """,
        RL007,
    )
    assert violations == []


# ------------------------------------------------------------------ registry


def test_all_rules_have_unique_ids_and_metadata():
    seen = set()
    for rule in ALL_RULES:
        assert rule.rule_id.startswith("RL") and rule.rule_id not in seen
        seen.add(rule.rule_id)
        assert rule.title and rule.invariant and rule.fix_hint
    assert sorted(seen) == [
        "RL002",
        "RL003",
        "RL007",
    ]
