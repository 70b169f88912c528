"""Fixture-driven positive/negative cases for every lint rule.

Each rule gets at least one fixture proving it *fires* on violating code and
one proving it stays *quiet* on compliant code; scoping tests prove rules do
not leak outside their path scopes.
"""

from __future__ import annotations

from repro.lint.rules import ALL_RULES
from repro.lint.rules.async_safety import ForkAsyncSafetyRule
from repro.lint.rules.determinism import CertifiedPathDeterminismRule
from repro.lint.rules.fault_sites import FaultSiteRegistrationRule
from repro.lint.rules.merge_pipeline import MergePipelineRule
from repro.lint.rules.scenario_contract import REQUIRED_HOOKS, ScenarioContractRule
from repro.lint.rules.wire_schema import WireSchemaAgreementRule

RL002 = [ForkAsyncSafetyRule()]
RL003 = [CertifiedPathDeterminismRule()]
RL004 = [WireSchemaAgreementRule()]
RL005 = [ScenarioContractRule()]
RL006 = [FaultSiteRegistrationRule()]
RL007 = [MergePipelineRule()]


def ids(violations):
    return [v.rule_id for v in violations]


# --------------------------------------------------------------------- RL002


def test_rl002_fires_on_blocking_call_in_coroutine(harness):
    violations = harness.lint(
        "core/distributed.py",
        """
        import time

        async def heartbeat():
            time.sleep(1.0)
        """,
        RL002,
    )
    assert ids(violations) == ["RL002"]
    assert "blocking call time.sleep()" in violations[0].message


def test_rl002_quiet_on_async_sleep_and_nested_sync_def(harness):
    violations = harness.lint(
        "core/distributed.py",
        """
        import asyncio
        import time

        async def heartbeat():
            await asyncio.sleep(1.0)

            def measure():
                # Runs wherever it is called from, not on the event loop.
                time.sleep(0.01)

            return measure
        """,
        RL002,
    )
    assert violations == []


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


# --------------------------------------------------------------------- RL004


def test_rl004_fires_on_consumed_key_never_produced(harness):
    violations = harness.lint(
        "core/distributed.py",
        """
        def send(writer):
            writer.write({"type": "hello", "capacity": 4})

        def receive(header):
            kind = header.get("type")
            if kind == "hello":
                return header.get("capacityy")
            return None
        """,
        RL004,
    )
    assert ids(violations) == ["RL004"]
    assert "capacityy" in violations[0].message


def test_rl004_fires_on_dispatch_type_never_produced(harness):
    violations = harness.lint(
        "core/distributed.py",
        """
        def send(writer):
            writer.write({"type": "hello"})

        def receive(header):
            kind = header.get("type")
            if kind == "hello":
                return 1
            if kind == "wellcome":
                return 2
            return 0
        """,
        RL004,
    )
    messages = " ".join(v.message for v in violations)
    assert "'wellcome' is dispatched on but never produced" in messages


def test_rl004_fires_on_produced_type_never_dispatched(harness):
    violations = harness.lint(
        "core/distributed.py",
        """
        def send(writer):
            writer.write({"type": "hello"})
            writer.write({"type": "goodbye"})

        def receive(header):
            kind = header.get("type")
            if kind == "hello":
                return 1
            return 0
        """,
        RL004,
    )
    messages = " ".join(v.message for v in violations)
    assert "'goodbye' is produced but never dispatched on" in messages


def test_rl004_fires_on_one_sided_protocol_version(harness):
    violations = harness.lint(
        "core/distributed.py",
        """
        PROTOCOL_VERSION = 3

        def send(writer):
            writer.write({"type": "hello", "protocol": PROTOCOL_VERSION})

        def receive(header):
            kind = header.get("type")
            if kind == "hello":
                return header.get("protocol")
            return None
        """,
        RL004,
    )
    messages = " ".join(v.message for v in violations)
    assert "PROTOCOL_VERSION is sent but never checked" in messages


def test_rl004_quiet_on_agreeing_schema(harness):
    violations = harness.lint(
        "core/distributed.py",
        """
        PROTOCOL_VERSION = 3

        def send(writer):
            writer.write({"type": "hello", "protocol": PROTOCOL_VERSION})
            writer.write({"type": "work", "task": 1})

        def receive(header):
            kind = header.get("type")
            if kind == "hello":
                if header.get("protocol") != PROTOCOL_VERSION:
                    raise ValueError("protocol mismatch")
                return None
            if kind == "work":
                return header["task"]
            return None
        """,
        RL004,
    )
    assert violations == []


def test_rl004_scoped_to_distributed_module(harness):
    # The same drifted fixture elsewhere in core/ is out of scope.
    violations = harness.lint(
        "core/engine.py",
        """
        def send(writer):
            writer.write({"type": "hello"})

        def receive(header):
            return header.get("unproduced")
        """,
        RL004,
    )
    assert violations == []


# --------------------------------------------------------------------- RL005


def _scenario_source(*, buffer_keys: bool, hooks) -> str:
    """A ``@register_attack`` class fixture with the chosen contract pieces."""
    lines = [
        "from repro.attacks.registry import register_attack",
        "",
        "",
        '@register_attack("custom")',
        "class CustomStructure:",
    ]
    if buffer_keys:
        lines.append('    BUFFER_KEYS = ("states",)')
    for hook in hooks:
        lines.extend(["", f"    def {hook}(self):", "        return None"])
    if not buffer_keys and not hooks:
        lines.append("    pass")
    return "\n".join(lines) + "\n"


def test_rl005_fires_on_missing_buffer_keys(harness):
    violations = harness.lint(
        "attacks/custom.py",
        _scenario_source(buffer_keys=False, hooks=REQUIRED_HOOKS),
        RL005,
    )
    assert ids(violations) == ["RL005"]
    assert "BUFFER_KEYS" in violations[0].message


def test_rl005_fires_on_missing_hooks(harness):
    violations = harness.lint(
        "attacks/custom.py",
        _scenario_source(buffer_keys=True, hooks=["explore"]),
        RL005,
    )
    assert ids(violations) == ["RL005"]
    missing = set(REQUIRED_HOOKS) - {"explore"}
    for hook in missing:
        assert hook in violations[0].message


def test_rl005_quiet_on_complete_contract(harness):
    violations = harness.lint(
        "attacks/custom.py",
        _scenario_source(buffer_keys=True, hooks=REQUIRED_HOOKS),
        RL005,
    )
    assert violations == []


def test_rl005_ignores_unregistered_classes(harness):
    violations = harness.lint(
        "attacks/helpers.py",
        """
        class NotAScenario:
            pass
        """,
        RL005,
    )
    assert violations == []


# --------------------------------------------------------------------- RL006


def test_rl006_fires_on_unregistered_site(harness):
    violations = harness.lint(
        "core/engine.py",
        """
        from repro.core.faults import maybe_fail

        def run():
            if maybe_fail("engine.totally_new_site"):
                raise RuntimeError("boom")
        """,
        RL006,
    )
    assert ids(violations) == ["RL006"]
    assert "engine.totally_new_site" in violations[0].message
    assert "FAULT_SITES" in violations[0].message


def test_rl006_fires_on_dynamic_site_name(harness):
    violations = harness.lint(
        "core/distributed.py",
        """
        from repro.core.faults import maybe_fail

        def run(site):
            return maybe_fail(site)
        """,
        RL006,
    )
    assert ids(violations) == ["RL006"]
    assert "string literal" in violations[0].message


def test_rl006_quiet_on_registered_literal_sites(harness):
    violations = harness.lint(
        "core/engine.py",
        """
        from repro.core import faults
        from repro.core.faults import maybe_fail

        def run():
            if maybe_fail("engine.point_transient"):
                raise RuntimeError("boom")
            if faults.maybe_fail("distributed.result_drop"):
                return None
        """,
        RL006,
    )
    assert violations == []


def test_rl006_applies_outside_core(harness):
    # No path scope: a stray maybe_fail anywhere in the package is checked.
    violations = harness.lint(
        "attacks/custom.py",
        """
        from repro.core.faults import maybe_fail

        def run():
            return maybe_fail("attacks.unheard_of")
        """,
        RL006,
    )
    assert ids(violations) == ["RL006"]


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
    assert all("ExecutionBackend.metadata" in v.message for v in violations)


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


def test_rl007_quiet_inside_the_assembler_itself(harness):
    # assemble_sweep_result owns the recovery summary it builds.
    violations = harness.lint(
        "core/engine.py",
        """
        def assemble_sweep_result(config, outcomes, report, description):
            result = build(config, outcomes, description)
            result.metadata["recovery"] = {"point_retries": 0}
            return result
        """,
        RL007,
    )
    assert violations == []


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
        "RL004",
        "RL005",
        "RL006",
        "RL007",
    ]
