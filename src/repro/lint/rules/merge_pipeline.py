"""RL007: point-outcome merging flows through the execution plane's MergeSink.

The execution plane (:mod:`repro.core.execution`) owns the single merge
pipeline of every sweep, inline or pooled: the
:class:`~repro.core.execution.MergeSink` is the one place that appends
outcomes to the durable journal, and ``execute_sweep`` the one place that
attaches the journal block of ``SweepResult.metadata`` and has the sink call
the assembler.  That is what makes serial and pool sweeps bit-for-bit
identical -- and what keeps the crash-safety story auditable: a point is
journaled exactly when the sink merged it, never elsewhere.

Three drift modes would quietly fork the pipeline:

* **Direct assembly** -- code calling ``assemble_sweep_result`` itself would
  bypass the sink's merge (synthesized failures) and resume filtering.
* **Side-channel journaling** -- ``journal.record(...)`` outside the sink
  desynchronises the journal from the merged outcome map, so a resumed sweep
  replays points the merge never saw (or misses points it did).
* **Ad-hoc metadata counters** -- mutating ``result.metadata[...]`` outside
  the plane forks the journal accounting that the conformance suite
  asserts on.

This rule pins all three to ``core/execution.py`` (plus the body of the
assembler itself, which builds the recovery summary it owns).  The run loop
hands each unit's outcomes to ``MergeSink.accept`` and each crashed unit to
``MergeSink.synthesize_missing``; nothing else merges.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..engine import LintViolation, ModuleInfo, Rule, dotted_name

#: Modules that *are* the merge pipeline: the sink and the run loop.
PIPELINE_MODULES: Tuple[str, ...] = ("core/execution.py",)

#: Functions whose bodies are part of the pipeline wherever they live
#: (the assembler builds its own recovery metadata).
PIPELINE_FUNCTIONS: Tuple[str, ...] = ("assemble_sweep_result",)


def _pipeline_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """Line spans of :data:`PIPELINE_FUNCTIONS` definitions in ``tree``."""
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in PIPELINE_FUNCTIONS:
                spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


class MergePipelineRule(Rule):
    """Outcome merging, journaling and result metadata stay in MergeSink."""

    rule_id = "RL007"
    title = "merge pipeline: outcomes flow through core/execution.MergeSink"
    invariant = (
        "only core/execution.py (and assemble_sweep_result itself) appends to "
        "a sweep journal, mutates SweepResult.metadata or calls the assembler"
    )
    fix_hint = (
        "return outcomes to execute_sweep and let it feed them to the "
        "MergeSink (accept / synthesize_missing)"
    )
    scopes = None  # the whole package: a forked pipeline may hide anywhere

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        """Yield a violation per merge-pipeline bypass outside the plane."""
        if module.relpath in PIPELINE_MODULES:
            return
        spans = _pipeline_spans(module.tree)

        def in_pipeline(node: ast.AST) -> bool:
            line = getattr(node, "lineno", 0)
            return any(start <= line <= end for start, end in spans)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if not name or in_pipeline(node):
                    continue
                parts = name.split(".")
                if parts[-1] == "assemble_sweep_result":
                    yield self.violation(
                        module,
                        node,
                        "assemble_sweep_result called outside the execution "
                        "plane; assembly must run once, in MergeSink.assemble, "
                        "after every unit's outcomes have merged",
                    )
                elif (
                    parts[-1] == "record"
                    and len(parts) > 1
                    and "journal" in parts[-2].lower()
                ):
                    yield self.violation(
                        module,
                        node,
                        f"journal append {name!r} outside the execution plane; "
                        "only MergeSink.accept journals outcomes, "
                        "keeping the journal in lockstep with the merge",
                    )
                elif (
                    len(parts) >= 2
                    and parts[-1] == "update"
                    and parts[-2] == "metadata"
                ):
                    yield self.violation(
                        module,
                        node,
                        f"sweep metadata mutated via {name!r} outside the "
                        "execution plane; only execute_sweep attaches sweep "
                        "metadata",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                if in_pipeline(node):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    name = dotted_name(target.value)
                    if name and name.split(".")[-1] == "metadata":
                        yield self.violation(
                            module,
                            node,
                            f"sweep metadata key assigned on {name!r} outside "
                            "the execution plane; only execute_sweep attaches "
                            "sweep metadata",
                        )


__all__ = ["MergePipelineRule", "PIPELINE_FUNCTIONS", "PIPELINE_MODULES"]
