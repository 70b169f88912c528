"""Layer spans recorded from outside the package, by module-attribute wrappers.

:class:`SpanRecorder` wraps the public function at each layer boundary of
``repro`` (and scipy's sparse direct solve) for the duration of a traced pass,
and restores every attribute it replaced on :meth:`SpanRecorder.restore`.
Nothing under ``src/`` knows about it.

A span is keyed ``"<layer>.<name>"``; the layer is one of the package modules
``attacks``, ``analysis``, ``mdp`` and ``core``.  For every key the recorder
keeps the call count, the inclusive time and the self time (inclusive minus the
time covered by nested spans), so the self times of the benchmark process plus
the unattributed remainder add up to its wall clock.

Pool workers forked from a traced process inherit the wrappers.  Each worker
starts from empty totals (an ``os.register_at_fork`` hook) and, whenever its
span stack empties, rewrites its totals to ``<spill_dir>/<pid>-<token>.json``;
the traced process merges those files with :meth:`SpanRecorder.collect_workers`.
The recorder is single-threaded: every wrapped call of this benchmark happens
on the calling thread of its process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Marker attribute carried by every installed wrapper.
MARKER = "__perfbench_span__"

#: ``(span key, owning module, attribute path)`` of every wrapped boundary.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("attacks.explore", "repro.attacks.structure", "build_model_structure"),
    ("attacks.refill", "repro.attacks.registry", "ScenarioStructure.instantiate"),
    ("attacks.baseline", "repro.attacks.honest", "honest_errev"),
    ("attacks.baseline", "repro.attacks.single_tree", "single_tree_errev"),
    ("analysis.search", "repro.analysis.algorithm1", "formal_analysis"),
    ("analysis.strategy_eval", "repro.analysis.errev", "evaluate_strategy_errev"),
    ("mdp.solve", "repro.mdp.mean_payoff", "solve_mean_payoff"),
    ("mdp.solve", "repro.mdp.mean_payoff", "solve_mean_payoff_batch"),
    ("mdp.chain_build", "repro.mdp.markov_chain", "induced_markov_chain"),
    ("mdp.poisson", "repro.mdp.markov_chain", "MarkovChain.gain_and_bias"),
    ("mdp.stationary", "repro.mdp.markov_chain", "MarkovChain.stationary_distribution"),
    ("mdp.lu", "scipy.sparse.linalg", "spsolve"),
    ("core.sweep", "repro.core.sweep", "run_sweep"),
    ("core.plan", "repro.core.execution", "SweepPlan.build"),
    ("core.assemble", "repro.core.execution", "MergeSink.assemble"),
    ("core.journal_record", "repro.core.journal", "SweepJournal.record"),
)

LAYERS = ("attacks", "analysis", "mdp", "core")

#: Extra key: sparse direct solves nested inside a mean-payoff solve.
LU_IN_SOLVE = "mdp.lu_in_solve"


def _empty_totals() -> Dict[str, Dict[str, float]]:
    return {"count": {}, "inclusive": {}, "self": {}}


def merge_totals(into: Dict[str, Dict[str, float]], other: Dict[str, Dict[str, float]]) -> None:
    """Add the per-key totals of ``other`` into ``into``."""
    for kind, values in other.items():
        bucket = into.setdefault(kind, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0.0) + value


def _repro_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def installed_wrappers() -> List[str]:
    """Names of every wrapper currently bound at a target or in a ``repro`` module."""
    found = []
    for module in _repro_modules() + [sys.modules.get("scipy.sparse.linalg")]:
        if module is None:
            continue
        for name, value in list(vars(module).items()):
            if getattr(value, MARKER, None) is not None:
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    func = getattr(raw, "__func__", raw)
                    if getattr(func, MARKER, None) is not None:
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))


class SpanRecorder:
    """Install layer wrappers, record span totals, restore on exit."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.owner_pid = os.getpid()
        self.totals = _empty_totals()
        self._stack: List[List[object]] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._spill_name: Optional[str] = None
        self._active = False

    # ---------------------------------------------------------------- recording

    def _enter(self, key: str) -> None:
        self._stack.append([key, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        key, start, nested = self._stack.pop()
        duration = time.perf_counter() - start
        totals = self.totals
        totals["count"][key] = totals["count"].get(key, 0.0) + 1
        totals["inclusive"][key] = totals["inclusive"].get(key, 0.0) + duration
        totals["self"][key] = totals["self"].get(key, 0.0) + duration - nested
        if key == "mdp.lu" and any(frame[0] == "mdp.solve" for frame in self._stack):
            totals["inclusive"][LU_IN_SOLVE] = totals["inclusive"].get(LU_IN_SOLVE, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        elif self._spill_name is not None:
            self._spill()

    def _wrap(self, func: Callable, key: str) -> Callable:
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            recorder._enter(key)
            try:
                return func(*args, **kwargs)
            finally:
                recorder._exit()

        setattr(wrapper, MARKER, key)
        return wrapper

    def reset(self) -> None:
        """Drop every recorded total (the span stack must be empty)."""
        self.totals = _empty_totals()

    # ------------------------------------------------------------ pool workers

    def _after_fork_in_child(self) -> None:
        if not self._active:
            return
        self._stack.clear()
        self.totals = _empty_totals()
        self._spill_name = f"{os.getpid()}-{uuid.uuid4().hex}.json"

    def _spill(self) -> None:
        path = self.spill_dir / self._spill_name
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.totals))
        os.replace(tmp, path)

    def collect_workers(self) -> Dict[str, Dict[str, float]]:
        """Merge and delete the totals spilled by finished pool workers."""
        merged = _empty_totals()
        for path in sorted(self.spill_dir.glob("*.json")):
            merge_totals(merged, json.loads(path.read_text()))
            path.unlink()
        return merged

    # ------------------------------------------------------- install / restore

    def install(self) -> None:
        """Wrap every target and every ``repro`` module alias of a target function."""
        if self._restore:
            raise RuntimeError("span wrappers are already installed")
        for module_name in {module for _, module, _ in TARGETS}:
            importlib.import_module(module_name)
        aliases = _repro_modules()
        for key, module_name, path in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, key))
                else:
                    replacement = self._wrap(raw, key)
                self._replace(owner, attr, raw, replacement)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, key)
            for holder in [module] + [m for m in aliases if m is not module]:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, name, original, wrapper)
        self._active = True
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    def _replace(self, owner: object, name: str, original: object, replacement: object) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        """Put back every replaced attribute, newest first (idempotent)."""
        self._active = False
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
