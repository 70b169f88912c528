"""A sweep's fixed costs grow with its model sizes, never with its points.

Every Poisson factorization and stationary solve fills the calling thread's
CSC container of the system's size, and the single-tree baseline evaluates its
round graph once per sweep.  Once the per-process caches are warm (every
skeleton explored with its Poisson column order, and the round graph), a
serial sweep run in a fresh thread, which holds no container yet, must

- construct one ``scipy.sparse.csc_matrix`` per distinct system size: an
  ``n``-state model's stationary system is ``n x n`` and its Poisson system
  ``(n + 1) x (n + 1)``, so at most two per distinct model size;
- evaluate the round graph once;
- leave every container it handed to a solver without arrays whenever
  ``formal_analysis`` returns.

The counts are exact and repeat from run to run, and a second sweep in the
same thread constructs no container at all.  ``REPRO_FULL=1`` adds one
``d=3,f=2`` point (133k states, one probe, ~20 s) with its strategy evaluation off,
since its stationary solve does not finish.
"""

from __future__ import annotations

import importlib
import os
import threading
from collections import Counter

import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import AnalysisConfig, AttackParams, ProtocolParams, SweepConfig, run_sweep
from repro.attacks import get_model_structure, single_tree_errev_table
from repro.core.engine import DEFAULT_SINGLE_TREE
from repro.mdp import MarkovChain

ENGINE = importlib.import_module("repro.core.engine")
SINGLE_TREE = importlib.import_module("repro.attacks.single_tree")

FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")


def small_grid() -> SweepConfig:
    """The grid of ``tests/core/test_engine.py::small_grid``: 12 attack points on 2 models."""
    return SweepConfig(
        p_values=(0.0, 0.15, 0.3),
        gammas=(0.0, 0.5),
        attack_configs=(
            AttackParams(depth=1, forks=1, max_fork_length=4),
            AttackParams(depth=2, forks=1, max_fork_length=4),
        ),
        analysis=AnalysisConfig(epsilon=1e-2),
    )


def d3f2_point() -> SweepConfig:
    return SweepConfig(
        p_values=(0.3,),
        gammas=(0.5,),
        attack_configs=(AttackParams(depth=3, forks=2, max_fork_length=4),),
        analysis=AnalysisConfig(epsilon=0.5, evaluate_strategy=False),
    )


CASES = [
    pytest.param(small_grid, id="small-grid"),
    pytest.param(
        d3f2_point,
        id="d3f2",
        marks=pytest.mark.skipif(not FULL, reason="133k-state model; set REPRO_FULL=1"),
    ),
]


def warm_sizes(config: SweepConfig) -> set:
    """Warm every per-process cache the sweep reads; return its model sizes.

    Explores each skeleton and computes its Poisson column order (which
    builds a ``csc_matrix`` of its own), and builds the round graph.
    """
    sizes = set()
    for gamma in config.gammas:
        for p in config.p_values:
            protocol = ProtocolParams(p=p, gamma=gamma)
            for attack in config.attack_configs:
                mdp = get_model_structure(attack, protocol).instantiate(protocol)
                MarkovChain(mdp, mdp.first_row_choice()).column_rank()
                sizes.add(mdp.num_states)
    single_tree_errev_table(config.gammas, config.p_values, DEFAULT_SINGLE_TREE)
    return sizes


def expected_counts(config: SweepConfig, sizes: set) -> dict:
    """The counts of a sweep in a fresh thread: one container per system size."""
    container_sizes = {n + 1 for n in sizes}
    if config.analysis.evaluate_strategy:
        container_sizes |= sizes
    points = len(config.gammas) * len(config.p_values) * len(config.attack_configs)
    return {"csc_matrix": len(container_sizes), "round_graph": 1, "points": points}


class FixedCosts:
    """Count containers, round-graph evaluations and solver hand-overs while installed."""

    def __init__(self, monkeypatch):
        self.counts = Counter()
        self.handed = {}
        init = sp.csc_matrix.__init__
        round_expectations = SINGLE_TREE._round_expectations
        splu, spsolve = spla.splu, spla.spsolve
        formal_analysis = ENGINE.formal_analysis

        def counting_init(matrix, *args, **kwargs):
            self.counts["csc_matrix"] += 1
            init(matrix, *args, **kwargs)

        def counting_round_expectations(*args):
            self.counts["round_graph"] += 1
            return round_expectations(*args)

        def recording(solver):
            def solve(matrix, *args, **kwargs):
                self.handed[id(matrix)] = matrix
                return solver(matrix, *args, **kwargs)

            return solve

        def checked_formal_analysis(*args, **kwargs):
            result = formal_analysis(*args, **kwargs)
            for container in self.handed.values():
                assert container.data.size == 0
                assert container.indices.size == container.indptr.size == 0
            self.counts["points"] += 1
            return result

        monkeypatch.setattr(sp.csc_matrix, "__init__", counting_init)
        monkeypatch.setattr(SINGLE_TREE, "_round_expectations", counting_round_expectations)
        monkeypatch.setattr(spla, "splu", recording(splu))
        monkeypatch.setattr(spla, "spsolve", recording(spsolve))
        monkeypatch.setattr(ENGINE, "formal_analysis", checked_formal_analysis)

    def sweeps_in_a_fresh_thread(self, config: SweepConfig, sweeps: int) -> list:
        """The counts of each of ``sweeps`` serial sweeps run one after another in a new thread."""
        counts, failures = [], []

        def run():
            for _ in range(sweeps):
                self.counts.clear()
                result = run_sweep(config)
                failures.extend(result.failures)
                counts.append(dict(self.counts))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert not failures
        assert len(counts) == sweeps
        return counts


@pytest.mark.parametrize("grid", CASES)
def test_a_sweep_constructs_one_container_per_system_size(grid, monkeypatch):
    config = grid()
    sizes = warm_sizes(config)
    costs = FixedCosts(monkeypatch)
    (counts,) = costs.sweeps_in_a_fresh_thread(config, sweeps=1)
    assert counts == expected_counts(config, sizes)
    # Bounded by the model sizes (two systems each), not by the points.
    assert counts["csc_matrix"] <= 2 * len(sizes)
    assert len(costs.handed) == counts["csc_matrix"]


def test_the_counts_repeat_and_a_thread_keeps_its_containers(monkeypatch):
    config = small_grid()
    expected = expected_counts(config, warm_sizes(config))
    costs = FixedCosts(monkeypatch)
    first, second = costs.sweeps_in_a_fresh_thread(config, sweeps=2)
    assert first == expected
    assert second == {"round_graph": 1, "points": expected["points"]}
    assert costs.sweeps_in_a_fresh_thread(config, sweeps=1) == [first]
