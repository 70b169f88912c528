"""Scenario ablation: skeleton-build and refill costs per registered scenario.

The attack registry promises that every scenario rides the same
explore-once/refill-per-point machinery.  This benchmark times both halves --
the breadth-first ``explore`` and the vectorised ``instantiate`` refill -- for
each built-in scenario and persists the comparison to
``results/scenario_ablation.csv``, so a regression in either scenario's
structure path (or a new scenario whose refill is accidentally quadratic)
shows up as a row-level diff.
"""

from __future__ import annotations

import time

import pytest

from conftest import smoke_mode
from repro import AttackParams, ProtocolParams
from repro.attacks.registry import SupportSignature, get_attack, scenario_id_for
from repro.core.reporting import write_csv

PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)


def _grid() -> list[AttackParams]:
    selfish = [AttackParams(depth=1, forks=1, max_fork_length=4)]
    actions = [AttackParams(depth=1, forks=1, max_fork_length=8, scenario="sm-actions")]
    if not smoke_mode():
        selfish.append(AttackParams(depth=2, forks=1, max_fork_length=4))
        actions.append(
            AttackParams(
                depth=1,
                forks=1,
                max_fork_length=12,
                scenario="sm-actions",
                variant="overpaying",
            )
        )
    return selfish + actions


_ROWS: list[dict] = []


@pytest.mark.parametrize(
    "attack",
    _grid(),
    ids=lambda a: f"{a.scenario}_d{a.depth}_f{a.forks}_l{a.max_fork_length}"
    + (f"_{a.variant}" if a.variant else ""),
)
def test_scenario_structure_costs(benchmark, attack):
    """Time one scenario's exploration, then its per-point probability refill."""
    scenario = get_attack(attack.scenario)
    signature = SupportSignature.of(PROTOCOL)
    structure = benchmark.pedantic(
        scenario.explore, args=(attack, signature), rounds=1, iterations=1
    )
    refill_start = time.perf_counter()
    instantiated = structure.instantiate(PROTOCOL)
    refill_seconds = time.perf_counter() - refill_start
    _ROWS.append(
        {
            "scenario": scenario_id_for(attack.scenario),
            "series": scenario.series_name(attack),
            "states": instantiated.num_states,
            "transitions": int(instantiated.trans_prob.size),
            "explore_seconds": benchmark.stats.stats.mean,
            "refill_seconds": refill_seconds,
        }
    )
    assert instantiated.num_states > 0


def test_scenario_ablation_report(results_dir):
    """Persist the cross-scenario comparison table."""
    assert _ROWS
    write_csv(
        _ROWS,
        results_dir / "scenario_ablation.csv",
        columns=[
            "scenario",
            "series",
            "states",
            "transitions",
            "explore_seconds",
            "refill_seconds",
        ],
    )
    assert {row["scenario"].split("@")[0] for row in _ROWS} == {
        "selfish-forks",
        "sm-actions",
    }
