"""Scaling of the MDP construction and of single solver iterations.

Not a table or figure of the paper per se, but the quantity behind Table 1's
runtime blow-up: the reachable state space (and hence every downstream cost)
grows exponentially with d and f and polynomially with l.  This benchmark
measures construction time and state counts across a small grid and checks the
growth direction.
"""

from __future__ import annotations

import pytest

from repro import AttackParams, ProtocolParams
from repro.attacks import SupportSignature, build_model_structure
from repro.attacks.selfish_forks import estimate_state_space_size
from repro.chain import SelfishMiningSimulator
from repro.attacks.policies import GreedyLeadPolicy
from repro.core.reporting import write_csv

PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)

GRID = [
    AttackParams(depth=1, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=1, max_fork_length=2),
    AttackParams(depth=2, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=2, max_fork_length=4),
]

_ROWS: list[dict] = []


@pytest.mark.parametrize(
    "attack", GRID, ids=lambda a: f"d{a.depth}_f{a.forks}_l{a.max_fork_length}"
)
def test_model_construction_scaling(benchmark, attack):
    """Time the skeleton exploration every sweep runs, for one configuration.

    ``build_model_structure`` is called directly rather than through the
    structure cache: earlier benchmarks in the session have already populated
    the cache, and a cache hit would measure a dict lookup instead of the
    exploration this benchmark is about.
    """
    structure = benchmark.pedantic(
        build_model_structure,
        args=(attack, SupportSignature.of(PROTOCOL)),
        rounds=1,
        iterations=1,
    )
    _ROWS.append(
        {
            "d": attack.depth,
            "f": attack.forks,
            "l": attack.max_fork_length,
            "states": structure.num_states,
            "transitions": structure.num_transitions,
            "bound": estimate_state_space_size(attack),
            "seconds": benchmark.stats.stats.mean,
        }
    )
    assert structure.num_states <= estimate_state_space_size(attack)


def test_model_construction_report(benchmark, results_dir):
    """Persist the scaling table and check monotone growth in the state count."""
    assert _ROWS
    benchmark.pedantic(
        write_csv,
        args=(_ROWS, results_dir / "model_construction_scaling.csv"),
        kwargs={"columns": ["d", "f", "l", "states", "transitions", "bound", "seconds"]},
        rounds=1,
        iterations=1,
    )
    states = [row["states"] for row in _ROWS]
    assert states == sorted(states)


def test_simulator_throughput(benchmark):
    """Steps-per-second of the discrete-time chain simulator (greedy policy)."""
    simulator = SelfishMiningSimulator(
        PROTOCOL, AttackParams(depth=2, forks=1, max_fork_length=4), GreedyLeadPolicy(), seed=0
    )
    result = benchmark.pedantic(simulator.run, args=(20_000,), rounds=1, iterations=1)
    assert result.steps == 20_000
