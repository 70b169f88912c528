"""The layered single-tree evaluation equals the recursive oracle exactly.

:func:`repro.attacks.single_tree.single_tree_errev` evaluates a cached round
graph layer by layer in numpy; :func:`single_tree_oracle.oracle_errev` runs
the per-state memoised recursion it replaced.  Their values must be equal as
floats (``==``, not ``approx``), because the benchmark reference pins every
single-tree point bit for bit.  The larger trees ``(5,5)`` and ``(6,3)`` cost
the oracle about 40 s and run with ``REPRO_FULL=1``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from single_tree_oracle import oracle_errev, round_expectations
from repro.attacks import single_tree_errev, single_tree_errev_grid, single_tree_errev_table
from repro.attacks.single_tree import SingleTreeParams, _round_graph
from repro.config import ProtocolParams
from repro.exceptions import ConfigurationError

FULL = os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
FULL_ONLY = pytest.mark.skipif(not FULL, reason="the oracle takes ~40 s; set REPRO_FULL=1")

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``(max_depth, max_width)``; ``(4, 5)`` is the paper's (and the sweep's) default.
TREES = [
    pytest.param(depth, width, id=f"l{depth}f{width}", marks=[FULL_ONLY] if large else [])
    for depth, width, large in [
        (4, 5, False),
        (4, 1, False),
        (6, 1, False),
        (3, 3, False),
        (5, 2, False),
        (1, 1, False),
        (5, 5, True),
        (6, 3, True),
    ]
]

#: The Figure 2 grid's gammas, and every p a benchmark seed can draw for it:
#: six steps of 0.05, shifted down by 0 to 4 hundredths.
FIG2_GAMMAS = (0.0, 0.5, 1.0)
FIG2_PS = sorted(
    {round(0.05 * step - 0.01 * offset, 2) for step in range(1, 7) for offset in range(5)}
)

#: 200 seeded ``(p, gamma)`` pairs drawn uniformly from the unit square.
_RNG = random.Random(20240617)
RANDOM_POINTS = [(_RNG.random(), _RNG.random()) for _ in range(200)]

EXTREME_POINTS = [(p, gamma) for p in (1e-9, 1.0 - 1e-9) for gamma in FIG2_GAMMAS]


def mismatches(points, params):
    """Every ``(p, gamma, layered, oracle)`` whose two values differ."""
    found = []
    for p, gamma in points:
        protocol = ProtocolParams(p=p, gamma=gamma)
        layered, oracle = single_tree_errev(protocol, params), oracle_errev(protocol, params)
        if layered != oracle:
            found.append((p, gamma, layered, oracle))
    return found


@pytest.mark.parametrize("depth,width", TREES)
class TestAgainstOracle:
    def test_figure2_grid(self, depth, width):
        points = [(p, gamma) for p in FIG2_PS for gamma in FIG2_GAMMAS]
        assert len(FIG2_PS) == 30
        assert mismatches(points, SingleTreeParams(depth, width)) == []

    def test_random_points(self, depth, width):
        assert mismatches(RANDOM_POINTS, SingleTreeParams(depth, width)) == []

    def test_extreme_p(self, depth, width):
        assert mismatches(EXTREME_POINTS, SingleTreeParams(depth, width)) == []

    def test_grid_form_equals_every_point(self, depth, width):
        """One evaluation per gamma gives each p the value it gets alone, bit for bit."""
        params = SingleTreeParams(depth, width)
        ps = [0.0, *FIG2_PS, 1e-9, 1.0 - 1e-9, 1.0]
        for gamma in FIG2_GAMMAS:
            alone = [single_tree_errev(ProtocolParams(p=p, gamma=gamma), params) for p in ps]
            assert single_tree_errev_grid(gamma, ps, params) == alone

    def test_graph_has_the_oracle_states(self, depth, width):
        memo = {}
        params = SingleTreeParams(depth, width)
        round_expectations(ProtocolParams(p=0.3, gamma=0.5), params, memo)
        assert _round_graph(depth, width).num_states == len(memo)


@pytest.mark.parametrize("p_values, gamma", [((0.1, 1.5, 0.3), 0.5), ((0.1,), -0.5)])
def test_grid_form_rejects_an_invalid_parameter(p_values, gamma):
    with pytest.raises(ConfigurationError):
        single_tree_errev_grid(gamma, p_values)


def test_grid_form_of_an_empty_or_boundary_grid():
    assert single_tree_errev_grid(0.5, ()) == []
    assert single_tree_errev_grid(0.5, (1.0, 0.0)) == [1.0, 0.0]
    assert single_tree_errev_table((0.0, 1.0), (1.0, 0.0)) == [[1.0, 0.0], [1.0, 0.0]]
    assert single_tree_errev_table((), (0.1, 0.2)) == []


@pytest.mark.parametrize(
    "gammas, p_values", [((0.5, 1.5), (0.1, 0.3)), ((0.0, 0.5), (0.1, 1.5, 0.3))]
)
def test_table_form_rejects_an_invalid_parameter(gammas, p_values):
    with pytest.raises(ConfigurationError):
        single_tree_errev_table(gammas, p_values)


unit_values = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    gammas=st.lists(unit_values, min_size=1, max_size=4, unique=True),
    p_values=st.lists(unit_values, max_size=6, unique=True).map(lambda ps: [0.0, *ps]),
    tree=st.sampled_from([(4, 5), (3, 2), (2, 1)]),
)
def test_gamma_axis_equals_each_gamma_alone(gammas, p_values, tree):
    """One evaluation with a gamma axis gives every gamma the bits it gets alone."""
    params = SingleTreeParams(*tree)
    table = single_tree_errev_table(gammas, p_values, params)
    assert len(table) == len(gammas)
    for gamma, row in zip(gammas, table):
        alone = single_tree_errev_grid(gamma, p_values, params)
        assert np.array(row).tobytes() == np.array(alone).tobytes()


class TestRoundGraphCache:
    def test_default_tree_has_2156_states_in_23_layers(self):
        graph = _round_graph(4, 5)
        assert graph.num_states == 2156
        assert len(graph.layers) == 23

    def test_second_call_reuses_the_graph(self):
        params = SingleTreeParams(max_depth=3, max_width=2)
        protocol = ProtocolParams(p=0.3, gamma=0.5)
        single_tree_errev(protocol, params)
        before = _round_graph.cache_info()
        single_tree_errev(protocol, params)
        after = _round_graph.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        assert _round_graph(3, 2) is _round_graph(3, 2)

    def test_every_cached_array_is_read_only(self):
        graph = _round_graph(4, 5)
        arrays = [value for value in vars(graph).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 3
        assert all(array.flags.writeable is False for array in arrays)

    def test_import_does_not_build_a_graph(self):
        probe = (
            "import json\n"
            "import repro\n"
            "from repro.attacks.single_tree import _round_graph\n"
            "print(json.dumps(_round_graph.cache_info().currsize))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert json.loads(proc.stdout) == 0
