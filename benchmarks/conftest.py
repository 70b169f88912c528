"""Shared configuration of the benchmark harness.

Set the environment variable ``REPRO_FULL=1`` to run the paper's full parameter
grid (all attack configurations of Table 1 and the 0.01-step p-grid of
Figure 2).  The default configuration keeps every benchmark laptop-scale,
because the pure-Python solver cannot finish the largest Table 1 models within
a test run (see ``test_bench_table1_runtimes.py``).

Set ``REPRO_BENCH_SMOKE=1`` (used by the CI benchmark job) to shrink the grids
further so every perf path is exercised within a couple of minutes on a shared
runner; ``REPRO_FULL`` wins when both are set.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Directory where benchmark CSV outputs are written.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def full_mode() -> bool:
    """Whether the full (paper-sized) benchmark grid was requested."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")


def smoke_mode() -> bool:
    """Whether the reduced CI smoke grid was requested (``REPRO_FULL`` wins)."""
    if full_mode():
        return False
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0", "false", "False")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory for CSV outputs produced by the benchmarks."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def run_full_grid() -> bool:
    """Session-wide flag selecting the full paper grid."""
    return full_mode()
