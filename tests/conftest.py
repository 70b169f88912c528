"""Shared fixtures for the test suite.

Model construction and formal analysis are the slowest operations, so the
commonly used models / results are built once per session and shared across
test modules.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installation, and
# importing the LP oracle (tests/mdp/lp_oracle.py), the cold bisection oracle
# (tests/analysis/cold_bisection.py) and the chain simulator
# (tests/chain/simulator_oracle.py) from every test directory.
_TESTS = Path(__file__).resolve().parent
for _path in (_TESTS.parent / "src", _TESTS / "mdp", _TESTS / "analysis", _TESTS / "chain"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro import AnalysisConfig, AttackParams, ProtocolParams  # noqa: E402
from repro.analysis import formal_analysis  # noqa: E402
from repro.attacks import build_selfish_forks_mdp  # noqa: E402


@pytest.fixture(scope="session")
def protocol_default() -> ProtocolParams:
    """The paper's headline parameter point: p = 0.3, gamma = 0.5."""
    return ProtocolParams(p=0.3, gamma=0.5)


@pytest.fixture(scope="session")
def attack_d1f1() -> AttackParams:
    """Smallest attack configuration (d = 1, f = 1, l = 4)."""
    return AttackParams(depth=1, forks=1, max_fork_length=4)


@pytest.fixture(scope="session")
def attack_d2f1() -> AttackParams:
    """The d = 2, f = 1, l = 4 configuration used throughout the tests."""
    return AttackParams(depth=2, forks=1, max_fork_length=4)


@pytest.fixture(scope="session")
def attack_d2f2() -> AttackParams:
    """The d = 2, f = 2, l = 4 configuration (largest default-tractable model)."""
    return AttackParams(depth=2, forks=2, max_fork_length=4)


@pytest.fixture(scope="session")
def model_d1f1(protocol_default, attack_d1f1):
    """Built MDP for d = 1, f = 1 at the default protocol point."""
    return build_selfish_forks_mdp(protocol_default, attack_d1f1)


@pytest.fixture(scope="session")
def model_d2f1(protocol_default, attack_d2f1):
    """Built MDP for d = 2, f = 1 at the default protocol point."""
    return build_selfish_forks_mdp(protocol_default, attack_d2f1)


@pytest.fixture(scope="session")
def model_d2f2(protocol_default, attack_d2f2):
    """Built MDP for d = 2, f = 2 at the default protocol point."""
    return build_selfish_forks_mdp(protocol_default, attack_d2f2)


@pytest.fixture(scope="session")
def analysis_d2f1(model_d2f1):
    """Formal analysis result for the d = 2, f = 1 model (epsilon = 1e-3)."""
    return formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-3))
