"""``import repro`` stays off the modules only tests and validation need.

``scipy.sparse.csgraph`` (graph reachability and the premise checks) and
``scipy.optimize`` (the LP cross-check) are imported inside the functions that
use them; no certified path calls those, so a fresh interpreter importing the
package must not load either.  networkx is no dependency at all: validation
and the premise checks run with it blocked.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = ("scipy.sparse.csgraph", "scipy.optimize")


def _run(probe: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def test_import_repro_leaves_lazy_modules_unloaded():
    probe = (
        "import json, sys\n"
        "import repro\n"
        f"print(json.dumps([name for name in {LAZY!r} if name in sys.modules]))\n"
    )
    assert json.loads(_run(probe)) == []


def test_premise_checks_run_without_networkx():
    probe = (
        "import json, sys\n"
        "sys.modules['networkx'] = None  # any import of it now raises ImportError\n"
        "from repro import AttackParams, ProtocolParams\n"
        "from repro.analysis import check_theorem_premises\n"
        "from repro.attacks import build_selfish_forks_mdp\n"
        "from repro.mdp import validate_mdp\n"
        "mdp = build_selfish_forks_mdp(\n"
        "    ProtocolParams(p=0.3, gamma=0.5), AttackParams(depth=1, forks=1)\n"
        ").mdp\n"
        "report = check_theorem_premises(mdp)\n"
        "print(json.dumps([validate_mdp(mdp).is_valid, report.all_hold, report.unichain]))\n"
    )
    assert json.loads(_run(probe)) == [True, True, True]
