"""``import repro`` stays off the modules only tests and validation need.

networkx (graph reachability) and ``scipy.optimize`` (the LP cross-check) are
imported inside the functions that use them; no certified path calls those, so
a fresh interpreter importing the package must not load either.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY = ("networkx", "scipy.optimize")


def test_import_repro_leaves_lazy_modules_unloaded():
    probe = (
        "import json, sys\n"
        "import repro\n"
        f"print(json.dumps([name for name in {LAZY!r} if name in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(proc.stdout) == []

