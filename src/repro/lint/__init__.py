"""repro-lint: AST-based invariant checker for the package's own source.

The engine's correctness rests on cross-cutting invariants that no single
test file owns -- workers must never rebuild skeletons, certified-bound
kernels must stay bit-for-bit deterministic, and every outcome must merge
through one pipeline.  ``repro lint`` codifies those invariants as static
rules over the package's abstract syntax trees, so a tool enforces them on
every run:

========  ==============================================================
RL002     fork safety: no unguarded module-global mutation on worker
          call paths, no bare ``lock.acquire()`` statements.
RL003     determinism: no unseeded RNGs, wall-clock reads or set-order
          iteration in the certified solver paths (``attacks/``,
          ``mdp/``, ``analysis/``).
RL007     merge pipeline: only ``core/execution.py`` journals outcomes,
          mutates sweep-result metadata or assembles the result.
========  ==============================================================

RL001 (shared-memory lifecycle), RL004 (wire-schema agreement) and RL006
(fault-site registration) are retired: the package no longer uses shared
memory, a network fabric or fault injection.  RL005 (scenario contract) is
retired too: the registry tests check that every built-in scenario defines
the engine hooks in its own body.

Run it as ``repro lint [PATHS]`` or ``python -m repro.lint [PATHS]``; with no
paths it lints the installed ``repro`` package itself.  A violation can be
waived on one line with ``# repro-lint: disable=RL002`` (comma-separated ids,
or ``all``) and for a whole file with ``# repro-lint: disable-file=RL003``.
The exit status is 0 iff no violations were reported.
"""

from .engine import (
    LintViolation,
    ModuleInfo,
    Rule,
    lint_paths,
    main,
    render_json,
    render_text,
)
from .rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "LintViolation",
    "ModuleInfo",
    "Rule",
    "lint_paths",
    "main",
    "render_json",
    "render_text",
]
