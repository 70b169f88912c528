"""RL002: fork safety on the engine's concurrency paths.

The engine mixes two concurrency regimes -- forked or spawned worker pools
with module-global caches (:mod:`repro.core.engine`) and thread-shared
registries (:mod:`repro.attacks.registry`).  Two hazards recur at their
seams:

* **Unguarded module-global rebinding** -- worker initialisers and lazy
  caches rebind module globals; without a lock, two threads racing through
  the lazy path each build (and half-install) the value.
* **Bare ``lock.acquire()`` statements** -- an acquire without ``with``
  leaks the lock on any exception before the matching ``release``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..engine import LintViolation, ModuleInfo, Rule, dotted_name

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _with_mentions_lock(node: ast.With) -> bool:
    """Whether any context manager of ``node`` names something lock-like."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        name = dotted_name(expr)
        if name and "lock" in name.lower():
            return True
    return False


def _global_names(function: ast.AST) -> Set[str]:
    """Names declared ``global`` directly inside ``function`` (not nested defs)."""
    names: Set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTION_NODES):
                continue
            if isinstance(child, ast.Global):
                names.update(child.names)
            visit(child)

    visit(function)
    return names


def _assigned_names(node: ast.stmt) -> List[ast.Name]:
    """Plain-``Name`` targets rebound by an assignment statement."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    names: List[ast.Name] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(e for e in target.elts if isinstance(e, ast.Name))
    return names


class ForkSafetyRule(Rule):
    """Global rebinding stays lock-guarded; locks are held via with-blocks."""

    rule_id = "RL002"
    title = "fork safety: unguarded globals, bare acquire"
    invariant = (
        "module globals are rebound only under a lock, and locks are held via "
        "with-blocks"
    )
    fix_hint = "see the per-violation hint"
    #: Both checks are confined to the engine-facing trees.
    scopes = ("core/", "attacks/", "mdp/", "analysis/")

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        """Yield unguarded-global and bare-acquire violations."""
        yield from self._check_global_rebinding(module)
        yield from self._check_bare_acquire(module)

    # -- module-global rebinding without a lock -----------------------------

    def _check_global_rebinding(self, module: ModuleInfo) -> Iterator[LintViolation]:
        violations: List[LintViolation] = []

        def check_function(function: ast.AST) -> None:
            globals_here = _global_names(function)

            def visit(node: ast.AST, lock_depth: int) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, _FUNCTION_NODES):
                        check_function(child)
                        continue
                    child_depth = lock_depth
                    if isinstance(child, ast.With) and _with_mentions_lock(child):
                        child_depth += 1
                    if globals_here and lock_depth == 0:
                        for name in _assigned_names(child) if isinstance(child, ast.stmt) else []:
                            if name.id in globals_here:
                                violations.append(
                                    self.violation(
                                        module,
                                        child,
                                        f"module global {name.id!r} is rebound without "
                                        "holding a lock; concurrent callers race on the "
                                        "lazy initialisation",
                                        fix_hint=(
                                            "wrap the rebinding in `with <module>_LOCK:` "
                                            "(double-checked if the fast path matters)"
                                        ),
                                    )
                                )
                    visit(child, child_depth)

            visit(function, 0)

        def find_functions(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FUNCTION_NODES):
                    check_function(child)
                else:
                    find_functions(child)

        find_functions(module.tree)
        yield from violations

    # -- bare ``lock.acquire()`` statements ---------------------------------

    def _check_bare_acquire(self, module: ModuleInfo) -> Iterator[LintViolation]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr == "acquire":
                yield self.violation(
                    module,
                    node,
                    "bare .acquire() statement; an exception before the matching "
                    "release() leaks the lock",
                    fix_hint="hold the lock with a `with` block instead",
                )


__all__ = ["ForkSafetyRule"]
