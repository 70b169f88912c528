"""RL005: every registered attack scenario honours the structure contract.

The scenario registry (:mod:`repro.attacks.registry`) promises that *every*
engine feature -- the structure cache, sweep workers, reporting -- works on
*any* registered scenario.  That promise holds only if each
``@register_attack`` class defines, in its own body, the seven engine hooks
the registry documents (``explore``, ``series_name``, ``grid_configs``,
``build_model``, ``make_policy``, ``simulate``, ``honest_strategy``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..engine import LintViolation, ModuleInfo, Rule, dotted_name

#: Hooks every registered scenario class must define (or inherit *explicitly*
#: by redeclaring -- the lint demands a definition in the class body).
REQUIRED_HOOKS = (
    "explore",
    "series_name",
    "grid_configs",
    "build_model",
    "make_policy",
    "simulate",
    "honest_strategy",
)


def _is_register_attack_decorator(node: ast.expr) -> bool:
    """Whether ``node`` is a ``@register_attack(...)`` (or bare) decorator."""
    target = node.func if isinstance(node, ast.Call) else node
    name = dotted_name(target)
    return bool(name) and name.split(".")[-1] == "register_attack"


def _class_definitions(node: ast.ClassDef) -> Set[str]:
    """Names bound directly in the class body (methods and assignments)."""
    defined: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            defined.add(stmt.target.id)
    return defined


class ScenarioContractRule(Rule):
    """``@register_attack`` classes define every engine hook in their own body."""

    rule_id = "RL005"
    title = "scenario contract completeness for registered attacks"
    invariant = (
        f"every @register_attack class defines all {len(REQUIRED_HOOKS)} engine "
        "hooks in its own body"
    )
    fix_hint = "define every missing hook"
    scopes = None  # registration can happen anywhere

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        """Yield contract gaps in every registered scenario class."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_is_register_attack_decorator(d) for d in node.decorator_list):
                continue
            defined = _class_definitions(node)
            missing = [hook for hook in REQUIRED_HOOKS if hook not in defined]
            if missing:
                yield self.violation(
                    module,
                    node,
                    f"registered scenario {node.name!r} is missing required "
                    f"hook(s): {', '.join(missing)}",
                    fix_hint="define the missing hooks so every engine feature works",
                )


__all__ = ["REQUIRED_HOOKS", "ScenarioContractRule"]
