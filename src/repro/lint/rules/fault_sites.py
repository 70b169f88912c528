"""RL006: every fault-injection site is registered and statically resolvable.

The deterministic fault harness (:mod:`repro.core.faults`) only works if a
plan like ``REPRO_FAULTS=engine.point_transient:2`` can name every site that
exists in the code.  Two drift modes would silently break that contract:

* **Unregistered sites** -- a ``maybe_fail("new.site")`` call whose name is
  missing from :data:`repro.core.faults.FAULT_SITES` can never fire (the
  harness rejects unknown names at plan-parse time, so the new site would be
  untestable) and, worse, ``maybe_fail`` itself raises on unregistered names
  at runtime -- on the hot path, in production.
* **Dynamic site names** -- ``maybe_fail(some_variable)`` cannot be checked
  against the registry statically, so the chaos suite cannot enumerate the
  sites it must cover.

This rule pins both: every ``maybe_fail`` call must pass a string literal
that is a key of ``FAULT_SITES``.  The registry itself stays the single
source of truth -- registering a new site there and calling it is all a new
fault point needs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import LintViolation, ModuleInfo, Rule, dotted_name


class FaultSiteRegistrationRule(Rule):
    """Every ``maybe_fail`` call names a registered fault site, statically."""

    rule_id = "RL006"
    title = "fault sites: every maybe_fail call is registered and literal"
    invariant = (
        "maybe_fail(...) is always called with a string literal that is a key "
        "of repro.core.faults.FAULT_SITES"
    )
    fix_hint = (
        "register the site in FAULT_SITES (core/faults.py) and pass its name "
        "as a string literal"
    )
    scopes = None  # the whole package: fault sites may live anywhere

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        """Yield a violation per unregistered or non-literal fault site."""
        # Deferred so importing the ruleset never imports the runtime package.
        from repro.core.faults import FAULT_SITES

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name or name.split(".")[-1] != "maybe_fail":
                continue
            if not node.args:
                yield self.violation(
                    module,
                    node,
                    "maybe_fail() called without a site name",
                )
                continue
            site = node.args[0]
            if not (isinstance(site, ast.Constant) and isinstance(site.value, str)):
                yield self.violation(
                    module,
                    node,
                    "maybe_fail site is not a string literal, so it cannot be "
                    "statically checked against FAULT_SITES",
                )
                continue
            if site.value not in FAULT_SITES:
                yield self.violation(
                    module,
                    node,
                    f"maybe_fail site {site.value!r} is not registered in "
                    "repro.core.faults.FAULT_SITES; a fault plan can never "
                    "name it and maybe_fail would raise at runtime",
                )


__all__ = ["FaultSiteRegistrationRule"]
