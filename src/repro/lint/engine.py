"""Rule engine of ``repro lint``: file discovery, suppressions, reporters.

The engine is deliberately dependency-free (stdlib ``ast`` + ``argparse``):
it parses every target file once, hands the tree to each applicable rule
(:class:`Rule` subclasses from :mod:`repro.lint.rules`), filters the returned
:class:`LintViolation` records through ``# repro-lint: disable=...``
suppression comments, and renders the survivors as text or JSON.

Path scoping
------------
Rules may restrict themselves to package-relative path prefixes (e.g. the
determinism rule only watches ``attacks/``, ``mdp/`` and ``analysis/``).  The
engine therefore normalises every file to a *package-relative* posix path:
ancestors up to (and including) a ``repro`` package directory or a leading
``src`` component are stripped, so ``src/repro/core/engine.py``, an installed
``site-packages/repro/core/engine.py`` and a test fixture ``<tmp>/core/bad.py``
all normalise to ``core/...`` and are scoped identically.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Comment syntax waiving rules for one line / a whole file.  ``all`` (or
#: ``*``) waives every rule.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-file)?)=(?P<ids>[A-Za-z0-9_*,\s]+)"
)

#: Pseudo rule id reported for files the engine cannot parse at all.
PARSE_ERROR_RULE = "RL000"


@dataclass(frozen=True)
class LintViolation:
    """One reported invariant violation.

    Attributes:
        rule_id: Identifier of the violated rule (``RL002`` .. ``RL007``, or
            :data:`PARSE_ERROR_RULE` for unparseable files).
        path: Path of the offending file as given on the command line.
        line: 1-based source line of the violation.
        column: 0-based source column of the violation.
        message: What invariant is violated, and how.
        fix_hint: Actionable per-rule fix-it message.
    """

    rule_id: str
    path: str
    line: int
    column: int
    message: str
    fix_hint: str = ""


@dataclass
class ModuleInfo:
    """One parsed target file, as handed to every rule.

    Attributes:
        path: Filesystem path of the file.
        relpath: Package-relative posix path used for rule scoping
            (``core/engine.py``, ``attacks/structure.py``, ...).
        source: Raw file contents.
        tree: Parsed abstract syntax tree.
        line_suppressions: ``line -> rule ids`` waived on that line.
        file_suppressions: Rule ids waived for the entire file.
    """

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    line_suppressions: Dict[int, Set[str]]
    file_suppressions: Set[str]

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is waived at ``line`` (or file-wide)."""
        waived = self.file_suppressions | self.line_suppressions.get(line, set())
        return rule_id in waived or "all" in waived or "*" in waived


class Rule:
    """Base class of every lint rule.

    Subclasses set :attr:`rule_id` / :attr:`title` / :attr:`invariant` /
    :attr:`fix_hint`, optionally narrow :attr:`scopes` to package-relative
    path prefixes, and implement :meth:`check`.
    """

    #: Stable identifier (``RLxxx``), used in reports and suppressions.
    rule_id: str = ""
    #: One-line rule name.
    title: str = ""
    #: The repo invariant this rule guards (shown by ``--list-rules``).
    invariant: str = ""
    #: Default fix-it message attached to this rule's violations.
    fix_hint: str = ""
    #: Package-relative path prefixes this rule watches (``None`` = all files).
    scopes: Optional[Tuple[str, ...]] = None

    def applies_to(self, module: ModuleInfo) -> bool:
        """Whether ``module`` falls inside this rule's path scope."""
        if self.scopes is None:
            return True
        return any(
            module.relpath == scope or module.relpath.startswith(scope)
            for scope in self.scopes
        )

    def check(self, module: ModuleInfo) -> Iterator[LintViolation]:
        """Yield every violation of this rule in ``module``."""
        raise NotImplementedError(f"{type(self).__name__} does not implement check()")

    def violation(
        self, module: ModuleInfo, node: ast.AST, message: str, *, fix_hint: str = ""
    ) -> LintViolation:
        """Build a violation of this rule anchored at ``node``."""
        return LintViolation(
            rule_id=self.rule_id,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
            fix_hint=fix_hint or self.fix_hint,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten a ``Name``/``Attribute`` chain into ``"a.b.c"`` (else ``None``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ------------------------------------------------------------- file discovery


def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract line-level and file-level suppression comments from ``source``."""
    line_level: Dict[int, Set[str]] = {}
    file_level: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = {part.strip() for part in match.group("ids").split(",") if part.strip()}
        if match.group("kind") == "disable-file":
            file_level |= ids
        else:
            line_level.setdefault(lineno, set()).update(ids)
    return line_level, file_level


def package_relpath(path: Path, root: Optional[Path] = None) -> str:
    """Normalise ``path`` to the package-relative posix path used for scoping.

    Preference order: relative to the nearest ancestor directory that *is* the
    ``repro`` package (named ``repro`` with an ``__init__.py``); else relative
    to ``root``; else the bare file name.  Leading ``src``/``repro`` wrapper
    components are stripped in every case.
    """
    resolved = path.resolve()
    relative: Optional[Path] = None
    for ancestor in resolved.parents:
        if ancestor.name == "repro" and (ancestor / "__init__.py").exists():
            relative = resolved.relative_to(ancestor)
            break
    if relative is None and root is not None:
        try:
            relative = resolved.relative_to(root.resolve())
        except ValueError:
            relative = None
    if relative is None:
        relative = Path(resolved.name)
    parts = list(relative.parts)
    while parts and parts[0] in ("src", "repro"):
        parts = parts[1:]
    return "/".join(parts) or resolved.name


def iter_python_files(target: Path) -> Iterator[Path]:
    """Yield the python files under ``target`` (itself, if it is a file)."""
    if target.is_file():
        yield target
        return
    for path in sorted(target.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path


def load_module(path: Path, root: Optional[Path] = None) -> ModuleInfo:
    """Read and parse one target file into a :class:`ModuleInfo`.

    Raises:
        SyntaxError: If the file does not parse; callers report it as a
            :data:`PARSE_ERROR_RULE` violation.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    line_suppressions, file_suppressions = _parse_suppressions(source)
    return ModuleInfo(
        path=path,
        relpath=package_relpath(path, root),
        source=source,
        tree=tree,
        line_suppressions=line_suppressions,
        file_suppressions=file_suppressions,
    )


# ------------------------------------------------------------------ execution


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[LintViolation], int]:
    """Run ``rules`` over every python file under ``paths``.

    Args:
        paths: Files or directories to lint.
        rules: Rule instances to apply; defaults to the full built-in ruleset.

    Returns:
        ``(violations, files_checked)``; the violations are ordered by file,
        line and rule id, already filtered through suppression comments.
    """
    if rules is None:
        from .rules import ALL_RULES

        rules = ALL_RULES
    violations: List[LintViolation] = []
    files_checked = 0
    for target in paths:
        root = target if target.is_dir() else target.parent
        for path in iter_python_files(target):
            files_checked += 1
            try:
                module = load_module(path, root)
            except SyntaxError as exc:
                violations.append(
                    LintViolation(
                        rule_id=PARSE_ERROR_RULE,
                        path=str(path),
                        line=exc.lineno or 1,
                        column=(exc.offset or 1) - 1,
                        message=f"file does not parse: {exc.msg}",
                        fix_hint="fix the syntax error; unparseable files cannot be linted",
                    )
                )
                continue
            for rule in rules:
                if not rule.applies_to(module):
                    continue
                for violation in rule.check(module):
                    if not module.suppressed(violation.rule_id, violation.line):
                        violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule_id))
    return violations, files_checked


# ------------------------------------------------------------------ reporters


def render_text(violations: Sequence[LintViolation], files_checked: int) -> str:
    """Human-readable report: one location line plus a fix hint per violation."""
    lines: List[str] = []
    for violation in violations:
        lines.append(
            f"{violation.path}:{violation.line}:{violation.column}: "
            f"{violation.rule_id} {violation.message}"
        )
        if violation.fix_hint:
            lines.append(f"    fix: {violation.fix_hint}")
    noun = "file" if files_checked == 1 else "files"
    if violations:
        lines.append(f"{len(violations)} violation(s) in {files_checked} {noun}")
    else:
        lines.append(f"clean: {files_checked} {noun}, 0 violations")
    return "\n".join(lines)


def render_json(violations: Sequence[LintViolation], files_checked: int) -> str:
    """Machine-readable report (stable keys, one object per violation)."""
    return json.dumps(
        {
            "files_checked": files_checked,
            "violations": [asdict(violation) for violation in violations],
        },
        indent=2,
        sort_keys=True,
    )


# ------------------------------------------------------------------------ CLI


def default_target() -> Path:
    """The installed ``repro`` package directory (the default lint target)."""
    return Path(__file__).resolve().parents[1]


def _select_rules(select: Optional[str]) -> List[Rule]:
    """Resolve a ``--select`` value into rule instances.

    Raises:
        SystemExit: Via ``argparse``-style error text when an id is unknown.
    """
    from .rules import ALL_RULES

    if not select:
        return list(ALL_RULES)
    wanted = {part.strip().upper() for part in select.split(",") if part.strip()}
    known = {rule.rule_id: rule for rule in ALL_RULES}
    unknown = wanted - set(known)
    if unknown:
        raise SystemExit(
            f"repro lint: unknown rule id(s) {sorted(unknown)} "
            f"(known: {sorted(known)})"
        )
    return [known[rule_id] for rule_id in sorted(wanted)]


def run(
    paths: Sequence[str],
    *,
    output_format: str = "text",
    select: Optional[str] = None,
    list_rules: bool = False,
) -> int:
    """Shared entry point of ``repro lint`` and ``python -m repro.lint``.

    Returns:
        Process exit code: 0 when no violations were reported, 1 otherwise.
    """
    from .rules import ALL_RULES

    if list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"       invariant: {rule.invariant}")
            if rule.scopes:
                print(f"       scope: {', '.join(rule.scopes)}")
        return 0
    targets = [Path(path) for path in paths] if paths else [default_target()]
    missing = [target for target in targets if not target.exists()]
    if missing:
        print(
            f"repro lint: no such file or directory: "
            f"{', '.join(str(path) for path in missing)}",
            file=sys.stderr,
        )
        return 2
    rules = _select_rules(select)
    violations, files_checked = lint_paths(targets, rules)
    renderer = render_json if output_format == "json" else render_text
    print(renderer(violations, files_checked))
    return 1 if violations else 0


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the lint flags on ``parser`` (shared with the ``repro`` CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        type=str,
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule with the invariant it guards, then exit",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant checker for the repro package",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run(
        args.paths,
        output_format=args.format,
        select=args.select,
        list_rules=args.list_rules,
    )


__all__ = [
    "PARSE_ERROR_RULE",
    "LintViolation",
    "ModuleInfo",
    "Rule",
    "add_lint_arguments",
    "default_target",
    "dotted_name",
    "iter_python_files",
    "lint_paths",
    "load_module",
    "main",
    "package_relpath",
    "render_json",
    "render_text",
    "run",
]
