"""Anti-rot checks for the documentation surface.

The docs CI job runs the link check and executes the examples; these tests
additionally pin the CLI reference to the actual argument parser so a flag
cannot be added, renamed or removed without ``docs/cli.md`` following.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

from repro.cli import _build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
TOOLS = REPO_ROOT / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from check_links import check_links  # noqa: E402


def _parser_options() -> set:
    """Every long option string of every subcommand parser."""
    parser = _build_parser()
    options = set()
    subparsers = next(
        action for action in parser._actions if hasattr(action, "choices") and action.choices
    )
    for sub in subparsers.choices.values():
        for action in sub._actions:
            options.update(opt for opt in action.option_strings if opt.startswith("--"))
    options.discard("--help")
    return options


def _documented_options() -> set:
    text = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    return set(re.findall(r"(--[a-z][a-z0-9-]*)", text))


def test_every_parser_flag_is_documented():
    missing = _parser_options() - _documented_options()
    assert not missing, f"flags absent from docs/cli.md: {sorted(missing)}"


def test_every_documented_flag_exists():
    stale = _documented_options() - _parser_options()
    assert not stale, f"docs/cli.md documents unknown flags: {sorted(stale)}"


def test_cli_subcommands_match_docs():
    text = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    parser = _build_parser()
    subparsers = next(
        action for action in parser._actions if hasattr(action, "choices") and action.choices
    )
    for name in subparsers.choices:
        assert f"repro {name}" in text, f"subcommand {name!r} undocumented in docs/cli.md"


def test_required_documents_exist():
    for relative in ("README.md", "docs/cli.md", "docs/architecture.md"):
        assert (REPO_ROOT / relative).exists(), relative


def test_no_broken_documentation_links():
    broken, local, _ = check_links()
    assert local > 0, "link check found no local links at all (pattern rot?)"
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("example", ["quickstart.py"])
def test_examples_referenced_by_readme_exist(example):
    assert (REPO_ROOT / "examples" / example).exists()
    assert example in (REPO_ROOT / "README.md").read_text(encoding="utf-8")
