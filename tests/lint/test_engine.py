"""Engine-level tests: suppressions, reporters, CLI surface, self-cleanliness."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint.engine import (
    PARSE_ERROR_RULE,
    lint_paths,
    main as lint_main,
    package_relpath,
    render_json,
    render_text,
)
from repro.lint.rules import ALL_RULES
from repro.lint.rules.determinism import CertifiedPathDeterminismRule

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"

RL003 = [CertifiedPathDeterminismRule()]

_VIOLATING = """
import random

def jitter():
    return random.random()
"""

_VIOLATING_SUPPRESSED_LINE = """
import random  # repro-lint: disable=RL003

def jitter():
    return random.random()  # repro-lint: disable=RL003
"""

_VIOLATING_SUPPRESSED_FILE = """
# repro-lint: disable-file=RL003
import random

def jitter():
    return random.random()
"""


# ------------------------------------------------------------- suppressions


def test_line_suppression_waives_exactly_that_line(harness):
    violations = harness.lint(
        "mdp/solver.py",
        """
        import random  # repro-lint: disable=RL003

        def jitter():
            return random.random()
        """,
        RL003,
    )
    # The import line is waived; the call still fires.
    assert [v.rule_id for v in violations] == ["RL003"]
    assert violations[0].line == 5


def test_line_suppression_all_and_full_file(harness):
    assert harness.lint("mdp/a.py", _VIOLATING_SUPPRESSED_LINE, RL003) == []
    assert harness.lint("mdp/b.py", _VIOLATING_SUPPRESSED_FILE, RL003) == []
    all_waiver = _VIOLATING.replace(
        "import random", "import random  # repro-lint: disable=all"
    ).replace("random.random()", "random.random()  # repro-lint: disable=all")
    assert harness.lint("mdp/c.py", all_waiver, RL003) == []


def test_unrelated_suppression_does_not_waive(harness):
    violations = harness.lint(
        "mdp/solver.py",
        """
        import random  # repro-lint: disable=RL007
        """,
        RL003,
    )
    assert [v.rule_id for v in violations] == ["RL003"]


# ------------------------------------------------------------- parse errors


def test_unparseable_file_reports_rl000(harness):
    violations = harness.lint("mdp/broken.py", "def broken(:\n", ALL_RULES)
    assert [v.rule_id for v in violations] == [PARSE_ERROR_RULE]
    assert "does not parse" in violations[0].message


# ---------------------------------------------------------------- reporters


def test_text_reporter_shows_location_and_fix_hint(harness):
    violations = harness.lint("mdp/solver.py", _VIOLATING, RL003)
    text = render_text(violations, 1)
    assert "mdp/solver.py:2:0: RL003" in text.splitlines()[0]
    assert any(line.startswith("    fix: ") for line in text.splitlines())
    assert text.rstrip().endswith("2 violation(s) in 1 file")


def test_json_reporter_round_trips(harness):
    violations = harness.lint("mdp/solver.py", _VIOLATING, RL003)
    payload = json.loads(render_json(violations, 1))
    assert payload["files_checked"] == 1
    assert len(payload["violations"]) == 2
    first = payload["violations"][0]
    assert first["rule_id"] == "RL003"
    assert set(first) == {"rule_id", "path", "line", "column", "message", "fix_hint"}


def test_clean_text_report():
    assert render_text([], 3) == "clean: 3 files, 0 violations"


# -------------------------------------------------------------- path scoping


def test_package_relpath_strips_src_and_repro_prefixes(tmp_path):
    assert package_relpath(PACKAGE / "core" / "engine.py") == "core/engine.py"
    fixture = tmp_path / "core" / "bad.py"
    fixture.parent.mkdir(parents=True)
    fixture.write_text("x = 1\n", encoding="utf-8")
    assert package_relpath(fixture, tmp_path) == "core/bad.py"


# ---------------------------------------------------------------- CLI surface


def test_module_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "mdp" / "solver.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(_VIOLATING, encoding="utf-8")
    assert lint_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RL003" in out

    bad.write_text("x = 1\n", encoding="utf-8")
    assert lint_main([str(tmp_path)]) == 0
    assert lint_main([str(tmp_path / "missing")]) == 2


def test_cli_subcommand_matches_module_entry(tmp_path, capsys):
    bad = tmp_path / "attacks" / "thing.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(_VIOLATING, encoding="utf-8")
    assert cli_main(["lint", str(tmp_path)]) == 1
    assert "RL003" in capsys.readouterr().out
    assert cli_main(["lint", "--format", "json", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"]


def test_select_restricts_rules(tmp_path, capsys):
    bad = tmp_path / "mdp" / "solver.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(_VIOLATING, encoding="utf-8")
    # RL007 does not fire on this fixture, so selecting it alone is clean.
    assert lint_main(["--select", "RL007", str(tmp_path)]) == 0
    capsys.readouterr()
    assert lint_main(["--select", "RL003", str(tmp_path)]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit, match="unknown rule id"):
        lint_main(["--select", "RL999", str(tmp_path)])


def test_list_rules_names_every_rule(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.rule_id in out
        assert rule.invariant in out


@pytest.mark.parametrize("rule_id", ["RL001", "RL004"])
def test_retired_rule_ids_are_unknown(tmp_path, capsys, rule_id):
    clean = tmp_path / "core" / "engine.py"
    clean.parent.mkdir(parents=True)
    clean.write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="unknown rule id"):
        lint_main(["--select", rule_id, str(tmp_path)])
    assert lint_main(["--list-rules"]) == 0
    assert rule_id not in capsys.readouterr().out


def test_python_dash_m_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(PACKAGE)],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------- self-clean


def test_package_lints_clean():
    """The acceptance gate: `repro lint src/repro` exits 0 on this tree."""
    violations, files_checked = lint_paths([PACKAGE])
    assert files_checked > 50
    assert violations == []
