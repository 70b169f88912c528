"""Tests of CSV / table / ASCII-plot reporting and the command-line interface."""

from __future__ import annotations

import csv
import math

import pytest

from repro.cli import main
from repro.core.reporting import (
    ProgressReporter,
    ascii_plot,
    render_table,
    round_significant,
    write_csv,
)
from repro.core.results import SweepPoint, SweepResult
from repro.exceptions import ConfigurationError


@pytest.fixture()
def sample_sweep():
    points = []
    for p in (0.0, 0.1, 0.2, 0.3):
        points.append(SweepPoint(p=p, gamma=0.5, series="honest", errev=p))
        points.append(SweepPoint(p=p, gamma=0.5, series="ours(d=2,f=1)", errev=min(1.0, p * 1.3)))
    return SweepResult(points=points, description="sample")


class TestWriteCsv:
    def test_writes_header_and_rows(self, tmp_path):
        path = write_csv([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5, "c": "x"}], tmp_path / "out.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["a"] == "1"
        assert rows[1]["c"] == "x"
        assert set(rows[0].keys()) == {"a", "b", "c"}

    def test_creates_parent_directories(self, tmp_path):
        path = write_csv([{"x": 1}], tmp_path / "nested" / "dir" / "out.csv")
        assert path.exists()

    def test_empty_rows_produce_empty_file(self, tmp_path):
        path = write_csv([], tmp_path / "empty.csv")
        assert path.read_text().strip() == ""

    def test_explicit_columns_fix_order_and_fill_gaps(self, tmp_path):
        path = write_csv(
            [{"b": 2, "a": 1}, {"a": 3, "extra": "dropped"}],
            tmp_path / "ordered.csv",
            columns=["a", "b"],
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"
        assert lines[2] == "3,"  # missing key -> empty cell, extras dropped

    def test_wall_clock_columns_rounded_to_significant_digits(self, tmp_path):
        path = write_csv(
            [{"seconds": 0.123456789, "build_seconds": 1234.5678, "errev": 0.123456789}],
            tmp_path / "rounded.csv",
        )
        with path.open() as handle:
            (row,) = list(csv.DictReader(handle))
        assert row["seconds"] == "0.1235"
        assert row["build_seconds"] == "1235.0"
        # Non-timing floats keep their full precision.
        assert row["errev"] == "0.123456789"

    def test_time_rounding_can_be_disabled(self, tmp_path):
        path = write_csv(
            [{"seconds": 0.123456789}], tmp_path / "full.csv", time_significant_digits=None
        )
        with path.open() as handle:
            (row,) = list(csv.DictReader(handle))
        assert row["seconds"] == "0.123456789"

    def test_utf8_regardless_of_locale(self, tmp_path, monkeypatch):
        """Regression: CSV output must be UTF-8 even on a C-locale host.

        ``open`` without an explicit encoding follows
        ``locale.getpreferredencoding``, so the same sweep wrote different --
        or crashing, for non-ASCII series/error cells -- files depending on
        the host locale.  The file must now open with ``encoding="utf-8"``
        (asserted on the actual ``Path.open`` call, since the test process
        cannot reliably switch its C-level locale) and the bytes on disk must
        decode as UTF-8.
        """
        import locale
        from pathlib import Path

        monkeypatch.setattr(
            locale, "getpreferredencoding", lambda do_setlocale=True: "ANSI_X3.4-1968"
        )
        opened_encodings = []
        original_open = Path.open

        def spying_open(self, *args, **kwargs):
            opened_encodings.append(kwargs.get("encoding"))
            return original_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", spying_open)
        path = write_csv(
            [{"series": "ours(γ=0.5, β≤ε)", "error": "Solver détruit"}],
            tmp_path / "unicode.csv",
        )
        assert opened_encodings == ["utf-8"]
        text = path.read_bytes().decode("utf-8")
        assert "ours(γ=0.5, β≤ε)" in text and "Solver détruit" in text


class TestRoundSignificant:
    @pytest.mark.parametrize(
        ("value", "digits", "expected"),
        [
            (1234.5678, 4, 1235.0),
            (0.000123456, 4, 0.0001235),
            (-98.7654, 3, -98.8),
            (5.0, 1, 5.0),
            (0.0, 4, 0.0),
        ],
    )
    def test_rounds_to_significant_digits(self, value, digits, expected):
        assert round_significant(value, digits) == expected

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_non_finite_values_pass_through(self, value):
        assert round_significant(value) == value

    def test_nan_passes_through(self):
        assert math.isnan(round_significant(math.nan))


class TestProgressReporter:
    def test_enabled_reporter_forwards_every_message(self):
        seen = []
        reporter = ProgressReporter(seen.append)
        reporter("a")
        reporter("b")
        assert reporter.enabled
        assert seen == ["a", "b"]

    def test_disabled_reporter_swallows_messages(self):
        reporter = ProgressReporter()
        assert not reporter.enabled
        reporter("dropped")

    def test_wrap_is_idempotent_for_reporters(self):
        reporter = ProgressReporter(print)
        assert ProgressReporter.wrap(reporter) is reporter
        assert not ProgressReporter.wrap(None).enabled

    @pytest.mark.parametrize(("quiet", "expected"), [(False, "gamma=0.5 p=0.1\n"), (True, "")])
    def test_stderr_reporter_honours_quiet(self, capsys, quiet, expected):
        ProgressReporter.stderr(quiet=quiet)("gamma=0.5 p=0.1")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == expected


class TestRenderTable:
    def test_contains_all_columns_and_values(self):
        text = render_table([{"name": "x", "value": 1.23456}])
        assert "name" in text and "value" in text
        assert "1.2346" in text  # default float format

    def test_column_selection_and_order(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_none_rendered_as_empty(self):
        text = render_table([{"a": None}])
        assert text.splitlines()[-1].strip() == ""

    def test_empty_table(self):
        assert render_table([]) == "(empty table)"


class TestAsciiPlot:
    def test_contains_legend_and_markers(self, sample_sweep):
        text = ascii_plot(sample_sweep, gamma=0.5)
        assert "honest" in text
        assert "ours(d=2,f=1)" in text
        assert "gamma = 0.5" in text

    def test_missing_gamma_handled(self, sample_sweep):
        assert "no data" in ascii_plot(sample_sweep, gamma=0.9)

    def test_plot_dimensions(self, sample_sweep):
        lines = ascii_plot(sample_sweep, gamma=0.5, width=40, height=10).splitlines()
        plot_lines = [line for line in lines if line.startswith("|")]
        assert len(plot_lines) == 10
        assert all(len(line) <= 41 for line in plot_lines)


class TestCli:
    def test_analyze_command(self, capsys):
        exit_code = main(
            [
                "analyze",
                "--p",
                "0.3",
                "--gamma",
                "0.5",
                "--depth",
                "1",
                "--forks",
                "1",
                "--epsilon",
                "0.01",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "ERRev lower bound" in captured.out
        assert "states" in captured.out

    def test_sweep_command_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        exit_code = main(
            [
                "sweep",
                "--gamma",
                "0.5",
                "--p-max",
                "0.2",
                "--p-step",
                "0.1",
                "--epsilon",
                "0.02",
                "--grid",
                "max-depth=1",
                "--csv",
                str(out_csv),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert out_csv.exists()
        assert "ERRev vs p" in captured.out
        with out_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        assert {row["series"] for row in rows} >= {"honest", "ours(d=1,f=1)"}

    def test_simulate_command(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--p",
                "0.3",
                "--gamma",
                "0.5",
                "--depth",
                "1",
                "--forks",
                "1",
                "--epsilon",
                "0.01",
                "--steps",
                "20000",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "simulated ERRev" in captured.out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_parameter_propagates(self):
        with pytest.raises(ConfigurationError):
            main(["analyze", "--p", "1.5", "--epsilon", "0.01"])

    def test_analyze_with_solver_alias(self, capsys):
        exit_code = main(
            [
                "analyze",
                "--p",
                "0.3",
                "--depth",
                "1",
                "--epsilon",
                "0.01",
                "--solver",
                "vi",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "ERRev lower bound" in captured.out

    def test_sweep_with_value_iteration_and_reuse_bounds(self, tmp_path, capsys):
        out_csv = tmp_path / "vi.csv"
        exit_code = main(
            [
                "sweep",
                "--gamma",
                "0.5",
                "--p-max",
                "0.2",
                "--p-step",
                "0.1",
                "--epsilon",
                "0.02",
                "--grid",
                "max-depth=1",
                "--solver",
                "vi",
                "--reuse-p-bounds",
                "--csv",
                str(out_csv),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        with out_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        attack_rows = [row for row in rows if row["series"].startswith("ours")]
        assert attack_rows
        assert "solver_backend" not in rows[0]
        assert all(float(row["beta_up"]) - float(row["beta_low"]) < 0.02 for row in attack_rows)

    def test_attacks_command_lists_scenarios(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "selfish-forks@1" in out
        assert "sm-actions@1" in out
        assert "default grid" in out

    def test_analyze_accepts_attack_scenario(self, capsys):
        exit_code = main(
            ["analyze", "--attack", "sm-actions", "-l", "6", "--epsilon", "0.01"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "ERRev lower bound" in captured.out

    def test_sweep_attack_scenario_writes_scenario_column(self, tmp_path, capsys):
        out_csv = tmp_path / "scenario.csv"
        exit_code = main(
            [
                "sweep",
                "--attack",
                "sm-actions",
                "--grid",
                "l4",
                "--p-max",
                "0.2",
                "--p-step",
                "0.1",
                "--epsilon",
                "0.02",
                "--csv",
                str(out_csv),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        with out_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        attack_rows = [row for row in rows if row["series"] == "sm-actions(l=4)"]
        assert attack_rows
        assert all(row["scenario"] == "sm-actions@1" for row in attack_rows)

    def test_unknown_attack_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--attack", "no-such-attack"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--batch-probes", "3"],
            ["sweep", "--batch-probes", "auto"],
            ["analyze", "--solver", "lp"],
            ["analyze", "--solver", "linear_program"],
            ["sweep", "--solver", "portfolio"],
        ],
    )
    def test_removed_search_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--distributed", "2"),
            ("--listen", "127.0.0.1:7355"),
            ("--min-workers", "1"),
            ("--heartbeat-seconds", "1"),
            ("--straggler-seconds", "5"),
        ],
    )
    def test_removed_fabric_flags_rejected(self, flag, value, capsys):
        """Sweeps run serially or on the local pool; no multi-host flag remains."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--no-structure-cache"],
            ["--max-depth", "1"],
            ["--inject-faults", "engine.worker_crash_pre_result:1"],
        ],
    )
    def test_removed_sweep_flags_rejected(self, argv, capsys):
        """No structure-cache switch, no depth ladder flag, no fault injection."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *argv])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    def test_worker_subcommand_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--connect", "127.0.0.1:7355"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["worker"])
        assert "invalid choice: 'worker'" in capsys.readouterr().err

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit, match="--resume requires --journal"):
            main(["sweep", "--resume"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--epsilon", "-1"],
            ["sweep", "--workers", "0"],
            ["analyze", "--epsilon", "0"],
        ],
    )
    def test_invalid_numeric_flags_rejected_cleanly(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be a positive" in capsys.readouterr().err
