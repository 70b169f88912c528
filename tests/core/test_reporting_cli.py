"""Tests of CSV / table / ASCII-plot reporting and the command-line interface."""

from __future__ import annotations

import csv
import importlib
import inspect
import math

import pytest

from repro import SelfishMiningAnalyzer, cli
from repro.cli import main
from repro.core.reporting import (
    MARKERS,
    OVERLAP_MARKER,
    ascii_plot,
    render_table,
    round_significant,
    write_csv,
)
from repro.core.results import SweepPoint, SweepResult


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

    def test_columns_in_first_appearance_order_with_gaps_empty(self, tmp_path):
        path = write_csv(
            [{"b": 2, "a": 1}, {"a": 3, "extra": "x"}], tmp_path / "ordered.csv"
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "b,a,extra"
        assert lines[1] == "2,1,"  # missing key -> empty cell
        assert lines[2] == ",3,x"

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


class TestRenderTable:
    def test_contains_all_columns_and_values(self):
        text = render_table([{"name": "x", "value": 1.23456}])
        assert "name" in text and "value" in text
        assert "1.2346" in text  # default float format

    def test_columns_in_first_appearance_order(self):
        text = render_table([{"b": 1}, {"a": 2, "b": 3}])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")
        assert text.splitlines()[2].rstrip() == "1"

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

    def test_a_series_under_others_shows_as_an_overlap(self):
        """As in ``repro sweep --p-max 0.05 --epsilon 0.05``: honest lies under attack series."""
        values = {
            "honest": (0.0, 0.05),
            "single-tree(f=5)": (0.0, 0.02899011537568293),
            "ours(d=1,f=1)": (0.0, 0.050000000000000044),
            "ours(d=2,f=1)": (0.0, 0.054303505226731774),
        }
        points = [
            SweepPoint(p=p, gamma=0.5, series=series, errev=errev)
            for series, errevs in values.items()
            for p, errev in zip((0.0, 0.05), errevs)
        ]
        lines = ascii_plot(SweepResult(points=points, description="overlap"), 0.5).splitlines()
        grid = [line[1:] for line in lines if line.startswith("|")]
        legend = lines[len(lines) - 5 :]
        assert OVERLAP_MARKER not in MARKERS
        # p = 0: every series at 0; p = 0.05: honest and ours(d=1,f=1) share a cell.
        assert grid[-1][0] == OVERLAP_MARKER
        assert [row[-1] for row in grid if row[-1] != " "] == ["*", OVERLAP_MARKER, "x"]
        assert all(MARKERS[0] not in row for row in grid)
        assert legend[-1] == f"  {OVERLAP_MARKER} points of two or more series"
        assert [line.split(maxsplit=1)[1] for line in legend[:-1]] == list(values)

    def test_without_a_shared_cell_there_is_no_overlap_marker(self, sample_sweep):
        points = [point for point in sample_sweep.points if point.p > 0.0]
        lines = ascii_plot(SweepResult(points=points, description="apart"), 0.5).splitlines()
        assert not any(OVERLAP_MARKER in line for line in lines if line.startswith("|"))
        assert lines[-2:] == ["  o honest", "  x ours(d=2,f=1)"]

    def test_plot_dimensions(self, sample_sweep):
        lines = ascii_plot(sample_sweep, gamma=0.5).splitlines()
        plot_lines = [line for line in lines if line.startswith("|")]
        assert len(plot_lines) == 18
        assert all(len(line) <= 61 for line in plot_lines)
        assert "+" + "-" * 60 in lines


@pytest.mark.parametrize(
    "function, parameters",
    [
        pytest.param(function, parameters, id=function.__name__)
        for function, parameters in [
            (write_csv, ["rows", "path"]),
            (render_table, ["rows"]),
            (ascii_plot, ["sweep", "gamma"]),
            (SelfishMiningAnalyzer.build_model, ["self"]),
        ]
    ],
)
def test_report_formats_take_no_options(function, parameters):
    """Columns, number formats, plot size and model rebuilds are fixed."""
    assert list(inspect.signature(function).parameters) == parameters


class TestProbabilityArgument:
    """``--p``, ``--gamma`` and ``--p-max`` take a probability in [0, 1].

    Each flag checks its value with the library's ``check_probability``.
    """

    FLAGS = [
        ("analyze", "--p", "p"),
        ("analyze", "--gamma", "gamma"),
        ("sweep", "--p-max", "p_max"),
    ]

    @pytest.mark.parametrize(
        "text, value", [("0", 0.0), ("1", 1.0), ("0.25", 0.25), ("1e-1", 0.1)]
    )
    def test_accepts_the_closed_unit_interval(self, text, value):
        for command, flag, dest in self.FLAGS:
            args = cli._build_parser().parse_args([command, f"{flag}={text}"])
            assert getattr(args, dest) == value

    @pytest.mark.parametrize("text", ["-0.1", "1.0000001", "nan", "inf", "-inf"])
    def test_rejects_everything_else(self, text, capsys):
        for command, flag, _ in self.FLAGS:
            with pytest.raises(SystemExit) as excinfo:
                cli._build_parser().parse_args([command, f"{flag}={text}"])
            assert excinfo.value.code == 2
            message = f"argument {flag}: {flag[2:]} must be in [0, 1], got {float(text)!r}"
            assert message in capsys.readouterr().err

    def test_non_number_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--p", "abc"])
        assert excinfo.value.code == 2
        assert "--p" in capsys.readouterr().err


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

    @pytest.mark.parametrize("quiet", [False, True])
    def test_sweep_progress_goes_to_stderr_unless_quiet(self, tmp_path, capsys, quiet):
        """Progress and the journal summary print to stderr; ``--quiet`` drops both."""
        argv = [
            "sweep", "--p-max", "0.1", "--p-step", "0.1", "--epsilon", "0.05",
            "--grid", "max-depth=1", "--journal", str(tmp_path / "sweep.journal"),
        ]
        assert main(argv + ["--quiet"] * quiet) == 0
        captured = capsys.readouterr()
        assert "ERRev vs p" in captured.out
        assert "ours(d=1,f=1): ERRev=" not in captured.out
        if quiet:
            assert captured.err == ""
        else:
            lines = captured.err.splitlines()
            assert [line.split(": ERRev=")[0] for line in lines[:-1]] == [
                "gamma=0.5 p=0.0 ours(d=1,f=1)",
                "gamma=0.5 p=0.1 ours(d=1,f=1)",
            ]
            assert lines[-1].startswith("journal: ")
            assert "recorded 2, skipped 0 unit(s)" in lines[-1]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_sweep_with_reuse_bounds(self, tmp_path, capsys):
        out_csv = tmp_path / "reuse.csv"
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
        assert "overpaying" in out

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
            ["analyze", "--variant", "typo"],
            ["sweep", "--variant", "overpaying"],
            ["analyze", "--attack", "sm-actions", "--variant", "typo"],
        ],
    )
    def test_unknown_variant_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--variant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--batch-probes", "3"],
            ["sweep", "--batch-probes", "auto"],
            ["analyze", "--solver", "lp"],
            ["analyze", "--solver", "linear_program"],
            ["sweep", "--solver", "portfolio"],
            ["analyze", "--solver", "pi"],
            ["sweep", "--solver", "policy_iteration"],
            ["analyze", "--solver", "vi"],
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

    def test_simulate_subcommand_is_unknown(self, capsys):
        """The Monte-Carlo simulator is a test oracle, not a subcommand."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--p", "0.3", "--steps", "20000"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'simulate'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--depth", "0"], "depth must be >= 1, got 0"),
            (["analyze", "--forks", "0"], "forks must be >= 1, got 0"),
            (["sweep", "--grid", "d2x"], "invalid selfish-forks grid token 'd2x'"),
            (
                ["sweep", "--attack", "sm-actions", "--grid", "l4:typo"],
                "variant of 'sm-actions' must be one of",
            ),
            (["sweep", "--resume"], "--resume requires --journal PATH"),
        ],
    )
    def test_invalid_attack_or_grid_is_a_usage_error(self, monkeypatch, capsys, argv, message):
        """Attack parameters and the grid are checked before anything runs."""
        monkeypatch.setattr(cli, "run_sweep", pytest.fail)
        monkeypatch.setattr(cli, "SelfishMiningAnalyzer", pytest.fail)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--epsilon", "-1"],
            ["sweep", "--workers", "0"],
            ["analyze", "--epsilon", "0"],
            ["analyze", "--epsilon", "inf"],
            ["sweep", "--epsilon", "inf"],
        ],
    )
    def test_invalid_numeric_flags_rejected_cleanly(self, argv, capsys):
        """Each flag is checked by the library's rule, whose message names it."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        flag, text = argv[1:]
        if flag == "--workers":
            expected = f"workers must be >= 1, got {text}"
        else:
            expected = f"epsilon must be a positive finite number, got {float(text)!r}"
        assert f"argument {flag}: {expected}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--p", "1.5"],
            ["analyze", "--gamma", "nan"],
            ["analyze", "--gamma", "-0.1"],
            ["sweep", "--gamma", "1.5"],
            ["sweep", "--p-max", "-0.1"],
            ["sweep", "--p-max", "1.2"],
        ],
    )
    def test_out_of_range_probabilities_rejected_cleanly(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        flag = argv[1]
        assert f"argument {flag}: {flag[2:]} must be in [0, 1]" in capsys.readouterr().err

    def test_no_lint_subcommand(self, capsys):
        """The source invariants are a tier-1 test, not a shipped command."""
        with pytest.raises(SystemExit) as excinfo:
            main(["lint"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.lint")

    @pytest.mark.parametrize("p_step", ["0.00003", "0.00009", "0", "-0.05", "nan", "inf"])
    def test_p_step_below_grid_resolution_rejected(self, monkeypatch, capsys, p_step):
        """The grid is rounded to 4 decimals: a finer step would repeat p values.

        A step that is not finite would make p = 0 * inf = nan.
        """
        monkeypatch.setattr(cli, "run_sweep", pytest.fail)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--p-max", "0.0001", "--p-step", p_step])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        expected = (
            "must be a positive finite number" if p_step == "inf" else "must be at least 0.0001"
        )
        assert f"argument --p-step: p-step {expected}, got {float(p_step)!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "p_max, p_step, expected",
        [
            ("0.3", "0.05", (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)),
            ("0.3", "0.08", (0.0, 0.08, 0.16, 0.24)),
            ("0.15", "0.05", (0.0, 0.05, 0.1, 0.15)),
            ("1", "0.6", (0.0, 0.6)),
            ("0", "0.05", (0.0,)),
            ("0.0003", "0.0001", (0.0, 0.0001, 0.0002, 0.0003)),
        ],
    )
    def test_sweep_p_grid_stops_at_p_max(self, monkeypatch, capsys, p_max, p_step, expected):
        configs = []

        def record(config, progress=None):
            configs.append(config)
            return SweepResult()

        monkeypatch.setattr(cli, "run_sweep", record)
        assert main(["sweep", "--p-max", p_max, "--p-step", p_step]) == 0
        capsys.readouterr()
        assert tuple(configs[0].p_values) == expected
