"""Plain-text and CSV reporting of analysis and sweep results.

The benchmark harness and the CLI use these helpers to render the paper's
figures as ASCII plots (one chart per gamma, one marker per series) and to dump
machine-readable CSV files next to the benchmark output.

:class:`ProgressReporter` is the one progress channel of the execution plane
(:mod:`repro.core.execution`): the engine reports through it instead of
wrapping its own ``if progress is not None`` closure, and the CLI builds it once with consistent
``--quiet`` semantics (progress always goes to stderr, never stdout).
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from .results import SweepResult


def _print_stderr(message: str) -> None:
    """Default sink of :meth:`ProgressReporter.stderr`: one line to stderr."""
    print(message, file=sys.stderr)


class ProgressReporter:
    """Uniform per-event progress channel of every sweep, serial or pooled.

    Wraps an optional ``Callable[[str], None]`` callback so reporting sites
    can simply call the reporter (``reporter("gamma=... p=...")``) without the
    ``if progress is not None`` guard at every reporting site.  A reporter
    whose callback is ``None`` is *disabled* and swallows every message --
    exactly what ``--quiet`` means.

    Progress is diagnostics, not output: :meth:`stderr` always prints to
    ``sys.stderr``, keeping stdout reserved for results (plots, tables, final
    summaries) on every CLI subcommand.
    """

    __slots__ = ("_callback",)

    def __init__(self, callback: Optional[Callable[[str], None]] = None) -> None:
        """Wrap ``callback`` (``None`` = disabled: every message is dropped)."""
        self._callback = callback

    @classmethod
    def wrap(cls, progress: Optional[Callable[[str], None]]) -> "ProgressReporter":
        """Adapt a legacy ``progress`` callback (idempotent for reporters)."""
        if isinstance(progress, ProgressReporter):
            return progress
        return cls(progress)

    @classmethod
    def stderr(cls, *, quiet: bool = False) -> "ProgressReporter":
        """CLI reporter: one line per event on stderr, or silent with ``quiet``."""
        return cls(None if quiet else _print_stderr)

    @property
    def enabled(self) -> bool:
        """Whether messages reach a callback (``False`` under ``--quiet``)."""
        return self._callback is not None

    def __call__(self, message: str) -> None:
        """Report one progress line (no-op when disabled)."""
        if self._callback is not None:
            self._callback(message)


def round_significant(value: float, digits: int = 4) -> float:
    """Round ``value`` to ``digits`` significant digits (0.0 stays 0.0)."""
    if value == 0.0 or not math.isfinite(value):
        return value
    return round(value, digits - 1 - int(math.floor(math.log10(abs(value)))))


def write_csv(
    rows: Iterable[Mapping[str, object]],
    path: str | Path,
    *,
    columns: Optional[Sequence[str]] = None,
    time_significant_digits: Optional[int] = 4,
) -> Path:
    """Write dictionaries as CSV with a stable column order.

    Args:
        rows: The rows to write.
        path: Output path (parent directories are created).
        columns: Explicit column order.  When omitted the columns are the union
            of the row keys in insertion order -- deterministic for rows
            produced in canonical order, but callers whose row sets vary by
            configuration (benchmark writers in particular) should pass the
            full column list explicitly so re-runs never reorder the file.
            Keys outside ``columns`` are dropped; missing keys become empty
            cells.
        time_significant_digits: Wall-clock columns (any column whose name
            contains ``"seconds"``) are rounded to this many significant
            digits, keeping the noisy sub-precision tail of timings out of the
            file so re-runs do not churn every row.  ``None`` disables the
            rounding.

    Returns:
        The path written to.
    """
    rows = list(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    # Explicit encoding: the default follows the host locale, so a C-locale
    # (ASCII) machine would write a different -- or crash on a non-ASCII
    # series/error cell -- CSV than a UTF-8 one.
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), restval="", extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            out = dict(row)
            if time_significant_digits is not None:
                for key, value in out.items():
                    if "seconds" in key and isinstance(value, float):
                        out[key] = round_significant(value, time_significant_digits)
            writer.writerow(out)
    return path


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    *,
    float_format: str = "{:.4f}",
) -> str:
    """Render dictionaries as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return "" if value is None else str(value)

    rendered = [[fmt(row.get(column)) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), max((len(cells[index]) for cells in rendered), default=0))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[index]) for index, column in enumerate(columns))
    separator = "  ".join("-" * widths[index] for index in range(len(columns)))
    body = [
        "  ".join(cells[index].ljust(widths[index]) for index in range(len(columns)))
        for cells in rendered
    ]
    return "\n".join([header, separator, *body])


def ascii_plot(
    sweep: SweepResult,
    gamma: float,
    *,
    width: int = 60,
    height: int = 18,
) -> str:
    """Render one Figure 2 panel (fixed gamma) as an ASCII scatter plot.

    Each series gets a distinct marker; the x-axis is the adversarial resource
    ``p`` and the y-axis the expected relative revenue.
    """
    markers = "ox+*#@%&"
    series_names = sweep.series_names()
    points_by_series: Dict[str, List] = {
        name: sweep.series(name, gamma=gamma) for name in series_names
    }
    all_points = [point for points in points_by_series.values() for point in points]
    if not all_points:
        return f"(no data for gamma={gamma})"
    x_values = [point.p for point in all_points]
    y_values = [point.errev for point in all_points]
    x_min, x_max = min(x_values), max(x_values)
    y_min, y_max = 0.0, max(max(y_values), 1e-9)
    grid = [[" " for _ in range(width)] for _ in range(height)]

    def to_cell(x: float, y: float) -> tuple[int, int]:
        if x_max == x_min:
            column = 0
        else:
            column = int(round((x - x_min) / (x_max - x_min) * (width - 1)))
        row = int(round((y - y_min) / (y_max - y_min) * (height - 1)))
        return height - 1 - row, column

    legend_lines = []
    for index, name in enumerate(series_names):
        marker = markers[index % len(markers)]
        legend_lines.append(f"  {marker} {name}")
        for point in points_by_series[name]:
            row, column = to_cell(point.p, point.errev)
            grid[row][column] = marker

    lines = [f"ERRev vs p   (gamma = {gamma})", f"y: 0 .. {y_max:.3f}   x: {x_min} .. {x_max}"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.extend(legend_lines)
    return "\n".join(lines)
