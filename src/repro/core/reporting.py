"""Plain-text and CSV reporting of analysis and sweep results.

The CLI uses these helpers to render the paper's figures as ASCII plots (one
60x18 chart per gamma, one marker per series and :data:`OVERLAP_MARKER` where
series share a cell), results as text tables and sweeps as CSV files.  Every
format is fixed: columns are the union of the row keys in insertion order,
floats print as ``{:.4f}`` in tables, and wall-clock CSV columns keep 4
significant digits.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Set

from .results import SweepResult

#: Plot markers of the series, in legend order (reused past the eighth series).
MARKERS = "ox+*#@%&"
#: Plot marker of a cell that holds points of two or more series.
OVERLAP_MARKER = "="


def round_significant(value: float, digits: int = 4) -> float:
    """Round ``value`` to ``digits`` significant digits (0.0 stays 0.0)."""
    if value == 0.0 or not math.isfinite(value):
        return value
    return round(value, digits - 1 - int(math.floor(math.log10(abs(value)))))


def _columns(rows: Sequence[Mapping[str, object]]) -> List[str]:
    """The union of the row keys, in order of first appearance."""
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def write_csv(rows: Iterable[Mapping[str, object]], path: str | Path) -> Path:
    """Write dictionaries as CSV; return the path written to.

    The columns are the union of the row keys in insertion order (a missing
    key is an empty cell), deterministic for rows produced in canonical
    order.  Wall-clock columns (any column whose name contains
    ``"seconds"``) are rounded to 4 significant digits, keeping the noisy
    tail of timings out of the file so re-runs do not churn every row.
    Parent directories are created.
    """
    rows = list(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = _columns(rows)
    # Explicit encoding: the default follows the host locale, so a C-locale
    # (ASCII) machine would write a different -- or crash on a non-ASCII
    # series/error cell -- CSV than a UTF-8 one.
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key, value in out.items():
                if "seconds" in key and isinstance(value, float):
                    out[key] = round_significant(value)
            writer.writerow(out)
    return path


def render_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Render dictionaries as a fixed-width text table (floats as ``{:.4f}``)."""
    rows = list(rows)
    if not rows:
        return "(empty table)"
    columns = _columns(rows)

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
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


def ascii_plot(sweep: SweepResult, gamma: float) -> str:
    """Render one Figure 2 panel (fixed gamma) as a 60x18 ASCII scatter plot.

    Each series gets a distinct marker; the x-axis is the adversarial resource
    ``p`` and the y-axis the expected relative revenue.  A cell holding points
    of two or more series shows :data:`OVERLAP_MARKER`, which the legend then
    explains, so no series vanishes under another.
    """
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
    width, height = 60, 18
    grid = [[" " for _ in range(width)] for _ in range(height)]

    def to_cell(x: float, y: float) -> tuple[int, int]:
        if x_max == x_min:
            column = 0
        else:
            column = int(round((x - x_min) / (x_max - x_min) * (width - 1)))
        row = int(round((y - y_min) / (y_max - y_min) * (height - 1)))
        return height - 1 - row, column

    legend_lines = []
    # The series (by legend index) with a point in each occupied cell.
    owners: Dict[tuple[int, int], Set[int]] = {}
    for index, name in enumerate(series_names):
        legend_lines.append(f"  {MARKERS[index % len(MARKERS)]} {name}")
        for point in points_by_series[name]:
            owners.setdefault(to_cell(point.p, point.errev), set()).add(index)
    for (row, column), indices in owners.items():
        if len(indices) > 1:
            grid[row][column] = OVERLAP_MARKER
        else:
            grid[row][column] = MARKERS[min(indices) % len(MARKERS)]
    if any(len(indices) > 1 for indices in owners.values()):
        legend_lines.append(f"  {OVERLAP_MARKER} points of two or more series")

    lines = [f"ERRev vs p   (gamma = {gamma})", f"y: 0 .. {y_max:.3f}   x: {x_min} .. {x_max}"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.extend(legend_lines)
    return "\n".join(lines)
