"""Plain-text table and series rendering shared by experiments and benches.

The experiment harness reproduces the paper's tables and figures as text:
tables are fixed-width column layouts, figures are printed as aligned data
series (error count on the x axis, one column per curve), which is the most
useful form for diffing against the paper's reported shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence


def format_cell(value, precision: int = 2) -> str:
    """Render one table cell."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return f"{value:.{precision}f}"
    return str(value)


def format_cell_with_error(value, error, precision: int = 2) -> str:
    """Render ``value ±error``; a missing error falls back to the bare value."""
    if value is None or error is None:
        return format_cell(value, precision)
    return f"{format_cell(value, precision)} ±{format_cell(error, precision)}"


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "",
                 precision: int = 2) -> str:
    """Render a fixed-width text table."""
    rendered_rows = [[format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in rendered_rows)
    return "\n".join(lines)


@dataclass
class Series:
    """One plotted curve of a figure.

    ``error_values`` are optional symmetric error bars (confidence-interval
    half-widths) aligned with ``values``; the text renderer shows them as
    ``value ±error``.
    """

    label: str
    values: List[Optional[float]]
    error_values: Optional[List[Optional[float]]] = None


@dataclass
class FigureData:
    """A reproduced figure: an x axis plus one or more curves."""

    title: str
    x_label: str
    x_values: List[float]
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_series(self, label: str, values: Sequence[Optional[float]],
                   errors: Optional[Sequence[Optional[float]]] = None) -> None:
        self.series.append(Series(
            label=label, values=list(values),
            error_values=list(errors) if errors is not None else None,
        ))

    def to_table(self, precision: int = 2) -> str:
        headers = [self.x_label] + [series.label for series in self.series]
        rows = []
        for index, x in enumerate(self.x_values):
            row = [x]
            for series in self.series:
                value = (series.values[index]
                         if index < len(series.values) else None)
                if series.error_values is not None:
                    error = (series.error_values[index]
                             if index < len(series.error_values) else None)
                    # Pre-render "value ±error" so the error bar shares the
                    # series' column instead of needing one of its own.
                    row.append(format_cell_with_error(value, error, precision))
                else:
                    row.append(value)
            rows.append(row)
        text = format_table(headers, rows, title=self.title, precision=precision)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text

    def series_by_label(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(label)


@dataclass
class TableData:
    """A reproduced table."""

    title: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, row: Sequence) -> None:
        self.rows.append(list(row))

    def to_text(self, precision: int = 2) -> str:
        text = format_table(self.headers, self.rows, title=self.title, precision=precision)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text

    def column(self, header: str) -> List:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]
