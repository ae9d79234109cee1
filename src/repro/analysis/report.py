"""Plain-text table rendering for benchmark and example output.

The CLI, the benchmarks and the examples print the same rows/series the paper
reports; this module keeps that presentation in one place so every table looks
the same.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def format_cell(value: Any, float_digits: int = 2) -> str:
    """Render a single cell: floats get fixed precision, everything else ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Any]],
                 title: Optional[str] = None,
                 float_digits: int = 2) -> str:
    """Render an aligned plain-text table.

    The first column is left-aligned (labels), the rest right-aligned
    (numbers), matching the layout of the paper's tables.
    """
    rendered_rows: List[List[str]] = [
        [format_cell(cell, float_digits) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            width = widths[index] if index < len(widths) else len(cell)
            parts.append(cell.ljust(width) if index == 0 else cell.rjust(width))
        return "  ".join(parts)

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(format_row(list(headers)))
    lines.append(format_row(["-" * width for width in widths]))
    for row in rendered_rows:
        lines.append(format_row(row))
    return "\n".join(lines)


def render_kv(pairs: Sequence[Sequence[Any]], title: Optional[str] = None) -> str:
    """Render a two-column key/value block (used by the examples)."""
    return render_table(["metric", "value"], pairs, title=title)


def print_table(headers: Sequence[str],
                rows: Iterable[Sequence[Any]],
                title: Optional[str] = None,
                float_digits: int = 2) -> None:
    """Convenience wrapper printing :func:`render_table` output."""
    print(render_table(headers, rows, title=title, float_digits=float_digits))
