"""Plain-text rendering of experiment results.

The benchmarks regenerate the paper's tables and figures as fixed-width
text; this module is the shared renderer, so every bench's output has the
same look and can be diffed across runs.
"""

from __future__ import annotations

from typing import Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str = "",
) -> str:
    """A fixed-width table with a title rule and an optional footnote."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()

    rule = "=" * max(len(title), sum(widths) + 2 * (len(widths) - 1))
    lines = [title, rule, fmt(headers), "-" * len(rule)]
    lines.extend(fmt(row) for row in cells)
    if note:
        lines.append("")
        lines.append(f"Note: {note}")
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence[object],
    series: dict[str, Sequence[str]],
    note: str = "",
) -> str:
    """A figure rendered as one row per series, one column per x value."""
    headers = [x_label] + [str(x) for x in xs]
    rows = [[name, *values] for name, values in series.items()]
    return render_table(title, headers, rows, note=note)
