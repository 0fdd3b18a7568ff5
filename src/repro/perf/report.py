"""Plain-text table rendering for the harness.

Renders the structured results of :mod:`repro.perf.tables` as fixed-width
tables in the style of the paper, with optional paper-reference columns so
every bench prints reproduction vs. publication side by side.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["render_table", "format_value", "side_by_side"]


def format_value(v: Any, ndigits: int = 3) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        if abs(v) >= 0.01:
            return f"{v:.{ndigits}f}"
        return f"{v:.2e}"
    return str(v)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str = "",
    ndigits: int = 3,
) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    cells = [[format_value(v, ndigits) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))

    def fmt_row(row: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(row, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(fmt_row(row))
    return "\n".join(lines)


def side_by_side(measured: float, paper: float, unit: str = "") -> str:
    """'measured (paper: x, ratio r)' cell used in EXPERIMENTS.md tables."""
    if paper in (None, 0) or paper != paper:  # nan-safe
        return f"{format_value(measured)}{unit}"
    ratio = measured / paper if paper else float("inf")
    return (
        f"{format_value(measured)}{unit} "
        f"(paper {format_value(paper)}{unit}, x{ratio:.2f})"
    )
