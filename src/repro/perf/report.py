"""Plain-text table rendering and result serialization for the harness.

Renders the structured results of :mod:`repro.perf.tables` as fixed-width
tables in the style of the paper, with optional paper-reference columns so
every bench prints reproduction vs. publication side by side; also writes
the measured wall-clock numbers (:mod:`repro.perf.wallclock`) as a
machine-readable JSON artifact.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (wallclock -> report)
    from repro.perf.wallclock import WallclockResult

__all__ = ["render_table", "format_value", "side_by_side", "write_wallclock_json"]


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


def write_wallclock_json(
    path, results: "Sequence[WallclockResult]", extra: dict | None = None
) -> dict:
    """Write wall-clock results + host metadata as the JSON artifact.

    The file is the PR-level acceptance record: per dataset it stores the
    scalar-reference ("before") and batch ("after") decode times plus the
    measured speedup, together with enough host metadata to interpret the
    absolute numbers.  Returns the dict that was written.
    """
    import numpy as np

    doc = {
        "meta": {
            "generated_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "machine": platform.machine(),
            "note": (
                "decode_scalar_s is the pre-existing scalar reference "
                "decoder (before); decode_batch_s is the table-driven "
                "batch lane decoder (after); encode_s is the iterative "
                "reduce-shuffle encoder (before); encode_scan_s is the "
                "scan-pack fast path (after, bit-identical container); "
                "best-of-N wall-clock, sequential per-impl blocks."
            ),
        },
        "datasets": {r.dataset: r.to_dict() for r in results},
    }
    if extra:
        extra = dict(extra)
        serve = extra.pop("serve", None)
        if serve is not None:
            # the serving-layer load-generator section is a first-class
            # result, not host metadata — keep it top-level
            doc["serve"] = serve
        conform = extra.pop("conform", None)
        if conform is not None:
            # likewise the conformance cell counts: they qualify the
            # throughput numbers ("fast AND still bit-exact")
            doc["conform"] = conform
        codebooks = extra.pop("codebooks", None)
        if codebooks is not None:
            # the codebook-registry amortized fast-path numbers (cold
            # per-request codebook builds vs hot registered-id requests)
            doc["codebooks"] = codebooks
        tables = extra.pop("tables", None)
        if tables is not None:
            # the deep-book decode-table scenarios (NumPy lanes vs the
            # gap kernel on one subtable-descent table)
            doc["tables"] = tables
        doc["meta"].update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return doc
