"""Plain-text table formatting for the CLI and the reproduction report."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.quality.metrics import QUALITY_CAP_DB


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Fixed-width text table (right-aligned numbers, left-aligned first col)."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in materialized:
        lines.append(
            "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if math.isinf(cell):
            return "inf" if cell > 0 else "-inf"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) < 0.01 and cell != 0:
            return f"{cell:.2e}"
        return f"{cell:.2f}"
    return str(cell)


def db_or_errorfree(value: float, cap: float = QUALITY_CAP_DB) -> str:
    """Render a quality value, marking capped/error-free runs."""
    if math.isinf(value) or value >= cap:
        return "error-free"
    return f"{value:.1f} dB"
