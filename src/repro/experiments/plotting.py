"""ASCII line charts for the reproduction report.

The paper's evaluation figures are line plots (quality or loss vs MTBE);
:func:`ascii_chart` renders measured-vs-paper series as terminal charts
so ``REPRODUCTION.md`` shows each figure's shape without any plotting
dependency.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

#: Plot glyphs assigned to series in order.
MARKERS = "ox+*#@%&"

#: Glyph marking a missing cell: a point whose y is nan/inf still shows
#: up as an explicit gap on the x axis instead of silently vanishing.
GAP_MARKER = "·"


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
) -> str:
    """Render named (x, y) series as an ASCII chart with a legend.

    A non-finite y value renders as an explicit ``·`` gap on the x axis
    (a missing cell must not silently vanish from the plot); a chart with
    no finite data at all degrades to a message.  ``log_x`` plots x on a
    log axis (the paper's MTBE axes are logarithmic).
    """
    points_by_name = {
        name: [
            ((math.log10(x) if log_x else x), y)
            for x, y in pts
            if math.isfinite(y) and (not log_x or x > 0)
        ]
        for name, pts in series.items()
    }
    gap_xs = sorted(
        {
            (math.log10(x) if log_x else x)
            for pts in series.values()
            for x, y in pts
            if not math.isfinite(y) and (not log_x or x > 0)
        }
    )
    all_points = [p for pts in points_by_name.values() for p in pts]
    if not all_points:
        return "(no finite data to plot)"
    xs = [p[0] for p in all_points] + gap_xs
    ys = [p[1] for p in all_points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for x in gap_xs:
        # Missing cells sit on the bottom row; real markers overwrite them.
        col = round((x - x_min) / (x_max - x_min) * (width - 1))
        grid[height - 1][col] = GAP_MARKER
    for index, (name, pts) in enumerate(points_by_name.items()):
        marker = MARKERS[index % len(MARKERS)]
        for x, y in pts:
            col = round((x - x_min) / (x_max - x_min) * (width - 1))
            row = round((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][col] = marker

    left_labels = [f"{y_max:8.1f} |", *([" " * 8 + " |"] * (height - 2)), f"{y_min:8.1f} |"]
    lines = [label + "".join(row) for label, row in zip(left_labels, grid)]
    lines.append(" " * 9 + "+" + "-" * width)
    x_lo = 10**x_min if log_x else x_min
    x_hi = 10**x_max if log_x else x_max
    axis = f"{x_lo:,.0f}".ljust(width // 2) + f"{x_hi:,.0f}".rjust(width // 2)
    lines.append(" " * 10 + axis + ("  " + x_label if x_label else ""))
    if y_label:
        lines.insert(0, y_label)
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {name}"
        for i, name in enumerate(points_by_name)
    )
    if gap_xs:
        legend += f"   {GAP_MARKER} missing"
    lines.append("  legend: " + legend)
    return "\n".join(lines)

