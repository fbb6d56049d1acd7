"""ASCII rendering of figure series.

The benchmark harness reports each paper figure as rows; this module
turns those rows into terminal-friendly charts so the *shape* of a
figure (who wins, where lines cross) is visible directly in a terminal
without a plotting stack.

Only two chart types are needed: multi-series line charts (every paper
figure is one) and horizontal bar charts (handy for ablations).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_MARKERS = "ox+*#@%&"


def ascii_line_chart(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 64,
    height: int = 16,
    log_y: bool = False,
    title: str | None = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render ``{label: (xs, ys)}`` as a character grid.

    Each series gets a marker; the legend maps markers to labels.
    ``log_y`` plots on a log10 axis (the paper's timing figures are
    log-scale).  Points sharing a cell keep the first-drawn marker.
    """
    if not series:
        raise ValueError("need at least one series")
    for label, (xs, ys) in series.items():
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: x/y length mismatch")
        if not xs:
            raise ValueError(f"series {label!r} is empty")
        if log_y and any(y <= 0 for y in ys):
            raise ValueError(f"series {label!r} has non-positive y on a "
                             f"log axis")

    def transform(y: float) -> float:
        return math.log10(y) if log_y else y

    all_x = [x for xs, __ in series.values() for x in xs]
    all_y = [transform(y) for __, ys in series.values() for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for __ in range(height)]
    legend = []
    for i, (label, (xs, ys)) in enumerate(series.items()):
        marker = _MARKERS[i % len(_MARKERS)]
        legend.append(f"{marker} {label}")
        for x, y in zip(xs, ys):
            col = round((x - x_lo) / x_span * (width - 1))
            row = round((transform(y) - y_lo) / y_span * (height - 1))
            cell = grid[height - 1 - row][col]
            if cell == " ":
                grid[height - 1 - row][col] = marker

    y_top = f"{(10 ** y_hi if log_y else y_hi):.4g}"
    y_bottom = f"{(10 ** y_lo if log_y else y_lo):.4g}"
    margin = max(len(y_top), len(y_bottom), len(y_label))
    lines = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        if r == 0:
            prefix = y_top.rjust(margin)
        elif r == height - 1:
            prefix = y_bottom.rjust(margin)
        elif r == height // 2:
            prefix = y_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix} |{''.join(row)}|")
    lines.append(" " * margin + " +" + "-" * width + "+")
    x_axis = (f"{x_lo:.4g}".ljust(width // 2)
              + f"{x_hi:.4g}".rjust(width - width // 2))
    lines.append(" " * margin + "  " + x_axis)
    lines.append(" " * margin + "  " + x_label.center(width))
    lines.append("legend: " + "   ".join(legend))
    return "\n".join(lines)


def ascii_bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    title: str | None = None,
    unit: str = "",
) -> str:
    """Render ``{label: value}`` as horizontal bars (non-negative)."""
    if not values:
        raise ValueError("need at least one value")
    if any(v < 0 for v in values.values()):
        raise ValueError("bar chart values must be non-negative")
    peak = max(values.values()) or 1.0
    label_width = max(len(str(label)) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        bar = "#" * max(1 if value > 0 else 0,
                        round(value / peak * width))
        lines.append(f"{str(label).rjust(label_width)} | "
                     f"{bar.ljust(width)} {value:g}{unit}")
    return "\n".join(lines)


def series_from_rows(
    rows: Sequence[dict],
    x_key: str,
    y_key: str,
    label_keys: Sequence[str],
) -> dict[str, tuple[list[float], list[float]]]:
    """Group row dictionaries into line-chart series.

    ``label_keys`` name the columns whose values distinguish series
    (e.g. ``("method", "n")`` yields one line per method/set-size pair),
    matching how the paper's figures split their lines.
    """
    series: dict[str, tuple[list[float], list[float]]] = {}
    for row in rows:
        label = "/".join(str(row[k]) for k in label_keys)
        xs, ys = series.setdefault(label, ([], []))
        xs.append(float(row[x_key]))
        ys.append(float(row[y_key]))
    return series
