"""Terminal charts: bar charts, scatter plots, time series.

The experiment harness prints its numbers as tables; these helpers add
the visual forms the paper's figures use — horizontal bar charts
(Fig. 1/7/8b), scatter plots (Fig. 7 right, Fig. 12) and step series
(Fig. 9) — rendered in plain ASCII so they work in any terminal and in
captured benchmark output.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


def bar_chart(
    items: Sequence[Tuple[str, float]],
    width: int = 50,
    unit: str = "",
    title: Optional[str] = None,
) -> str:
    """Horizontal bar chart, one row per (label, value).

    Raises:
        ValueError: for empty input, negative values or tiny width.
    """
    if not items:
        raise ValueError("bar chart needs at least one item")
    if width < 10:
        raise ValueError("width must be >= 10")
    if any(v < 0 for _, v in items):
        raise ValueError("bar chart values must be non-negative")
    peak = max(v for _, v in items) or 1.0
    label_width = max(len(label) for label, _ in items)
    lines = [title] if title else []
    for label, value in items:
        bar = "#" * max(1 if value > 0 else 0, int(value / peak * width))
        lines.append(f"{label:<{label_width}s} |{bar:<{width}s}| "
                     f"{value:.1f}{unit}")
    return "\n".join(lines)


def grouped_bar_chart(
    groups: Sequence[Tuple[str, Sequence[Tuple[str, float]]]],
    width: int = 40,
    unit: str = "",
) -> str:
    """Bars grouped by an outer category (Fig. 7's per-SoC panels)."""
    if not groups:
        raise ValueError("need at least one group")
    sections = []
    for group_label, items in groups:
        sections.append(
            bar_chart(items, width=width, unit=unit, title=f"[{group_label}]")
        )
    return "\n\n".join(sections)


def scatter_plot(
    points: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
    marker: str = "o",
    overlay: Optional[Sequence[Tuple[float, float]]] = None,
    overlay_marker: str = "+",
) -> str:
    """ASCII scatter plot with optional second series (Fig. 7 / 12).

    Raises:
        ValueError: for empty input or degenerate dimensions.
    """
    if not points:
        raise ValueError("scatter plot needs at least one point")
    if width < 10 or height < 5:
        raise ValueError("plot area too small")
    all_points = list(points) + list(overlay or [])
    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]

    def place(series, glyph):
        for x, y in series:
            col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
            row = min(height - 1, int((y - y_lo) / y_span * (height - 1)))
            grid[height - 1 - row][col] = glyph

    place(points, marker)
    if overlay:
        place(overlay, overlay_marker)

    lines = [f"{y_label} ({y_lo:.0f} .. {y_hi:.0f})"]
    lines.extend("|" + "".join(row) + "|" for row in grid)
    lines.append("+" + "-" * width + "+")
    lines.append(f" {x_label} ({x_lo:.0f} .. {x_hi:.0f})")
    if overlay:
        lines.append(f" {marker} = series 1, {overlay_marker} = series 2")
    return "\n".join(lines)


def step_series(
    series: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 10,
    label: str = "",
) -> str:
    """Step plot of a (time, value) trace (Fig. 9's frequency trace).

    Raises:
        ValueError: for empty input.
    """
    if not series:
        raise ValueError("series must be non-empty")
    times = [t for t, _ in series]
    values = [v for _, v in series]
    t_lo, t_hi = min(times), max(times)
    v_lo, v_hi = min(values), max(values)
    t_span = (t_hi - t_lo) or 1.0
    v_span = (v_hi - v_lo) or 1.0

    # Sample the step function at each column.
    ordered = sorted(series)
    columns = []
    for col in range(width):
        t = t_lo + col / max(1, width - 1) * t_span
        value = ordered[0][1]
        for time, val in ordered:
            if time <= t:
                value = val
            else:
                break
        columns.append(value)

    grid = [[" "] * width for _ in range(height)]
    for col, value in enumerate(columns):
        row = min(height - 1, int((value - v_lo) / v_span * (height - 1)))
        grid[height - 1 - row][col] = "#"
    lines = [f"{label} ({v_lo:.0f} .. {v_hi:.0f})"] if label else []
    lines.extend("|" + "".join(row) + "|" for row in grid)
    lines.append("+" + "-" * width + "+")
    lines.append(f" t: {t_lo:.0f} .. {t_hi:.0f} ms")
    return "\n".join(lines)

