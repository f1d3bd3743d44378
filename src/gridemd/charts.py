"""Two-panel SVG chart from sweep summaries, built as plain strings.

Left panel: mean relative error of the raw vectorized estimate and of the
quasi distance against the exact distance, per grid height. Right panel:
mean per-call times of all three computations on a log scale. No plotting
library is used; the output is self-contained static SVG.

Text is written into the SVG unescaped. That is safe because every text
node holds only a number, a unit or a fixed label from ``ERROR_SERIES``,
``TIME_SERIES`` or the titles below; any other text must be escaped.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TextIO

from .bench import SweepSummary
from .errors import EmptyInputError

PANEL_W = 440
PANEL_H = 360
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 40
MARGIN_B = 48
GAP = 40
LINEAR_TICKS = 5

ERROR_SERIES = (
    ("series-err-wd", "mean_err_wd", "#d62728", "raw 1D on vec"),
    ("series-err-qmwd", "mean_err_qmwd", "#1f77b4", "quasi distance"),
)
TIME_SERIES = (
    ("series-time-mwd", "mean_time_mwd_ns", "#2ca02c", "exact"),
    ("series-time-qmwd", "mean_time_qmwd_ns", "#1f77b4", "quasi"),
    ("series-time-wd", "mean_time_wd_ns", "#d62728", "raw 1D"),
)


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".") or "0"


def _time_label(ns: float) -> str:
    return f"{ns / 1e6:g} ms" if ns >= 1e6 else f"{ns / 1e3:g} us" if ns >= 1e3 else f"{ns:g} ns"


def _linear_ticks(top: float) -> list[float]:
    """Ticks from 0 past ``top > 0`` at a round step near ``top / LINEAR_TICKS``."""
    step = top / LINEAR_TICKS
    mag = 10 ** math.floor(math.log10(step))
    for mult in (1, 2, 2.5, 5, 10):
        if mag * mult >= step:
            step = mag * mult
            break
    n = math.ceil(top / step)
    return [i * step for i in range(n + 1)]


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def _panel(
    parts: list[str],
    rows: Sequence[SweepSummary],
    x0: float,
    title: str,
    series: Sequence[tuple[str, str, str, str]],
    ticks: Sequence[float],
    y_of: Callable[[float], float],
    tick_label: Callable[[float], str],
) -> None:
    """One panel, top to bottom in document order: frame and title, y grid
    with labels, per series a polyline and its markers, the m axis, the axis
    title and the legend. ``y_of`` maps a value to its y."""
    y0 = float(MARGIN_T)
    parts.append(
        f'<rect x="{x0:.1f}" y="{y0:.1f}" width="{PANEL_W}" height="{PANEL_H}" '
        'fill="none" stroke="#888" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{x0 + PANEL_W / 2:.1f}" y="{y0 - 12:.1f}" font-size="14" '
        f'text-anchor="middle" fill="#222">{title}</text>'
    )
    for tv in ticks:
        y = y_of(tv)
        parts.append(
            f'<line x1="{x0:.1f}" y1="{y:.1f}" x2="{x0 + PANEL_W:.1f}" '
            f'y2="{y:.1f}" stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 6:.1f}" y="{y + 4:.1f}" font-size="11" '
            f'text-anchor="end" fill="#444">{tick_label(tv)}</text>'
        )

    ms = [s.m for s in rows]
    lo, hi = min(ms), max(ms)
    span = (hi - lo) or 1
    xs = {m: x0 + 10 + (m - lo) / span * (PANEL_W - 20) for m in ms}
    for sid, field, color, _ in series:
        pts = [
            (xs[s.m], y_of(getattr(s, field)))
            for s in rows
            if getattr(s, field) is not None
        ]
        body = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        parts.append(
            f'<polyline id="{sid}" points="{body}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="{color}"/>')

    y_axis = y0 + PANEL_H
    for m in ms if len(ms) <= 12 else ms[:: len(ms) // 12]:
        x = xs[m]
        parts.append(
            f'<line x1="{x:.1f}" y1="{y_axis:.1f}" x2="{x:.1f}" y2="{y_axis + 5:.1f}" '
            'stroke="#444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y_axis + 18:.1f}" font-size="11" '
            f'text-anchor="middle" fill="#444">{m}</text>'
        )
    parts.append(
        f'<text x="{x0 + PANEL_W / 2:.1f}" y="{y_axis + 38:.1f}" '
        'font-size="12" text-anchor="middle" fill="#222">grid height m</text>'
    )

    lx = x0 + 16
    for i, (_, _, color, label) in enumerate(series):
        ly = y0 + 20 + i * 18
        parts.append(
            f'<line x1="{lx:.1f}" y1="{ly:.1f}" x2="{lx + 22:.1f}" y2="{ly:.1f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.1f}" y="{ly + 4:.1f}" font-size="12" '
            f'fill="#222">{label}</text>'
        )


def emit_svg(summaries: Sequence[SweepSummary], dest: TextIO) -> None:
    """Render the two-panel chart for the given per-size summaries."""
    if not summaries:
        raise EmptyInputError("no summaries to chart")
    rows = sorted(summaries, key=lambda s: s.m)
    n = rows[0].n

    total_w = MARGIN_L + PANEL_W + GAP + MARGIN_L + PANEL_W + MARGIN_R
    total_h = MARGIN_T + PANEL_H + MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">',
        f'<rect x="0" y="0" width="{total_w}" height="{total_h}" fill="#ffffff"/>',
    ]

    # Left panel: mean relative error, linear y starting at 0.
    err_top = max(
        (getattr(s, field) or 0.0 for s in rows for _, field, _, _ in ERROR_SERIES),
        default=0.0,
    )
    ticks = _linear_ticks(err_top if err_top > 0 else 1.0)
    top_val = ticks[-1]
    _panel(
        parts, rows, float(MARGIN_L), f"Mean relative error vs exact (n={n})",
        ERROR_SERIES, ticks, lambda v: MARGIN_T + PANEL_H - v / top_val * (PANEL_H - 20), _fmt,
    )

    # Right panel: mean per-call time, log y.
    times = [
        max(float(getattr(s, field)), 1.0)
        for s in rows
        for _, field, _, _ in TIME_SERIES
        if getattr(s, field) is not None
    ]
    t_lo, t_hi = (min(times), max(times)) if times else (1.0, 10.0)
    if t_lo == t_hi:
        t_hi = t_lo * 10
    lticks = _log_ticks(t_lo, t_hi)
    lo_l, hi_l = math.log10(lticks[0]), math.log10(lticks[-1])

    def ty(v: float) -> float:
        frac = (math.log10(max(float(v), 1.0)) - lo_l) / (hi_l - lo_l)
        return MARGIN_T + PANEL_H - frac * (PANEL_H - 20)

    _panel(
        parts, rows, float(MARGIN_L + PANEL_W + GAP + MARGIN_L), "Mean time per call (log scale)",
        TIME_SERIES, lticks, ty, _time_label,
    )

    parts.append("</svg>")
    dest.write("\n".join(parts) + "\n")
