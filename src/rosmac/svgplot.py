"""SVG emitters for line charts and phase portraits, without a plotting library."""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

__all__ = ["line_chart", "phase_portrait"]

_MARGIN_LEFT = 62
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 46

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_MAX = sys.float_info.max


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_values(lo: float, hi: float) -> list[float]:
    if not (hi > lo):
        return [lo]
    raw_step = (hi - lo) / 5  # about five ticks per axis
    if raw_step == math.inf:  # bounds further apart than the float maximum
        raw_step = hi / 5 - lo / 5
    power = 10.0 ** math.floor(math.log10(raw_step)) if raw_step > 0.0 else 0.0
    if power == 0.0:  # a range of a few subnormals: no step to tick by
        return [lo]
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * power
        if raw_step <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    last = min(hi + 1e-9 * step, _MAX)
    while value <= last:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        if value + step == value:  # a step below half an ulp of value
            break
        value += step
    return ticks


def _tick_label(value: float) -> str:
    return f"{value:g}"


class _Frame:
    """Affine map from a data rectangle to the plot area in pixels."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi, width, height):
        self.x_lo, self.x_hi = _widened(x_lo, x_hi)
        self.y_lo, self.y_hi = _widened(y_lo, y_hi)
        # y bounds further apart than the float maximum (x, time or prey, is never
        # negative) are mapped at half scale; halving is exact, so 1 or 1/2 gives
        # the same pixels.
        self.y_scale = 1.0 if self.y_hi - self.y_lo < math.inf else 0.5
        self.width, self.height = width, height
        self.plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
        self.plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(self, x: float) -> float:
        return _MARGIN_LEFT + (x - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def py(self, y: float) -> float:
        s, hi = self.y_scale, self.y_hi
        return _MARGIN_TOP + (hi * s - y * s) / (hi * s - self.y_lo * s) * self.plot_h


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """An empty range gets width 1, or one ulp where |lo| >= 2**53 would swallow 1;
    at the float maximum it grows downward."""
    if not hi <= lo:
        return lo, hi
    width = max(1.0, math.ulp(lo))
    return (lo, lo + width) if lo + width < math.inf else (lo - width, lo)


def _axes(frame: _Frame, title: str, x_label: str, y_label: str) -> list[str]:
    left, right = _MARGIN_LEFT, frame.width - _MARGIN_RIGHT
    top, bottom = _MARGIN_TOP, frame.height - _MARGIN_BOTTOM
    parts = [
        f'<rect x="{left}" y="{top}" width="{frame.plot_w}" height="{frame.plot_h}" '
        'fill="none" stroke="#888" stroke-width="1"/>'
    ]
    for x in _tick_values(frame.x_lo, frame.x_hi):
        px = frame.px(x)
        parts.append(f'<line x1="{_fmt(px)}" y1="{bottom}" x2="{_fmt(px)}" y2="{bottom + 4}" stroke="#555"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{bottom + 17}" font-size="11" text-anchor="middle" '
            f'fill="#333">{_tick_label(x)}</text>'
        )
    for y in _tick_values(frame.y_lo, frame.y_hi):
        py = frame.py(y)
        parts.append(f'<line x1="{left - 4}" y1="{_fmt(py)}" x2="{left}" y2="{_fmt(py)}" stroke="#555"/>')
        parts.append(
            f'<text x="{left - 7}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end" '
            f'fill="#333">{_tick_label(y)}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.1f}" y="{bottom + 34}" font-size="12" '
        f'text-anchor="middle" fill="#111">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(top + bottom) / 2:.1f}" font-size="12" text-anchor="middle" '
        f'fill="#111" transform="rotate(-90 16 {(top + bottom) / 2:.1f})">{y_label}</text>'
    )
    if title:
        parts.append(
            f'<text x="{(left + right) / 2:.1f}" y="20" font-size="13" text-anchor="middle" '
            f'fill="#111">{title}</text>'
        )
    return parts


def _polyline(frame: _Frame, xs, ys, color: str, width: float, dash: str | None = None) -> str:
    # px and py on arrays: the operations of the per-point map in its order, so
    # the bits of one point at a time, and Python floats overflow silently too.
    with np.errstate(over="ignore", invalid="ignore"):
        pixels = np.stack([frame.px(np.asarray(xs, dtype=float)),
                           frame.py(np.asarray(ys, dtype=float))], axis=1)
    points = " ".join(["%.2f,%.2f"] * len(pixels)) % tuple(pixels.ravel().tolist())
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{points}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash_attr}/>'
    )


def _m4_indices(starts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sorted, distinct indices of the first, last, first minimum and first maximum
    point of every pixel column; starts holds the index where each column begins."""
    positions = np.arange(len(y))
    counts = np.diff(np.append(starts, len(y)))
    keep = [starts, starts + counts - 1]
    for reduce in (np.minimum, np.maximum):
        extreme = np.repeat(reduce.reduceat(y, starts), counts)
        # A column with no match (a NaN extreme) falls back to the last point.
        keep.append(np.minimum.reduceat(np.where(y == extreme, positions, len(y) - 1), starts))
    return np.unique(np.concatenate(keep))


def line_chart(
    x: Sequence[float],
    curves: Sequence[dict],
    *,
    title: str = "",
    y_label: str = "",
) -> str:
    """Render curves against time t, the shared and ascending abscissa x.

    Each curve is a dict with keys y (required), label, color, width, dash.
    With more than four points per pixel column, each curve is drawn through
    the first, last, minimum and maximum point of every column (M4; Jugel et
    al., PVLDB 7(10), 2014), which rasterises to the same line at this width.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(curve["y"], dtype=float) for curve in curves]
    y_lo = float(min(np.min(y) for y in ys))
    y_hi = float(max(np.max(y) for y in ys))
    pad = 0.05 * (y_hi - y_lo or 1.0)
    width, height = 640, 400
    # Padding near the float maximum stops there instead of overflowing.
    frame = _Frame(float(np.min(x)), float(np.max(x)), max(y_lo - pad, -_MAX),
                   min(y_hi + pad, _MAX), width, height)
    if len(x) > 4 * frame.plot_w:
        scaled = (x - frame.x_lo) / (frame.x_hi - frame.x_lo) * frame.plot_w
        columns = np.minimum(np.floor(scaled), frame.plot_w - 1)
        starts = np.flatnonzero(np.diff(columns, prepend=-1.0))
        picks = [_m4_indices(starts, y) for y in ys]
    else:
        picks = [slice(None)] * len(ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    parts.extend(_axes(frame, title, "t", y_label))
    legend_y = _MARGIN_TOP + 14
    for index, (curve, y, pick) in enumerate(zip(curves, ys, picks)):
        color = curve.get("color", PALETTE[index % len(PALETTE)])
        parts.append(
            _polyline(frame, x[pick], y[pick], color, curve.get("width", 1.6),
                      curve.get("dash"))
        )
        label = curve.get("label")
        if label:
            lx = width - _MARGIN_RIGHT - 130
            parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{lx + 28}" y="{legend_y + 4}" font-size="11" fill="#333">{label}</text>')
            legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts)


def phase_portrait(
    field: np.ndarray,
    trajectories: Sequence[tuple[Sequence[float], Sequence[float]]],
    markers: Sequence[tuple[float, float, str]],
    *,
    bounds: tuple[float, float, float, float],
    title: str = "",
) -> str:
    """Render a vector field with overlaid trajectories and markers.

    field holds one row (n, p, dn, dp) per arrow; marker glyphs are "disc"
    (filled), "circle" (hollow), or "cross" for saddles.
    """
    n_lo, n_hi, p_lo, p_hi = bounds
    width, height = 540, 540
    frame = _Frame(n_lo, n_hi, p_lo, p_hi, width, height)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    parts.extend(_axes(frame, title, "n (prey)", "p (predator)"))
    if len(field):
        count = max(2, int(math.sqrt(len(field))))
        arrow_px = 0.42 * min(frame.plot_w, frame.plot_h) / (count - 1)
        for n, p, dn, dp in field.tolist():
            mag = math.hypot(dn, dp)
            if mag == 0.0:
                continue
            x0, y0 = frame.px(n), frame.py(p)
            # Screen-space direction; SVG y runs downward.
            ux, uy = dn / mag, -dp / mag
            x1, y1 = x0 + ux * arrow_px, y0 + uy * arrow_px
            parts.append(
                f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
                'stroke="#9ab" stroke-width="1"/>'
            )
            hx, hy = -uy, ux
            parts.append(
                f'<polygon points="{_fmt(x1)},{_fmt(y1)} '
                f'{_fmt(x1 - 3.4 * ux + 1.7 * hx)},{_fmt(y1 - 3.4 * uy + 1.7 * hy)} '
                f'{_fmt(x1 - 3.4 * ux - 1.7 * hx)},{_fmt(y1 - 3.4 * uy - 1.7 * hy)}" '
                'fill="#9ab"/>'
            )
    for index, (ns, ps) in enumerate(trajectories):
        parts.append(_polyline(frame, ns, ps, PALETTE[index % len(PALETTE)], 1.8))
    for n, p, glyph in markers:
        x0, y0 = frame.px(n), frame.py(p)
        if glyph == "disc":
            parts.append(f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="5" fill="#111"/>')
        elif glyph == "circle":
            parts.append(
                f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="5" fill="white" stroke="#111" stroke-width="1.6"/>'
            )
        else:
            parts.append(
                f'<path d="M {_fmt(x0 - 4.5)} {_fmt(y0 - 4.5)} L {_fmt(x0 + 4.5)} {_fmt(y0 + 4.5)} '
                f'M {_fmt(x0 - 4.5)} {_fmt(y0 + 4.5)} L {_fmt(x0 + 4.5)} {_fmt(y0 - 4.5)}" '
                'stroke="#111" stroke-width="1.8" fill="none"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
