"""Minimal SVG emitters for line plots and matrix heat maps.

No plotting dependency: figures are assembled as SVG strings and written
by the caller.  Layout is fixed and intentionally plain — these are
artifact figures, not a charting toolkit.  Each element kind has one
template, which takes coordinates already formatted by ``_coord``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

# line plot: canvas, margins around the plot area, axis padding fraction
_WIDTH, _HEIGHT = 640.0, 420.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 72.0, 18.0, 42.0, 52.0
_PLOT_W = _WIDTH - _LEFT - _RIGHT
_PLOT_H = _HEIGHT - _TOP - _BOTTOM
_PAD_FRACTION = 0.06
# heat map: side of one matrix cell
_CELL = 20.0


def _fmt(x: float) -> str:
    return format(float(x), ".4g")


def _coord(x: float) -> str:
    return format(float(x), ".2f")


def _svg(width: float, height: float, body: list[str]) -> str:
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        *body, "</svg>\n"])


def _text(x: str, y: str, size: int, text, anchor: str = "",
          transform: str = "") -> str:
    body = (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}" font-family="sans-serif" '
            f'font-size="{size}"{anchor}{transform}>{body}</text>')


def _line(x1: str, y1: str, x2: str, y2: str, stroke: str,
          width: str) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _rect(x: str, y: str, width: str, height: str, fill: str,
          stroke: str, stroke_width: str = "") -> str:
    if stroke_width:
        stroke_width = f' stroke-width="{stroke_width}"'
    return (f'<rect x="{x}" y="{y}" width="{width}" height="{height}" '
            f'fill="{fill}" stroke="{stroke}"{stroke_width}/>')


@dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]
    yerr: Sequence[float] | None = None


def _bounds(values):
    lo = float(min(values))
    hi = float(max(values))
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = _PAD_FRACTION * (hi - lo)
    return lo - pad, hi + pad


def line_plot(series: Sequence[Series], title: str = "", xlabel: str = "",
              ylabel: str = "") -> str:
    """Polyline plot with markers, optional error bars, and a legend."""
    if not series:
        raise ValueError("need at least one series")
    xs_all = [float(v) for s in series for v in s.x]
    ys_all = []
    errs = [[0.0] * len(s.y) if s.yerr is None else s.yerr for s in series]
    for s, err in zip(series, errs):
        if len(err) != len(s.y) or len(s.x) != len(s.y):
            raise ValueError("series arrays must have matching lengths")
        for y, e in zip(s.y, err):
            e = float(e) if math.isfinite(e) else 0.0
            ys_all.extend([float(y) - e, float(y) + e])
    x_lo, x_hi = _bounds(xs_all)
    y_lo, y_hi = _bounds(ys_all)

    def px(x):
        return _LEFT + (float(x) - x_lo) / (x_hi - x_lo) * _PLOT_W

    def py(y):
        return _TOP + (y_hi - float(y)) / (y_hi - y_lo) * _PLOT_H

    left, right = _coord(_LEFT), _coord(_LEFT + _PLOT_W)
    top, bottom = _coord(_TOP), _coord(_TOP + _PLOT_H)
    # frame, grid, ticks
    out = [_rect(left, top, _coord(_PLOT_W), _coord(_PLOT_H), "none",
                 "#333333", "1")]
    for tick in np.linspace(x_lo, x_hi, 5):
        x = _coord(px(tick))
        out += [_line(x, top, x, bottom, "#dddddd", "0.7"),
                _text(x, _coord(_HEIGHT - 34.0), 11, _fmt(tick), "middle")]
    for tick in np.linspace(y_lo, y_hi, 5):
        y = py(tick)
        out += [_line(left, _coord(y), right, _coord(y), "#dddddd", "0.7"),
                _text(_coord(_LEFT - 6.0), _coord(y + 3.5), 11, _fmt(tick),
                      "end")]
    if title:
        out.append(_text(_coord(_WIDTH / 2), "24", 14, title, "middle"))
    if xlabel:
        out.append(_text(_coord(_LEFT + _PLOT_W / 2),
                         _coord(_HEIGHT - 12.0), 12, xlabel, "middle"))
    if ylabel:
        cx, cy = _coord(16.0), _coord(_TOP + _PLOT_H / 2)
        out.append(_text(cx, cy, 12, ylabel, "middle",
                         f"rotate(-90 {cx} {cy})"))

    for idx, (s, err) in enumerate(zip(series, errs)):
        color = PALETTE[idx % len(PALETTE)]
        xs = [_coord(px(x)) for x in s.x]
        ys = [_coord(py(y)) for y in s.y]
        points = " ".join(f"{x},{y}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{points}" fill="none" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        for x, y, e, cx, cy in zip(s.x, s.y, err, xs, ys):
            out.append(f'<circle cx="{cx}" cy="{cy}" r="2.6" fill="{color}"/>')
            if math.isfinite(e) and e > 0.0:
                y0, y1 = _coord(py(y - e)), _coord(py(y + e))
                lo, hi = _coord(px(x) - 3.0), _coord(px(x) + 3.0)
                out += [_line(cx, y0, cx, y1, color, "1.1"),
                        _line(lo, y0, hi, y0, color, "1.1"),
                        _line(lo, y1, hi, y1, color, "1.1")]
        # legend entry
        ly = _TOP + 14.0 + 16.0 * idx
        lx = _LEFT + _PLOT_W - 150.0
        out.append(_line(_coord(lx), _coord(ly - 4.0), _coord(lx + 22.0),
                         _coord(ly - 4.0), color, "1.6"))
        out.append(_text(_coord(lx + 28.0), _coord(ly), 11, s.label))
    return _svg(_WIDTH, _HEIGHT, out)


def _heat_color(value: float, scale: float) -> str:
    # white -> deep blue, linear in value / scale for value >= 0
    t = min(value / scale, 1.0)
    r, g, b = (round(255 + t * (c - 255)) for c in (31, 78, 156))
    return f"rgb({r},{g},{b})"


def heatmap_grid(matrices: Sequence[np.ndarray], titles: Sequence[str],
                 title: str = "") -> str:
    """Side-by-side heat maps of matrix magnitudes on a shared scale: the
    largest magnitude, or 1 when every entry is zero."""
    if len(matrices) != len(titles) or not matrices:
        raise ValueError("need one title per matrix")
    mats = [np.abs(np.asarray(m)) for m in matrices]
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError("matrices must share a square shape")
    scale = max(float(m.max()) for m in mats) or 1.0

    pad, top, label_h, bar_w = 34.0, 46.0, 24.0, 16.0
    panel = n * _CELL
    bx = pad + len(mats) * (panel + pad)
    by = top + label_h
    width, height = bx + bar_w + 46.0, by + panel + 40.0
    out = []
    if title:
        out.append(_text(_coord(width / 2), "26", 14, title, "middle"))
    cell = _coord(_CELL)
    for k, (mat, sub) in enumerate(zip(mats, titles)):
        x0 = pad + k * (panel + pad)
        out.append(_text(_coord(x0 + panel / 2), _coord(top + 12.0), 12,
                         sub, "middle"))
        columns = [_coord(x0 + j * _CELL) for j in range(n)]
        for i, row in enumerate(mat.tolist()):
            y = _coord(by + i * _CELL)
            out.extend(_rect(x, y, cell, cell, _heat_color(v, scale),
                             "#cccccc", "0.4")
                       for x, v in zip(columns, row))
        for i in range(0, n, 4 if n >= 8 else 1):
            out.append(_text(_coord(x0 - 4.0),
                             _coord(by + (i + 0.7) * _CELL), 9, i, "end"))
            out.append(_text(_coord(x0 + (i + 0.5) * _CELL),
                             _coord(by + panel + 12.0), 9, i, "middle"))
    # colorbar: 32 bands from the scale down to 0, a frame, two labels
    bar_x, bar_width = _coord(bx), _coord(bar_w)
    out.extend(_rect(bar_x, _coord(by + s * panel / 32), bar_width,
                     _coord(panel / 32 + 0.5),
                     _heat_color((1.0 - s / 31) * scale, scale), "none")
               for s in range(32))
    label_x = _coord(bx + bar_w + 4.0)
    out += [_rect(bar_x, _coord(by), bar_width, _coord(panel), "none",
                  "#333333", "0.7"),
            _text(label_x, _coord(by + 9.0), 10, _fmt(scale)),
            _text(label_x, _coord(by + panel), 10, "0")]
    return _svg(width, height, out)
