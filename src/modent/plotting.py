"""Standalone SVG charts, written by hand so plots carry no rendering dependency.

Output is deterministic: fixed canvas geometry and fixed number formatting.
"""

from __future__ import annotations

import math

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 30, 40, 55
# width and height of the plot area inside the margins
_PX = _W - _ML - _MR
_PY = _H - _MT - _MB


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _ticks(lo: float, hi: float, n: int = 5):
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


def _header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" font-family="monospace" font-size="14" '
        f'text-anchor="middle">{title}</text>',
    ]


def _frame(ticks: list, xlabel: str, ylabel: str) -> list:
    """The outline of the plot area, then ``ticks``, then both axis titles."""
    return [
        f'<rect x="{_ML}" y="{_MT}" width="{_PX}" height="{_PY}" fill="none" stroke="black"/>',
        *ticks,
        f'<text x="{_W / 2}" y="{_H - 12}" font-family="monospace" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_MT + _PY / 2}" font-family="monospace" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {_MT + _PY / 2})">{ylabel}</text>',
    ]


def _axes(xlo, xhi, ylo, yhi, xlabel, ylabel):
    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * _PX

    def sy(y):
        return _MT + _PY - (y - ylo) / (yhi - ylo) * _PY

    ticks = []
    for t in _ticks(xlo, xhi):
        ticks.append(f'<line x1="{_fmt(sx(t))}" y1="{_MT + _PY}" x2="{_fmt(sx(t))}" '
                     f'y2="{_MT + _PY + 5}" stroke="black"/>')
        ticks.append(f'<text x="{_fmt(sx(t))}" y="{_MT + _PY + 20}" font-family="monospace" '
                     f'font-size="11" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi):
        ticks.append(f'<line x1="{_ML - 5}" y1="{_fmt(sy(t))}" x2="{_ML}" '
                     f'y2="{_fmt(sy(t))}" stroke="black"/>')
        ticks.append(f'<text x="{_ML - 8}" y="{_fmt(sy(t) + 4)}" font-family="monospace" '
                     f'font-size="11" text-anchor="end">{_fmt(t)}</text>')
    return _frame(ticks, xlabel, ylabel), sx, sy


def line_chart(points, xlabel: str, ylabel: str, title: str) -> str:
    """Polyline chart with markers for a list of (x, y) points."""
    if not points:
        raise ValueError("line_chart needs at least one point")
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if math.isclose(xlo, xhi):
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if math.isclose(ylo, yhi):
        ylo, yhi = ylo - 0.5, yhi + 0.5
    parts = _header(title)
    axes, sx, sy = _axes(xlo, xhi, ylo, yhi, xlabel, ylabel)
    parts += axes
    path = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{path}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="#1f77b4"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _ramp(frac: float) -> str:
    # blue (low) to red (high)
    f = min(1.0, max(0.0, frac))
    r = int(round(255 * f))
    b = int(round(255 * (1.0 - f)))
    g = int(round(80 * (1.0 - abs(2 * f - 1.0))))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(rows, xlabel: str, ylabel: str, title: str) -> str:
    """Grid heatmap for rows of (x, y, value) covering a regular lattice."""
    if not rows:
        raise ValueError("heatmap needs at least one cell")
    xs = sorted({float(r[0]) for r in rows})
    ys = sorted({float(r[1]) for r in rows})
    vals = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    vlo = min(vals.values())
    vhi = max(vals.values())
    if math.isclose(vlo, vhi):
        vhi = vlo + 1.0
    cw = _PX / len(xs)
    ch = _PY / len(ys)
    parts = _header(title)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            v = vals.get((x, y))
            if v is None:
                continue
            color = _ramp((v - vlo) / (vhi - vlo))
            cx = _ML + i * cw
            cy = _MT + _PY - (j + 1) * ch
            parts.append(f'<rect x="{_fmt(cx)}" y="{_fmt(cy)}" width="{_fmt(cw)}" '
                         f'height="{_fmt(ch)}" fill="{color}"/>')
    ends = [f'<text x="{x}" y="{_MT + _PY + 20}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{lab}</text>'
            for lab, x in ((_fmt(xs[0]), _ML), (_fmt(xs[-1]), _ML + _PX))]
    ends += [f'<text x="{_ML - 8}" y="{y + 4}" font-family="monospace" '
             f'font-size="11" text-anchor="end">{lab}</text>'
             for lab, y in ((_fmt(ys[0]), _MT + _PY), (_fmt(ys[-1]), _MT))]
    parts += _frame(ends, xlabel, ylabel)
    parts.append(f'<text x="{_W - _MR}" y="{_MT - 8}" font-family="monospace" font-size="11" '
                 f'text-anchor="end">{_fmt(vlo)} .. {_fmt(vhi)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
