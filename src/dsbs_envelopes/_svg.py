"""Dependency-free SVG emitters for the figure command.

Display-only output: a polyline chart for curve families and a
marching-squares contour chart for surfaces on a rectangular lattice.
The contour chart runs marching squares on arrays: one case index per
cell and level from the corner comparisons, and interpolation on the
crossed edges only, in the float operations and segment order of a
per-cell loop.  Output is plain string assembly, the numbers of each
polyline and contour level written by one ``%`` format template; no
drawing library involved.
"""

from __future__ import annotations

import html
import math

import numpy as np

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
)

_FONT = "font-family=\"Helvetica, Arial, sans-serif\""


def _ticks(lo: float, hi: float, target: int = 6) -> list:
    """Rounded tick positions covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content; quotes stay as they are."""
    return html.escape(text, quote=False)


class _Frame:
    """Maps data coordinates onto a pixel viewport with margins and axes."""

    def __init__(self, x_range, y_range, width, height, title, xlabel, ylabel):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.width, self.height = width, height
        self.left, self.right, self.top, self.bottom = 64, 18, 34, 46
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel

    def px(self, x: float) -> float:
        span = self.width - self.left - self.right
        return self.left + (x - self.x0) / (self.x1 - self.x0) * span

    def py(self, y: float) -> float:
        span = self.height - self.top - self.bottom
        return self.height - self.bottom - (y - self.y0) / (self.y1 - self.y0) * span

    def chrome(self) -> list:
        w, h = self.width, self.height
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">',
            f'<rect width="{w}" height="{h}" fill="white"/>',
        ]
        if self.title:
            parts.append(
                f'<text x="{w / 2:.1f}" y="20" text-anchor="middle" {_FONT} '
                f'font-size="15">{_escape(self.title)}</text>'
            )
        x_axis_y = self.py(self.y0)
        y_axis_x = self.px(self.x0)
        for t in _ticks(self.x0, self.x1):
            x = self.px(t)
            parts.append(
                f'<line x1="{x:.1f}" y1="{x_axis_y:.1f}" x2="{x:.1f}" '
                f'y2="{x_axis_y + 4:.1f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x:.1f}" y="{x_axis_y + 17:.1f}" text-anchor="middle" '
                f'{_FONT} font-size="11">{_fmt(t)}</text>'
            )
        for t in _ticks(self.y0, self.y1):
            y = self.py(t)
            parts.append(
                f'<line x1="{y_axis_x - 4:.1f}" y1="{y:.1f}" x2="{y_axis_x:.1f}" '
                f'y2="{y:.1f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{y_axis_x - 7:.1f}" y="{y + 4:.1f}" text-anchor="end" '
                f'{_FONT} font-size="11">{_fmt(t)}</text>'
            )
        parts.append(
            f'<rect x="{self.left}" y="{self.top}" width="{w - self.left - self.right}" '
            f'height="{h - self.top - self.bottom}" fill="none" stroke="black"/>'
        )
        if self.xlabel:
            parts.append(
                f'<text x="{w / 2:.1f}" y="{h - 8}" text-anchor="middle" {_FONT} '
                f'font-size="12">{_escape(self.xlabel)}</text>'
            )
        if self.ylabel:
            x, y = 16, (self.top + h - self.bottom) / 2
            parts.append(
                f'<text x="{x}" y="{y:.1f}" text-anchor="middle" {_FONT} font-size="12" '
                f'transform="rotate(-90 {x} {y:.1f})">{_escape(self.ylabel)}</text>'
            )
        return parts


def _poly_points(frame: _Frame, xs, ys) -> str:
    """``x,y`` pixel pairs with 2 decimals, space-separated, for a polyline.

    ``px``/``py`` map the arrays in the float operations they take on one
    value, and one ``%`` template of ``%.2f,%.2f`` slots, filled from the
    interleaved pixel coordinates, writes the text; it matches one
    f-string per point byte for byte.
    """
    pts = np.stack([frame.px(np.asarray(xs, dtype=float)), frame.py(np.asarray(ys, dtype=float))], axis=-1)
    return " ".join(["%.2f,%.2f"] * len(pts)) % tuple(pts.ravel().tolist())


def polyline_plot(series, *, title="", xlabel="", ylabel="", width=720, height=480) -> str:
    """One chart with several labelled curves; series = [(xs, ys, label), ...]."""
    series = [(list(map(float, xs)), list(map(float, ys)), str(lbl)) for xs, ys, lbl in series]
    finite = [
        (x, y) for xs, ys, _ in series for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)
    ]
    if not finite:
        raise ValueError("no finite points to plot")
    xr = (min(p[0] for p in finite), max(p[0] for p in finite))
    yr = (min(p[1] for p in finite), max(p[1] for p in finite))
    frame = _Frame(xr, yr, width, height, title, xlabel, ylabel)
    parts = frame.chrome()
    for k, (xs, ys, label) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
            f'points="{_poly_points(frame, [p[0] for p in pts], [p[1] for p in pts])}"/>'
        )
        ly = frame.top + 16 + 15 * k
        lx = frame.width - frame.right - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{lx + 27}" y="{ly}" {_FONT} font-size="11">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


# Cell edges as (di, dj) lattice offsets of their "from" corner, then of their
# "to" corner, from the cell's (i, j) corner: bottom, right, top, left.  A
# crossing is interpolated from the "from" corner, so each edge keeps one
# direction.
_EDGES = {"b": (0, 0, 1, 0), "r": (1, 0, 1, 1), "t": (1, 1, 0, 1), "l": (0, 1, 0, 0)}
# Segments per case index, as (edge, edge) pairs in drawing order; cases 5
# and 10 are the saddles and draw two segments.
_SEGMENTS = {
    1: (("l", "b"),),
    2: (("b", "r"),),
    3: (("l", "r"),),
    4: (("r", "t"),),
    5: (("l", "t"), ("b", "r")),
    6: (("b", "t"),),
    7: (("l", "t"),),
    8: (("t", "l"),),
    9: (("t", "b"),),
    10: (("t", "r"), ("l", "b")),
    11: (("t", "r"),),
    12: (("r", "l"),),
    13: (("r", "b"),),
    14: (("b", "l"),),
}


def _segment_table():
    """``_SEGMENTS`` as arrays indexed by [case, k]: segment count and edge offsets.

    ``offsets[case, k]`` holds the ``_EDGES`` offsets of the two edges that
    segment k of that case joins, in drawing order.
    """
    count = np.zeros(16, dtype=np.intp)
    offsets = np.zeros((16, 2, 2, 4), dtype=np.intp)
    for case, segments in _SEGMENTS.items():
        count[case] = len(segments)
        for k, (a, b) in enumerate(segments):
            offsets[case, k] = _EDGES[a], _EDGES[b]
    return count, offsets


_SEG_COUNT, _SEG_OFFSETS = _segment_table()
_LINE = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>'


def _crossings(xs, ys, z, level, i, j, off):
    """Where ``level`` crosses the given cell edges, in data coordinates.

    Linear interpolation from the edge's "from" corner a to its "to" corner
    b: ``frac = (level - va)/(vb - va)`` clipped to [0, 1], then
    ``pa + frac*(pb - pa)`` per coordinate, the same float operations in the
    same order as a per-cell loop.  Every edge passed here is crossed, so
    ``vb != va``.
    """
    ia, ja, ib, jb = i + off[..., 0], j + off[..., 1], i + off[..., 2], j + off[..., 3]
    va, vb = z[ia, ja], z[ib, jb]
    with np.errstate(invalid="ignore"):  # an infinite corner gives NaN, as with floats
        frac = (level - va) / (vb - va)
        frac = np.where(0.0 > frac, 0.0, frac)  # min(max(frac, 0.0), 1.0), NaN kept
        frac = np.where(1.0 < frac, 1.0, frac)
        return xs[ia] + frac * (xs[ib] - xs[ia]), ys[ja] + frac * (ys[jb] - ys[ja])


def contour_plot(
    xs, ys, zgrid, levels, *, title="", xlabel="", ylabel="", width=720, height=560
) -> str:
    """Contour lines of ``zgrid[i][j]`` given at (xs[i], ys[j]), one color per level.

    Array marching squares: per level, every cell's case index (bit set where
    a corner value is >= level) comes from one array expression, only the
    crossed cells are kept, in (i, j) row-major order, and only their
    crossed edges are interpolated.  Segments are written cell by cell in
    that order, a saddle's two in table order: one ``%`` template of
    ``<line>`` elements per level, filled from the interleaved pixel ends,
    which matches one f-string per segment byte for byte.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    z = np.asarray(zgrid, dtype=float)
    if z.shape != (len(xs), len(ys)):
        raise ValueError("zgrid shape must be (len(xs), len(ys))")
    frame = _Frame(
        (float(xs[0]), float(xs[-1])), (float(ys[0]), float(ys[-1])),
        width, height, title, xlabel, ylabel,
    )
    parts = frame.chrome()
    for k, level in enumerate(levels):
        level = float(level)
        color = _PALETTE[k % len(_PALETTE)]
        above = (z >= level).astype(np.uint8)
        # corner bits: (x0,y0)=1, (x1,y0)=2, (x1,y1)=4, (x0,y1)=8
        case = above[:-1, :-1] | above[1:, :-1] << 1 | above[1:, 1:] << 2 | above[:-1, 1:] << 3
        i, j = np.nonzero((case != 0) & (case != 15))
        case = case[i, j]
        cell = np.repeat(np.arange(case.size), _SEG_COUNT[case])
        seg = np.zeros(cell.size, dtype=np.intp)  # 1 marks a saddle's second segment
        seg[1:] = cell[1:] == cell[:-1]
        # (segment, end) arrays: each segment's two crossings
        x, y = _crossings(
            xs, ys, z, level, i[cell, None], j[cell, None], _SEG_OFFSETS[case[cell], seg]
        )
        ends = np.stack([frame.px(x), frame.py(y)], axis=-1)  # (segment, end, x|y)
        parts.append(f'<g stroke="{color}" stroke-width="1.2">')
        if len(ends):
            parts.append("\n".join([_LINE] * len(ends)) % tuple(ends.ravel().tolist()))
        parts.append("</g>")
        ly = frame.top + 16 + 15 * k
        lx = frame.width - frame.right - 110
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{lx + 27}" y="{ly}" {_FONT} font-size="11">{_fmt(level)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
