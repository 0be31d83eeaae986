"""The figure renderer against its per-item references: contour and polyline SVGs, surface and q-family CSVs."""

import math

import numpy as np
import pytest

from dsbs_envelopes import DsbsParams, cli
from dsbs_envelopes._svg import _FONT, _PALETTE, _Frame, _escape, _fmt, contour_plot, polyline_plot
from dsbs_envelopes.cli import _contour_levels, _g12, _q_family_rows, _surface_csv
from dsbs_envelopes.envelopes import phi_grid, phi_tilde_grid, psi_grid

SURFACES = {"phi": phi_grid, "phi_tilde": phi_tilde_grid, "psi": psi_grid}


def _cell_segments(x0, x1, y0, y1, v00, v01, v10, v11, level):
    """Marching-squares segments for one lattice cell at one level.

    v_ab is the value at (x_a, y_b); linear interpolation along edges.
    Returns 0, 1 or 2 segments ((xa, ya), (xb, yb)) in data coordinates.
    """

    def lerp(pa, pb, va, vb):
        if vb == va:
            frac = 0.5
        else:
            frac = (level - va) / (vb - va)
        frac = min(max(frac, 0.0), 1.0)
        return (pa[0] + frac * (pb[0] - pa[0]), pa[1] + frac * (pb[1] - pa[1]))

    corners = ((x0, y0, v00), (x1, y0, v10), (x1, y1, v11), (x0, y1, v01))
    idx = 0
    for bit, (_, _, v) in enumerate(corners):
        if v >= level:
            idx |= 1 << bit
    if idx in (0, 15):
        return []
    # Edge midpoints by interpolation: bottom, right, top, left.
    pts = {
        "b": lerp((x0, y0), (x1, y0), v00, v10),
        "r": lerp((x1, y0), (x1, y1), v10, v11),
        "t": lerp((x1, y1), (x0, y1), v11, v01),
        "l": lerp((x0, y1), (x0, y0), v01, v00),
    }
    table = {
        1: [("l", "b")],
        2: [("b", "r")],
        3: [("l", "r")],
        4: [("r", "t")],
        5: [("l", "t"), ("b", "r")],
        6: [("b", "t")],
        7: [("l", "t")],
        8: [("t", "l")],
        9: [("t", "b")],
        10: [("t", "r"), ("l", "b")],
        11: [("t", "r")],
        12: [("r", "l")],
        13: [("r", "b")],
        14: [("b", "l")],
    }
    return [(pts[a], pts[b]) for a, b in table[idx]]


def _per_cell_contour_plot(
    xs, ys, zgrid, levels, *, title="", xlabel="", ylabel="", width=720, height=560
) -> str:
    """The contour chart written as a loop over cells, one `_cell_segments` call each.

    Same case bits, edge arithmetic, pixel mapping and segment order as the
    array renderer, so the two must agree byte for byte.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    z = [[float(v) for v in row] for row in zgrid]
    frame = _Frame((xs[0], xs[-1]), (ys[0], ys[-1]), width, height, title, xlabel, ylabel)
    parts = frame.chrome()
    for k, level in enumerate(levels):
        color = _PALETTE[k % len(_PALETTE)]
        chunks = []
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                for (xa, ya), (xb, yb) in _cell_segments(
                    xs[i], xs[i + 1], ys[j], ys[j + 1],
                    z[i][j], z[i][j + 1], z[i + 1][j], z[i + 1][j + 1], float(level),
                ):
                    chunks.append(
                        f'<line x1="{frame.px(xa):.2f}" y1="{frame.py(ya):.2f}" '
                        f'x2="{frame.px(xb):.2f}" y2="{frame.py(yb):.2f}"/>'
                    )
        parts.append(f'<g stroke="{color}" stroke-width="1.2">')
        parts.extend(chunks)
        parts.append("</g>")
        ly = frame.top + 16 + 15 * k
        lx = frame.width - frame.right - 110
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{lx + 27}" y="{ly}" {_FONT} font-size="11">{_fmt(float(level))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _per_cell_csv(axis, grid) -> str:
    """The surface CSV with every field formatted per cell."""
    rows = ["s,t,value"]
    for i, s in enumerate(axis):
        for j, t in enumerate(axis):
            rows.append(f"{float(s):.12g},{float(t):.12g},{float(grid[i, j]):.12g}")
    return "\n".join(rows) + "\n"


def _per_row_q_csv(axis, curves) -> str:
    """The q-family CSV with every field formatted by `_g12`, one row at a time."""
    rows = ["q_conj,s,value,family"]
    for q_conj, _q, vals, family in curves:
        rows.extend(f"{_g12(q_conj)},{_g12(s)},{_g12(v)},{family}" for s, v in zip(axis, vals))
    return "\n".join(rows) + "\n"


def _per_point_polyline_plot(series, *, title="", xlabel="", ylabel="", width=720, height=480) -> str:
    """The polyline chart with one f-string per point, non-finite points dropped."""
    series = [(list(map(float, xs)), list(map(float, ys)), str(lbl)) for xs, ys, lbl in series]
    finite = [
        (x, y) for xs, ys, _ in series for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)
    ]
    x_range = (min(x for x, _ in finite), max(x for x, _ in finite))
    y_range = (min(y for _, y in finite), max(y for _, y in finite))
    frame = _Frame(x_range, y_range, width, height, title, xlabel, ylabel)
    parts = frame.chrome()
    for k, (xs, ys, label) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(
            f"{frame.px(x):.2f},{frame.py(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>')
        ly = frame.top + 16 + 15 * k
        lx = frame.width - frame.right - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(f'<text x="{lx + 27}" y="{ly}" {_FONT} font-size="11">{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _cases_hit(z, levels) -> set:
    """Case indices of every cell at every level, corner bits as in `_cell_segments`."""
    hit = set()
    for level in levels:
        above = z >= level
        for i in range(z.shape[0] - 1):
            for j in range(z.shape[1] - 1):
                corners = (above[i, j], above[i + 1, j], above[i + 1, j + 1], above[i, j + 1])
                hit.add(sum(1 << bit for bit, on in enumerate(corners) if on))
    return hit


def _random_grid(nx=25, ny=30):
    """Seeded values rounded to 0.1 on non-uniform axes, with levels on those values."""
    rng = np.random.default_rng(20211)
    xs = np.cumsum(rng.uniform(0.2, 1.0, nx)) - 3.0
    ys = np.sort(rng.uniform(-1.0, 2.0, ny))
    z = np.round(rng.uniform(0.0, 1.0, (nx, ny)), 1)
    levels = np.unique(z)[[2, 5, 8]]
    return xs, ys, z, levels


@pytest.mark.parametrize("n", [51, 101])
@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_contour_plot_matches_per_cell_reference_on_figure_surfaces(rho, n):
    params = DsbsParams(rho)
    axis = np.linspace(0.0, 1.0, n)
    for name, surface in SURFACES.items():
        grid = surface(axis, axis, params)
        levels = _contour_levels(grid)
        kw = dict(title=f"{name} level sets (rho = {rho:g})", xlabel="s", ylabel="t")
        svg = contour_plot(axis, axis, grid, levels, **kw)
        assert svg == _per_cell_contour_plot(axis, axis, grid, levels, **kw), name
        assert svg.count("<line x1=") > 8 + len(levels), name  # contours drawn, not just chrome


def test_contour_plot_matches_per_cell_reference_on_random_grid():
    xs, ys, z, levels = _random_grid()
    # levels sit on grid values, so ties (frac 0 or 1) occur; every
    # non-trivial case shows up, the saddles 5 and 10 included
    assert _cases_hit(z, levels) >= set(range(1, 15))
    assert np.isin(levels, z).all()
    svg = contour_plot(xs, ys, z, levels, width=500, height=400)
    assert svg == _per_cell_contour_plot(xs, ys, z, levels, width=500, height=400)


def test_contour_plot_matches_per_cell_reference_with_non_finite_corners():
    # an infinite or NaN corner gives NaN coordinates in both renderers
    xs, ys, z, levels = _random_grid(nx=12, ny=9)
    z[3, 4], z[7, 2], z[5, 6] = math.inf, -math.inf, math.nan
    svg = contour_plot(xs, ys, z, levels)
    assert "nan" in svg
    assert svg == _per_cell_contour_plot(xs, ys, z, levels)


def test_contour_plot_rejects_mismatched_grid():
    with pytest.raises(ValueError, match="zgrid shape"):
        contour_plot([0.0, 1.0], [0.0, 1.0, 2.0], np.zeros((2, 2)), [0.5])


def test_surface_csv_matches_per_cell_formatter():
    axis = np.linspace(0.0, 1.0, 51)
    params = DsbsParams(0.9)
    for surface in SURFACES.values():
        grid = surface(axis, axis, params)
        assert _surface_csv(axis, grid) == _per_cell_csv(axis, grid)
    odd = np.random.default_rng(3).normal(size=(51, 51)) * 1e-7
    odd[0, :4] = [-0.0, math.inf, -math.inf, math.nan]
    assert _surface_csv(axis, odd) == _per_cell_csv(axis, odd)


def test_contour_plot_matches_per_cell_reference_with_levels_that_cross_no_cell():
    # a level below or above every value crosses no cell: its group has no
    # <line> elements, and its empty template adds no line to the text
    xs, ys, z, levels = _random_grid(nx=9, ny=7)
    levels = [-1.0, levels[0], 2.0, math.nan]
    svg = contour_plot(xs, ys, z, levels)
    assert svg == _per_cell_contour_plot(xs, ys, z, levels)
    assert svg.count('stroke-width="1.2">\n</g>') == 3


def test_q_family_csv_matches_per_row_formatter(monkeypatch):
    params = DsbsParams(0.9)
    axis = np.linspace(0.0, 1.0, 51)
    text, curves = _q_family_rows(axis, params)
    assert len(curves) == 9 and text == _per_row_q_csv(axis, curves)
    # NaN, infinities and -0.0 among the values and on the axis
    rng = np.random.default_rng(5)

    def odd_q_opt(s, qs, params, *, kind):
        vals = rng.normal(size=(len(qs), s.size)) * 1e-7
        vals[0, :4] = [-0.0, math.inf, -math.inf, math.nan]
        return vals, None

    monkeypatch.setattr(cli, "_q_opt", odd_q_opt)
    axis[0] = -0.0
    text, curves = _q_family_rows(axis, params)
    assert text == _per_row_q_csv(axis, curves)
    head = "q_conj,s,value,family\ninf,-0,-0,phi_q\ninf,0.02,inf,phi_q\ninf,0.04,-inf,phi_q\ninf,0.06,nan,phi_q\n"
    assert text.startswith(head)  # q = 1 has q_conj = inf


def test_polyline_plot_matches_per_point_reference():
    params = DsbsParams(0.5)
    axis = np.linspace(0.0, 1.0, 101)
    _, curves = _q_family_rows(axis, params)
    series = [(axis, vals, f"{family} q = {q:g}") for (_qc, q, vals, family) in curves]
    kw = dict(title="slope-family envelopes (rho = 0.5)", xlabel="s", ylabel="value")
    assert polyline_plot(series, **kw) == _per_point_polyline_plot(series, **kw)
    # non-finite points are dropped, -0.0 is kept; a series with no finite
    # point draws an empty polyline
    xs = np.array([-0.0, 0.5, 1.0, 1.5, 2.0, math.nan])
    series = [
        (xs, [math.nan, -0.0, 3.0, math.inf, -math.inf, 1.0], "a"),
        (xs, [1.0, 2.0, -1.0, -0.0, 0.25, 0.5], "b & c"),
        ([math.inf], [0.0], "empty"),
    ]
    svg = polyline_plot(series, width=500, height=300)
    assert svg == _per_point_polyline_plot(series, width=500, height=300)
    assert 'points=""' in svg
