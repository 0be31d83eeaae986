"""Discrete convex/concave envelopes and grid certifiers.

Functions here operate on samples over the uniform lattice of [0,1] or
[0,1]^2 wrapped in :class:`GridFn`.

`check_lagrangian_gap` certifies a 2-D surface as convex from its slope
field, the grid form of the paper's proof through the minimizers of the
Lagrangian dual: every grid point x0 must minimize its own Lagrangian
``f - g0·x`` over the whole lattice, where g0 is the slope at x0.  Its
Fenchel–Young gap ``f(x0) - g0·x0 + f*(g0)`` bounds how far f lies above
its lower convex envelope at x0, so a gap of at most ε everywhere bounds
every midpoint violation by ε, and a wrong slope can only fail it.  The
conjugate f* is exact: the max over rows of the rows' 1-D conjugates,
each read off its row's lower hull, all hulls built in lockstep into one
int array padded with the last column.  One query path answers the
interior points; the symmetry picks its index set: one triangle, mirrored,
on an exactly symmetric surface with transposed slopes, every point on
any other.  A point on an edge of the square takes the 1-D gap along its
edge.  ``verify`` runs it once on phi_tilde and, negated, on psi, and
claims T1, T2 and E read those two reports.

:func:`lower_convex_envelope` takes the geometric route on 2-D grids: the
lower facets of the Qhull convex hull of the graph points, interpolated
back onto the lattice, every facet filling its lattice bounding box.  No
claim calls it: the tests read it as an oracle of the certificate, beside
a double discrete Legendre transform that shares no code with either.

The certifiers (`check_lagrangian_gap`, `check_midpoint_convex`,
`check_midpoint_concave`, `check_slope_bounds`, `check_monotone`) are pure
measurements: each reports the worst violation found and a witness, with
deterministic tie-breaking, so failing runs are reproducible bit for bit.
Among tied cells the first in row-major order wins; the midpoint
certifier, which takes curves and fills one table of pairs per parity,
picks the tied pair with the smallest (half gap, left end) key, the order
in which a loop over the gaps would visit them.  They hold no
threshold; `verify` judges the excess against its fixed tolerance table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .binary import _real_array, _require_finite_real, _require_instance, _require_int
from .errors import InputDomainError

__all__ = [
    "GridFn",
    "ConvexityReport",
    "lower_convex_envelope",
    "check_lagrangian_gap",
    "check_midpoint_convex",
    "check_midpoint_concave",
    "check_slope_bounds",
    "check_monotone",
]

@dataclass(frozen=True)
class GridFn:
    """Samples of a function over the uniform lattice on [0,1]^dims.

    ``values`` is 1-D of length n, or 2-D n-by-n with axis 0 as the first
    coordinate; lattice point i maps to i/(n-1).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _real_array(self.values, "GridFn values")
        if arr.ndim not in (1, 2):
            raise InputDomainError("GridFn values must be 1-D or 2-D")
        if arr.ndim == 2 and arr.shape[0] != arr.shape[1]:
            raise InputDomainError("2-D GridFn must be square")
        if arr.shape[0] < 3:
            raise InputDomainError("GridFn needs at least 3 points per axis")
        if not np.all(np.isfinite(arr)):
            raise InputDomainError("GridFn values must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def dims(self) -> int:
        return self.values.ndim

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ConvexityReport:
    """One grid measurement: the worst violation, its witness, the pairs examined."""

    worst_violation: float
    witness: Optional[tuple]
    n_pairs: int


# ---------------------------------------------------------------------------
# envelopes — geometric route
# ---------------------------------------------------------------------------


def lower_convex_envelope(f: GridFn) -> GridFn:
    """Pointwise-largest convex minorant of a 2-D f representable on the lattice.

    The lower facets of the 3-D convex hull of the graph; the envelope at a
    lattice point is the max over the lower facet planes whose lattice
    bounding box holds it (every lower facet plane supports the hull from
    below, so the covering facet's plane is that maximum).  Each lower
    facet, in qhull's order, raises its box to its plane in place.  The
    result is clipped to ``min(env, f)`` so floating-point spill never
    breaks dominance.  A 1-D f raises `InputDomainError`.
    """
    _require_instance(GridFn, f=f)
    if f.dims != 2:
        raise InputDomainError("envelopes are built on 2-D grids only")
    # qhull is the package's one scipy use; importing it here keeps scipy
    # out of every process that builds no 2-D hull.
    from scipy.spatial import ConvexHull, QhullError

    v, n = f.values, f.n
    x = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel(), v.ravel()])
    try:
        hull = ConvexHull(pts)
    except QhullError:
        # All graph points coplanar: the function is affine, hence its own
        # envelope.
        return GridFn(v.copy())
    lower = hull.equations[:, 2] < -1e-12
    h = 1.0 / (n - 1)
    env = np.full((n, n), -np.inf)
    for simplex, (nx, ny, nz, off) in zip(hull.simplices[lower], hull.equations[lower]):
        # the facet's lattice bounding box; an empty box covers no point
        i0 = max(0, math.ceil(pts[simplex, 0].min() / h - 1e-9))
        i1 = min(n - 1, math.floor(pts[simplex, 0].max() / h + 1e-9))
        j0 = max(0, math.ceil(pts[simplex, 1].min() / h - 1e-9))
        j1 = min(n - 1, math.floor(pts[simplex, 1].max() / h + 1e-9))
        if i1 >= i0 and j1 >= j0:
            box = env[i0 : i1 + 1, j0 : j1 + 1]
            np.maximum(box, -(nx * x[i0 : i1 + 1, None] + ny * x[None, j0 : j1 + 1] + off) / nz, out=box)
    return GridFn(np.minimum(np.where(np.isneginf(env), v, env), v))


# ---------------------------------------------------------------------------
# certifiers
# ---------------------------------------------------------------------------


def _report(worst: float, witness, n_pairs: int) -> ConvexityReport:
    return ConvexityReport(worst_violation=float(worst), witness=witness, n_pairs=int(n_pairs))


def check_midpoint_convex(f: GridFn) -> ConvexityReport:
    """Measure midpoint convexity of a curve on the lattice.

    Enumerates every pair of samples whose midpoint is itself a lattice
    point and reports the worst ``f(mid) - (f(x)+f(y))/2``: one (a, b)
    table per parity e holds the pairs (2a + e, 2b + e), about n²/4 floats
    each.  Among the pairs of worst violation, the witness (p, q) is the
    one with the smallest key ((q - p)/2, p).  A 2-D grid raises
    `InputDomainError`: surfaces go through `check_lagrangian_gap`.
    """
    _require_instance(GridFn, f=f)
    if f.dims != 1:
        raise InputDomainError("the midpoint certifier takes 1-D grids; see check_lagrangian_gap")
    v, n = f.values, f.n
    tables = []
    for e in (0, 1):  # the midpoint of (2a + e, 2b + e) is a + b + e; b <= a repeats a pair
        part = v[e::2]
        w = part.size
        table = sliding_window_view(v[e:], w)[:w] - 0.5 * (part[:, None] + part[None, :])
        table[np.tri(w, dtype=bool)] = -np.inf
        tables.append(table)
    worst = max(table.max() for table in tables)
    witness = None
    if worst > -np.inf:  # else every pair sum overflowed: no witness
        # the smallest key (b - a)·n + p of either parity's ties; n² exceeds them all
        ties = (np.nonzero(table == worst) for table in tables)
        key = min(int(np.min((b - a) * n + 2 * a + e, initial=n * n)) for e, (a, b) in enumerate(ties))
        d, p = divmod(key, n)
        witness = (p, p + 2 * d)
    w0, w1 = (n + 1) // 2, n // 2
    return _report(worst, witness, (w0 * (w0 - 1) + w1 * (w1 - 1)) // 2)


def check_midpoint_concave(f: GridFn) -> ConvexityReport:
    """Midpoint concavity: the convex check applied to the negated samples."""
    _require_instance(GridFn, f=f)
    return check_midpoint_convex(GridFn(-f.values))


def _lower_hulls(v: np.ndarray) -> np.ndarray:
    """The lower convex hull of every row of the rows-by-n array ``v``, in one int array.

    Row k holds row k's hull vertices, points on a hull edge dropped, as
    increasing column indices padded to the longest hull with column n - 1,
    which is always a vertex (only interior points are pruned).  All rows
    are pruned in lockstep: each pass drops every interior point that lies
    on or above the chord between its kept neighbours (no such point is a
    vertex, whatever else the same pass drops), until a pass drops none;
    what is left is convex, hence the hull.  The cross products take
    integer column differences, so the abscissae carry no rounding.
    """
    n_rows, n = v.shape
    j = np.arange(n)
    keep = np.ones((n_rows, n), dtype=bool)
    while True:
        # the kept neighbours: the last kept index below j, the first above it
        left = np.maximum.accumulate(np.where(keep, j, 0), axis=1)[:, :-2]
        right = np.minimum.accumulate(np.where(keep, j, n - 1)[:, ::-1], axis=1)[:, -3::-1]
        y = np.take_along_axis(v, left, axis=1)
        above = (v[:, 1:-1] - y) * (right - left) >= (np.take_along_axis(v, right, axis=1) - y) * (j[1:-1] - left)
        above &= keep[:, 1:-1]
        if not above.any():
            # a dropped column reads n - 1, so sorting puts each row's vertices first
            return np.sort(np.where(keep, j, n - 1), axis=1)[:, : keep.sum(axis=1).max()]
        keep[:, 1:-1] &= ~above


def _conjugate_2d(v: np.ndarray, x: np.ndarray, hulls: np.ndarray, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``f*(lam, mu) = max_ij lam*x_i + mu*x_j - v[i, j]`` per query.

    As the max over rows i of ``lam*x_i + c_i(mu)``, where ``c_i`` is row
    i's 1-D conjugate, read off its lower hull: row i of the padded
    `_lower_hulls` array ``hulls``.  The queries are sorted by mu once.
    Then, for all rows at once, each hull's edge slopes (kept nondecreasing
    against rounding) cut the sorted mu into one run per vertex (one
    `searchsorted`), and the row loop only repeats each vertex's plane over
    its run and folds it into a running max in place.  The padding copies
    of the last vertex share its plane, so however their edges split its
    run, every query gets the same value.  Each query's value takes the
    same operations whatever the other queries are.
    """
    order = np.argsort(mu, kind="stable")
    lam, mu = lam[order], mu[order]
    x_hull, v_hull = x[hulls], np.take_along_axis(v, hulls, axis=1)
    dx = np.diff(x_hull, axis=1)
    dx[dx == 0.0] = 1.0  # a padded edge (hull abscissae are distinct): flat, not 0/0
    slopes = np.maximum.accumulate(np.diff(v_hull, axis=1) / dx, axis=1)
    runs = np.diff(np.searchsorted(mu, slopes, side="right"), axis=1, prepend=0, append=mu.size)
    best = np.full(mu.size, -np.inf)
    plane = np.empty(mu.size)
    lift = np.empty(mu.size)
    for i, run in enumerate(runs):
        np.multiply(mu, np.repeat(x_hull[i], run), out=plane)
        plane -= np.repeat(v_hull[i], run)
        np.multiply(lam, x[i], out=lift)
        plane += lift
        np.maximum(best, plane, out=best)
    out = np.empty(mu.size)
    out[order] = best
    return out


def _lagrangian_gaps(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gap of every point of `check_lagrangian_gap`, -inf at the corners.

    When ``v`` equals its transpose and the interior slopes are each
    other's transpose (``g[1] == g[0].T``), both exactly, the gap at (j, i)
    equals the one at (i, j) up to rounding: the one `_conjugate_2d` call
    queries the interior points i <= j, and their gaps are mirrored.  Any
    other input, a NaN slope included, queries every interior point.
    """
    n = v.shape[0]
    x = np.linspace(0.0, 1.0, n)
    inner = slice(1, n - 1)
    hulls = _lower_hulls(np.concatenate([v, v[:, [0, -1]].T]))
    rows, cols = hulls[:n], hulls[n:]
    # (edge, its hull, the slope component along it): s = 0 and s = 1 run along t
    edges = ((np.s_[0, :], rows[:1], 1), (np.s_[-1, :], rows[-1:], 1))
    edges += ((np.s_[:, 0], cols[:1], 0), (np.s_[:, -1], cols[1:], 0))
    gaps = np.full((n, n), -np.inf)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite slope gives NaN
        lam, mu = g[0, inner, inner], g[1, inner, inner]
        plane_gap = v[inner, inner] - lam * x[inner, None] - mu * x[None, inner]
        symmetric = np.array_equal(v, v.T) and np.array_equal(mu, lam.T)
        # i <= j, or every point in row-major order: the diagonal -n lies below the square
        query = np.triu_indices(n - 2, 0 if symmetric else -n)
        gap = plane_gap[query] + _conjugate_2d(v, x, rows, lam[query], mu[query])
        gaps[inner, inner][query] = gap
        if symmetric:
            gaps[inner, inner][query[::-1]] = gap
        for edge, hull, axis in edges:
            # the 1-D conjugate: one row, whose lam term is 0
            line, slope = v[edge], g[axis][edge][inner]
            conj = _conjugate_2d(line[None, :], x, hull, np.zeros_like(slope), slope)
            gaps[edge][inner] = line[inner] - slope * x[inner] + conj
    return gaps


def check_lagrangian_gap(f: GridFn, slopes) -> ConvexityReport:
    """Measure how far each point of a 2-D grid is from minimizing its own Lagrangian.

    ``slopes`` holds (d/ds, d/dt) at every grid point, shape (2, n, n).  At
    an interior point x0 with slope g0 the gap is the Fenchel–Young gap
    ``f(x0) - g0·x0 + f*(g0)``, with the conjugate ``f*`` taken exactly
    over the whole lattice (`_conjugate_2d`).  Whatever the slope, the gap
    is at least ``f(x0) - env(x0)`` for the lower convex envelope env of
    the lattice values, and it is 0 up to rounding when f is convex and g0
    its gradient.  So a gap of at most ε everywhere bounds every midpoint
    violation by ε: a wrong slope can only fail the certificate, never pass
    it.  The envelope restricted to a face of the square is the envelope
    of the restriction, so a point on an edge takes the 1-D gap along its
    edge, with the tangential slope only (the normal one may be infinite
    there); the corners, extreme points, are skipped.  A non-finite slope
    off the corners gives a NaN gap, which is reported as the worst.

    The interior points take one query path (`_lagrangian_gaps`), whose
    index set the symmetry picks.  When the values equal their transpose
    and the interior slopes satisfy ``slopes[1] == slopes[0].T``, both
    exactly, the gap is symmetric up to rounding: the points i <= j are
    queried, and their gaps, bit for bit those of a query of every point,
    are mirrored to (j, i).  Any other input, a NaN slope included,
    queries every interior point.  Slopes that do not form a real array
    of shape (2, n, n) raise `InputDomainError`.

    The witness is the (i, j) of the worst gap, the first in row-major
    order among ties.  ``n_pairs`` counts the (point, lattice point) pairs
    the gaps cover: each point against every lattice point of its face.
    """
    _require_instance(GridFn, f=f)
    if f.dims != 2:
        raise InputDomainError("the Lagrangian certificate takes 2-D grids")
    n = f.n
    g = _real_array(slopes, f"slopes of shape {(2, n, n)}")
    if g.shape != (2, n, n):
        raise InputDomainError(f"slopes must have shape {(2, n, n)}, got {g.shape}")
    gaps = _lagrangian_gaps(f.values, g)
    flat = int(np.argmax(gaps))
    witness = tuple(int(c) for c in np.unravel_index(flat, gaps.shape))
    n_pairs = (n - 2) ** 2 * n * n + 4 * (n - 2) * n
    return _report(gaps.flat[flat], witness, n_pairs)


def check_slope_bounds(f: GridFn, axis: int, bound: float, sense: str) -> ConvexityReport:
    """Measure forward difference quotients along ``axis`` against ``bound``.

    ``sense`` is "le" (quotients should stay ≤ bound) or "ge" (≥ bound).
    The reported violation is the worst signed excess past the bound.
    """
    _require_instance(GridFn, f=f)
    if sense not in ("le", "ge"):
        raise InputDomainError("sense must be 'le' or 'ge'")
    _require_finite_real(bound=bound)
    _require_int(axis=axis)
    if axis >= f.dims or axis < 0:
        raise InputDomainError(f"axis {axis} out of range for {f.dims}-D grid")
    h = 1.0 / (f.n - 1)
    quot = np.diff(f.values, axis=axis) / h
    excess = quot - bound if sense == "le" else bound - quot
    flat = int(np.argmax(excess))
    worst = float(excess.flat[flat])
    witness = tuple(int(c) for c in np.unravel_index(flat, excess.shape))
    return _report(worst, witness, excess.size)


def check_monotone(f: GridFn) -> ConvexityReport:
    """Measure nondecreasingness along every axis: the worst forward drop."""
    _require_instance(GridFn, f=f)
    worst = -np.inf
    witness = None
    total = 0
    for axis in range(f.dims):
        drop = -np.diff(f.values, axis=axis)
        total += drop.size
        flat = int(np.argmax(drop))
        if drop.flat[flat] > worst:
            worst = float(drop.flat[flat])
            witness = (axis,) + tuple(int(c) for c in np.unravel_index(flat, drop.shape))
    return _report(worst, witness, total)
