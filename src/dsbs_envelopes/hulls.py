"""Discrete convex/concave envelopes and grid certifiers.

Functions here operate on samples over the uniform lattice of [0,1] or
[0,1]^2 wrapped in :class:`GridFn`.  :func:`lower_convex_envelope` takes the
geometric route on 2-D grids only, the one use it has (claim E): the lower
facets of the Qhull convex hull of the graph points, interpolated back onto
the lattice, every facet filling its lattice bounding box in chunked array
passes.  Its independent oracle, a double discrete Legendre transform that
shares no code with it, lives with the tests.

The certifiers (`check_midpoint_convex`, `check_midpoint_concave`,
`check_slope_bounds`, `check_monotone`) are pure measurements: each reports
the worst violation found and a witness, with deterministic tie-breaking,
so failing runs are reproducible bit for bit.  Among tied cells the first
in row-major order wins; the midpoint certifier, which batches its pairs
one row offset at a time, picks the tied pair with the smallest key
(row offset, half column offset, row, smaller column), the order in which
a loop over the offsets would visit them.  They hold no threshold;
`verify` judges the excess against its fixed tolerance table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .binary import _require_finite_real, _require_int
from .envelopes import _rows_per_chunk
from .errors import InputDomainError

__all__ = [
    "GridFn",
    "ConvexityReport",
    "lower_convex_envelope",
    "upper_concave_envelope",
    "check_midpoint_convex",
    "check_midpoint_concave",
    "check_slope_bounds",
    "check_monotone",
]

_FULL_ENUMERATION_MAX_N = 201  # 2-D full midpoint enumeration up to this n
_DEFAULT_SUBSAMPLE = 10_000_000  # 2-D midpoint pairs sampled above that n
_FILL_CHUNK = 1 << 16  # (facet, lattice point) pairs per pass of the 2-D hull fill


@dataclass(frozen=True)
class GridFn:
    """Samples of a function over the uniform lattice on [0,1]^dims.

    ``values`` is 1-D of length n, or 2-D n-by-n with axis 0 as the first
    coordinate; lattice point i maps to i/(n-1).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        try:
            arr = np.asarray(self.values)
        except ValueError as exc:  # ragged nested sequences
            raise InputDomainError(f"GridFn values must form an array: {exc}") from None
        if arr.dtype.kind not in "biuf":  # strings, complex or objects would cast or fail
            raise InputDomainError(f"GridFn values must be real numbers, not {arr.dtype}")
        arr = arr.astype(float, copy=False)
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

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n)


@dataclass(frozen=True)
class ConvexityReport:
    """One grid measurement: the worst violation, its witness, the pairs examined."""

    worst_violation: float
    witness: Optional[tuple]
    n_pairs: int


# ---------------------------------------------------------------------------
# envelopes — geometric route
# ---------------------------------------------------------------------------


def _lower_hull_2d(v: np.ndarray) -> np.ndarray:
    # qhull is the package's one scipy use; importing it here keeps scipy
    # out of every process that builds no 2-D hull.
    from scipy.spatial import ConvexHull, QhullError

    n = v.shape[0]
    x = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel(), v.ravel()])
    try:
        hull = ConvexHull(pts)
    except QhullError:
        # All graph points coplanar: the function is affine, hence its own
        # envelope.
        return v.copy()
    eqs = hull.equations
    lower = eqs[:, 2] < -1e-12
    h = 1.0 / (n - 1)
    # Each lower facet's lattice bounding box, rows lo[:, 0]..hi[:, 0] and
    # columns lo[:, 1]..hi[:, 1]; facets whose box is empty cover no point.
    c0, c1, c2 = pts[hull.simplices[lower], :2].transpose(1, 0, 2)
    lo = np.maximum(np.ceil(np.minimum(np.minimum(c0, c1), c2) / h - 1e-9), 0).astype(np.intp)
    hi = np.minimum(np.floor(np.maximum(np.maximum(c0, c1), c2) / h + 1e-9), n - 1).astype(np.intp)
    keep = (hi[:, 0] >= lo[:, 0]) & (hi[:, 1] >= lo[:, 1])
    nx, ny, nz, off = eqs[lower][keep].T
    (i0, j0), (ni, nj) = lo[keep].T, (hi - lo + 1)[keep].T
    # Pair p in [starts[f], ends[f]) is facet f at box offset p - starts[f].
    # Chunks of pairs bound the memory; maximum.at applies planes in facet order.
    ends = np.cumsum(ni * nj)
    starts = ends - ni * nj
    total = int(ends[-1]) if ends.size else 0
    env = np.full(n * n, -np.inf)
    for s in range(0, total, _FILL_CHUNK):
        e = min(s + _FILL_CHUNK, total)
        fr = np.arange(np.searchsorted(ends, s, side="right"), np.searchsorted(starts, e))
        f = np.repeat(fr, np.minimum(ends[fr], e) - np.maximum(starts[fr], s))
        k = np.arange(s, e) - starts[f]
        ii, jj = i0[f] + k // nj[f], j0[f] + k % nj[f]
        np.maximum.at(env, ii * n + jj, -(nx[f] * x[ii] + ny[f] * x[jj] + off[f]) / nz[f])
    env = env.reshape(n, n)
    env = np.where(np.isneginf(env), v, env)
    return np.minimum(env, v)


def lower_convex_envelope(f: GridFn) -> GridFn:
    """Pointwise-largest convex minorant of a 2-D f representable on the lattice.

    The lower facets of the 3-D convex hull of the graph; the envelope at a
    lattice point is the max over the lower facet planes whose lattice
    bounding box holds it (every lower facet plane supports the hull from
    below, so the covering facet's plane is that maximum).  The (facet,
    lattice point) pairs are evaluated as arrays, a bounded chunk at a time,
    and reduced with ``np.maximum.at``.  The result is clipped to
    ``min(env, f)`` so floating-point spill never breaks dominance.  A 1-D
    f raises `InputDomainError`.
    """
    if f.dims != 2:
        raise InputDomainError("envelopes are built on 2-D grids only")
    return GridFn(_lower_hull_2d(f.values))


def upper_concave_envelope(f: GridFn) -> GridFn:
    """Pointwise-smallest concave majorant of a 2-D f: exact negation dual of the convex one."""
    return GridFn(-lower_convex_envelope(GridFn(-f.values)).values)


# ---------------------------------------------------------------------------
# certifiers
# ---------------------------------------------------------------------------


def _report(worst: float, witness, n_pairs: int) -> ConvexityReport:
    return ConvexityReport(worst_violation=float(worst), witness=witness, n_pairs=int(n_pairs))


def _midpoint_convex_full(v: np.ndarray) -> ConvexityReport:
    """Every pair of cells of the rows-by-n array ``v`` whose midpoint is a cell.

    A pair is (i, p), (i + 2di, q) with p = 2a + e and q = 2b + e for a
    column parity e; its midpoint is (i + di, a + b + e).  One batched pass
    per row offset di and parity e fills the (row, a, b) table of its
    violations: the pair sums broadcast from the parity's contiguous
    columns, halved, then subtracted from the midpoints, which a sliding
    window over the middle rows reads in place.  At di = 0 only b > a
    counts (b = a is the pair itself, b < a a repeat).  The table is
    computed in chunks that fit the element budget ``envelopes._BLOCK_ELEMS``
    (whole rows where a row's table fits, else slices of a), one reused
    buffer holding each chunk.  A 1-D curve is the single-row case.

    The witness is the pair of largest violation with the smallest key
    (di, b - a, i, min(p, q)).  Only a row offset whose maximum beats the
    running worst has its tied chunks recomputed to find that key.
    ``n_pairs`` is counted in closed form.
    """
    n_rows, n = v.shape
    parts = [np.ascontiguousarray(v[:, e::2]) for e in (0, 1)]
    widths = [part.shape[1] for part in parts]
    mids = [sliding_window_view(v[:, e:], w, axis=1)[:, :w, :] for e, w in enumerate(widths)]
    repeats = [np.tri(w, dtype=bool) for w in widths]  # b <= a
    # (rows, a values) per chunk: whole (a, b) tables where one fits the budget
    steps = [(_rows_per_chunk(w * w), min(w, _rows_per_chunk(w))) for w in widths]
    buf = np.empty(max(min(dr, n_rows) * da * w for (dr, da), w in zip(steps, widths)))

    def chunk(di, e, r0, r1, a0, a1):
        part, w = parts[e], widths[e]
        out = buf[: (r1 - r0) * (a1 - a0) * w].reshape(r1 - r0, a1 - a0, w)
        np.add(part[r0:r1, a0:a1, None], part[r0 + 2 * di : r1 + 2 * di, None, :], out=out)
        out *= 0.5
        np.subtract(mids[e][r0 + di : r1 + di, a0:a1], out, out=out)
        if di == 0:
            np.copyto(out, -np.inf, where=repeats[e][a0:a1])
        return out

    worst, witness = -np.inf, None
    half = (n_rows - 1) // 2
    for di in range(half + 1):
        m = n_rows - 2 * di
        spans = [
            (e, r0, min(r0 + dr, m), a0, min(a0 + da, w))
            for e, ((dr, da), w) in enumerate(zip(steps, widths))
            for r0 in range(0, m, dr)
            for a0 in range(0, w, da)
        ]
        tops = [chunk(di, *span).max() for span in spans]
        top = max(tops)
        if not top > worst:
            continue
        ties = []  # (key, i, p, q, violation) of each tied cell, one tuple per chunk
        for (e, r0, r1, a0, a1), chunk_top in zip(spans, tops):
            if chunk_top == top:
                out = chunk(di, e, r0, r1, a0, a1)
                r, a, b = np.nonzero(out == top)
                val = out[r, a, b]
                i, p, q = r + r0, 2 * (a + a0) + e, 2 * b + e
                # (b - a, i, min(p, q)) as one integer, ordered the same way
                key = (((q - p) // 2 + n) * n_rows + i) * n + np.minimum(p, q)
                ties.append((key, i, p, q, val))
        key, i, p, q, val = (np.concatenate(col) for col in zip(*ties))
        k = int(np.argmin(key))
        worst = float(val[k])
        witness = ((int(i[k]), int(p[k])), (int(i[k]) + 2 * di, int(q[k])))
    # b > a in each parity at di = 0, every (a, b) at each of the half row offsets
    w0, w1 = widths
    n_pairs = n_rows * (w0 * (w0 - 1) + w1 * (w1 - 1)) // 2
    n_pairs += half * (n_rows - half - 1) * (w0 * w0 + w1 * w1)
    return _report(worst, witness, n_pairs)


def _midpoint_convex_2d_sampled(v: np.ndarray, seed: int) -> ConvexityReport:
    n = v.shape[0]
    rng = np.random.default_rng(seed)
    worst = -np.inf
    witness = None
    n_pairs = 0
    chunk = 1_000_000
    while n_pairs < _DEFAULT_SUBSAMPLE:
        m = min(chunk, _DEFAULT_SUBSAMPLE - n_pairs)
        i1 = rng.integers(0, n, m)
        j1 = rng.integers(0, n, m)
        i2 = rng.integers(0, n, m)
        j2 = rng.integers(0, n, m)
        keep = ((i1 + i2) % 2 == 0) & ((j1 + j2) % 2 == 0) & ((i1 != i2) | (j1 != j2))
        i1, j1, i2, j2 = i1[keep], j1[keep], i2[keep], j2[keep]
        if i1.size == 0:
            continue
        viol = v[(i1 + i2) // 2, (j1 + j2) // 2] - 0.5 * (v[i1, j1] + v[i2, j2])
        n_pairs += i1.size
        a = int(np.argmax(viol))
        if viol[a] > worst:
            worst = float(viol[a])
            witness = ((int(i1[a]), int(j1[a])), (int(i2[a]), int(j2[a])))
    return _report(worst, witness, n_pairs)


def check_midpoint_convex(f: GridFn, *, seed: int = 0) -> ConvexityReport:
    """Measure midpoint convexity on the lattice.

    Enumerates every sample pair whose midpoint is itself a lattice point and
    reports the worst ``f(mid) - (f(x)+f(y))/2``.  2-D enumeration is O(n^4);
    above n = 201 a fixed number of pairs is subsampled with a generator
    seeded by ``seed`` (an int >= 0) instead.

    Among the pairs of worst violation, the witness is the one with the
    smallest key.  An enumerated pair ((i, p), (i + 2di, q)), with di >= 0
    and q > p where di = 0, has key (di, (q - p)/2, i, min(p, q)); a 1-D
    pair (p, q) has key ((q - p)/2, p).  Sampled pairs are ranked by draw
    order.
    """
    _require_int(seed=seed)
    if seed < 0:
        raise InputDomainError(f"seed={seed!r} must be non-negative")
    if f.dims == 1:
        rep = _midpoint_convex_full(f.values[None, :])
        witness = rep.witness and (rep.witness[0][1], rep.witness[1][1])
        return _report(rep.worst_violation, witness, rep.n_pairs)
    if f.n <= _FULL_ENUMERATION_MAX_N:
        return _midpoint_convex_full(f.values)
    return _midpoint_convex_2d_sampled(f.values, seed)


def check_midpoint_concave(f: GridFn, *, seed: int = 0) -> ConvexityReport:
    """Midpoint concavity: the convex check applied to the negated samples."""
    return check_midpoint_convex(GridFn(-f.values), seed=seed)


def check_slope_bounds(f: GridFn, axis: int, bound: float, sense: str) -> ConvexityReport:
    """Measure forward difference quotients along ``axis`` against ``bound``.

    ``sense`` is "le" (quotients should stay ≤ bound) or "ge" (≥ bound).
    The reported violation is the worst signed excess past the bound.
    """
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
