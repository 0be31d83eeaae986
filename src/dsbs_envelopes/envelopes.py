"""Envelope functions of the minimum-divergence surface.

With ``a(s) = d2_inv(s)`` and ``b(t) = d2_inv(t)`` (both on the [0, 1/2]
branch), the two surface slices studied here are

    phi(s, t) = dd2(a(s), b(t))          (same-side marginals)
    psi(s, t) = dd2(a(s), 1 - b(t))      (opposite-side marginals)

together with their Lagrangian families ``phi_q(s) = min_t phi - t/q`` and
``psi_q(s) = max_t psi - t/q``.  Relabelling ``Y -> 1 - Y`` swaps the
agree and differ cells, so psi is phi of the mirrored source
(`binary._mirror`, ``rho -> -rho``): every psi evaluator is phi's on the
mirror, and none forms ``1 - b``, which would round away b's digits.

``phi_tilde`` — the nondecreasing envelope of ``phi`` (the minimum over
larger arguments) — has a closed piecewise form.  Let ``c = (1-rho)/2``.  On

    S0  = {(alpha, beta) : b(beta) >= bconv(a(alpha), c)}

the envelope equals ``alpha`` (the surface touches its tangent plane along
the curve ``b = bconv(a, c)``, where ``dd2(a, bconv(a, c)) = d2(a)``); on the
transposed region it equals ``beta``; elsewhere it equals ``phi`` itself.
The two regions meet only at the origin, so branch order is immaterial.
The branch rule lives in one private mask, which one private kernel in
bias coordinates applies for `phi_tilde`, `phi_tilde_ab` and
`phi_tilde_grid`; ``cli eval phi_tilde`` reads the same mask.

The upper envelopes (the maximum over smaller arguments) of ``psi`` and of
``phi_q`` for q < 0 are the functions themselves, because both are
nondecreasing; the verification layer certifies that by measuring their
monotonicity directly.  ``phi_tilde`` keeps a brute-force oracle, the
running-minimum lattice `_phi_tilde_oracle_lattice`, which never consults
the closed form; the tests treat its agreement as a claim to check, not an
assumption.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._optim import newton_root_vec
from .binary import (
    _LN2, DsbsParams, bconv, d2, d2_inv, _d2_slope, _mirror, _prepare_prob, _scalarize, _store_finite_reals
)
from .errors import InputDomainError
from .mre import _dd2_slope, dd2_value

__all__ = [
    "QParam",
    "phi",
    "psi",
    "phi_grid",
    "psi_grid",
    "phi_tilde_grid",
    "phi_q_full",
    "psi_q_full",
    "phi_tilde",
    "phi_tilde_ab",
]

# Elements per chunk of a dense grid evaluation: each float64 temporary of
# the surface kernel is then 256 KB, and the few that one chunk holds at a
# time stay in L2 cache (see the `mre` module docstring).
_BLOCK_ELEMS = 1 << 15


# Size below which a reciprocal is taken as infinite: 1/x would overflow.
_RECIPROCAL_FLOOR = 1e-300


def _inv_or_inf(x: float) -> float:
    return math.inf if abs(x) < _RECIPROCAL_FLOOR else 1.0 / x


@dataclass(frozen=True, slots=True)
class QParam:
    """Exponent pair (p, q) with its derived Lagrangian quantities.

    ``lam`` and ``mu`` are the reciprocals 1/p and 1/q, ``r = (p-1)(q-1)``,
    ``u`` and ``v`` are the reciprocals of ``p-1`` and ``q-1``, and
    ``q_conj = q/(q-1)`` is the Hölder conjugate used as a plotting axis.
    Reciprocals of zero are stored as ``inf`` rather than raising: boundary
    exponents are legitimate inputs for the envelope family.
    """

    p: float
    q: float
    lam: float = field(init=False)
    mu: float = field(init=False)
    r: float = field(init=False)
    u: float = field(init=False)
    v: float = field(init=False)
    q_conj: float = field(init=False)

    def __post_init__(self) -> None:
        _store_finite_reals(self, "p", "q")
        object.__setattr__(self, "lam", _inv_or_inf(self.p))
        object.__setattr__(self, "mu", _inv_or_inf(self.q))
        # + 0.0 stores r = 0 as +0.0, never -0.0 (p = 1 with q < 1)
        object.__setattr__(self, "r", (self.p - 1.0) * (self.q - 1.0) + 0.0)
        object.__setattr__(self, "u", _inv_or_inf(self.p - 1.0))
        object.__setattr__(self, "v", _inv_or_inf(self.q - 1.0))
        q_conj = math.inf if abs(self.q - 1.0) < _RECIPROCAL_FLOOR else self.q / (self.q - 1.0)
        object.__setattr__(self, "q_conj", q_conj)

    @classmethod
    def from_q(cls, q: float) -> "QParam":
        """Envelope-only parameter: q with the neutral exponent p = 1."""
        return cls(1.0, q)


# ---------------------------------------------------------------------------
# the phi_tilde kernel and region membership
# ---------------------------------------------------------------------------


def _flat(a, b, c: float):
    """Branch mask of S0 in bias coordinates: ``b >= bconv(a, c)``."""
    return b >= np.asarray(bconv(a, c))


def _phi_tilde_kernel(a, b, val_a, val_b, params: DsbsParams):
    """phi_tilde at biases (a, b) in [0, 1/2]^2, broadcasting.

    ``val_a`` and ``val_b`` are the flat-branch values d2(a) and d2(b), in
    whatever form the caller already holds them (the deficits themselves,
    or d2 of the biases).
    """
    c = params.crossover
    vals = dd2_value(a, b, params)
    return np.where(_flat(a, b, c), val_a, np.where(_flat(b, a, c), val_b, vals))


# ---------------------------------------------------------------------------
# surface slices
# ---------------------------------------------------------------------------


def phi(s, t, params: DsbsParams):
    """Surface value at same-side marginal deficits (s, t).  Symmetric."""
    sv = _prepare_prob(s, "s")
    tv = _prepare_prob(t, "t")
    return dd2_value(d2_inv(sv), d2_inv(tv), params)


def psi(s, t, params: DsbsParams):
    """Surface value at opposite-side marginal deficits (s, t): phi of the mirror."""
    return phi(s, t, _mirror(params))


def _rows_per_chunk(n_cols: int) -> int:
    """Rows of ``n_cols`` elements that fit the element budget ``_BLOCK_ELEMS`` (at least 1)."""
    return max(1, _BLOCK_ELEMS // max(n_cols, 1))


def _outer_eval(n_rows: int, n_cols: int, block, symmetric: bool) -> np.ndarray:
    """An n_rows x n_cols grid filled by ``block(rows, cols)``, one row slice at a time.

    Each slice holds as many rows as fit the element budget
    ``_BLOCK_ELEMS``, so that the surface kernel's temporaries for one
    slice stay in L2 cache.  A ``symmetric`` grid (square, of a bitwise
    symmetric kernel, as `mre`'s dd2 is) fills each slice from its
    diagonal on and mirrors the part right of the slice's own square below
    it: about half the cells are computed, and the grid equals the full
    fill bit for bit.
    """
    out = np.empty((n_rows, n_cols))
    step = _rows_per_chunk(n_cols)
    for start in range(0, n_rows, step):
        rows = slice(start, min(start + step, n_rows))
        cols = slice(start if symmetric else 0, None)
        out[rows, cols] = block(rows, cols)
        if symmetric:
            out[rows.stop :, rows] = out[rows, rows.stop :].T
    return out


def _grid_axes(s_vals, t_vals, names=("s_vals", "t_vals")):
    """The validated deficit axes of a grid, their biases d2_inv, and whether the axes are equal.

    Each axis is a scalar or 1-D; equal axes (the same floats, bit for bit)
    make a square grid of a symmetric surface.
    """
    axes = []
    for vals, name in zip((s_vals, t_vals), names):
        axis = _prepare_prob(vals, name)
        if np.ndim(axis) > 1:
            raise InputDomainError(f"{name} must be a scalar or 1-D, got shape {np.shape(axis)}")
        axes.append(np.atleast_1d(axis))
    sv, tv = axes
    same = sv.size == tv.size and sv.tobytes() == tv.tobytes()
    return sv, tv, np.asarray(d2_inv(sv)), np.asarray(d2_inv(tv)), same


def phi_grid(s_vals, t_vals, params: DsbsParams) -> np.ndarray:
    """phi on the grid ``s_vals x t_vals``; axis 0 indexes s.

    phi is symmetric, and dd2 bitwise so: on equal axes one triangle is
    evaluated and mirrored (`_outer_eval`).
    """
    sv, tv, a, b, same = _grid_axes(s_vals, t_vals)

    def block(rows, cols):
        return dd2_value(a[rows, None], b[None, cols], params)

    return _outer_eval(sv.size, tv.size, block, same)


def psi_grid(s_vals, t_vals, params: DsbsParams) -> np.ndarray:
    """psi on the grid ``s_vals x t_vals`` (axis 0 indexes s): phi_grid of the mirror."""
    return phi_grid(s_vals, t_vals, _mirror(params))


def phi_tilde_grid(alpha_vals, beta_vals, params: DsbsParams) -> np.ndarray:
    """phi_tilde on the grid ``alpha_vals x beta_vals``; axis 0 indexes alpha.

    Symmetric like phi (its two flat branches are each other's transpose),
    so equal axes fill one triangle and mirror it.
    """
    av, bv, a, b, same = _grid_axes(alpha_vals, beta_vals, ("alpha_vals", "beta_vals"))

    def block(rows, cols):
        return _phi_tilde_kernel(a[rows, None], b[None, cols], av[rows, None], bv[None, cols], params)

    return _outer_eval(av.size, bv.size, block, same)


def _s_slope(a, b, source: DsbsParams):
    """The slope in s of phi on ``source`` (psi's on the mirror) at biases a = a(s), b = b(t).

    dd2 is symmetric, so it is `_dd2_slope` at (b, a) over ``d2'(a) =
    log2(a/(1-a))`` (`binary._d2_slope`); infinite or NaN at ``a = 0``,
    silently.  Broadcasting.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _dd2_slope(b, a, source, curvature=False) / _d2_slope(a)


def _slope_field(axis, params: DsbsParams, *, kind: str) -> np.ndarray:
    """(d/ds, d/dt) of phi_tilde or psi on the grid ``axis x axis``, shape (2, n, n).

    The interior slope in s is `_s_slope`, and in t its transpose.  ``kind``
    "phi_tilde" takes it on the source, with the slopes (1, 0) and (0, 1) on
    the flat branches that `_flat` picks (the first one winning, as in
    `_phi_tilde_kernel`); "psi" takes it on the mirrored source, where there
    is no flat branch.  On an edge of the square the normal slope may be
    infinite or NaN, silently; the tangential one is finite.
    """
    a = np.asarray(d2_inv(np.atleast_1d(_prepare_prob(axis, "axis"))))
    source = params if kind == "phi_tilde" else _mirror(params)
    ds = _outer_eval(a.size, a.size, lambda rows, cols: _s_slope(a[rows, None], a[None, cols], source), False)
    slopes = np.stack([ds, ds.T])  # phi and psi are symmetric in (s, t)
    if kind == "phi_tilde":
        alpha = _flat(a[:, None], a[None, :], params.crossover)  # phi_tilde = s
        beta = alpha.T & ~alpha  # phi_tilde = t
        slopes[0][alpha], slopes[1][alpha] = 1.0, 0.0
        slopes[0][beta], slopes[1][beta] = 0.0, 1.0
    return slopes


# ---------------------------------------------------------------------------
# the q-indexed 1-D families
# ---------------------------------------------------------------------------

_T_GRID_N = 2001
# Seed-grid cells per block of `_bound_grid_argmin`, about sqrt(_T_GRID_N):
# 50 blocks, so that both grid ends are block ends
_SEED_BLOCK = 40


@functools.lru_cache(maxsize=1)
def _seed_grid() -> tuple:
    """The read-only seeding grid of `_q_opt`: ``x_k = -d2_inv(k/2000)`` and ``d2(-x_k)``.

    It depends on nothing but ``_T_GRID_N``, so it is built once per process.
    """
    x = -np.asarray(d2_inv(np.linspace(0.0, 1.0, _T_GRID_N)))
    d2_b = np.asarray(d2(-x))
    x.flags.writeable = False
    d2_b.flags.writeable = False
    return x, d2_b


def _q_slope(a, x, q, source: DsbsParams, sign: float, *, curvature: bool = True):
    """Derivative and curvature in ``x = -b`` of the `_q_opt` objective.

    The objective is ``sign * (dd2(a, b) - d2(b)/q)`` on ``source``: the
    source itself with sign +1 for phi, its mirror with sign -1 for psi.
    In b its derivative is ``sign * (dd2_b - d2'(b)/q)``, with
    ``d2'(b) = log2(b/(1-b))`` and ``d2''(b) = 1/(b(1-b) ln 2)``; in x the
    derivative changes sign and the curvature does not.  ``q`` is a float
    or an array of one q per row of ``a`` and ``x``.  At ``b = 0`` the
    result is NaN or infinite, silently.  ``curvature=False`` returns the
    derivative alone, without computing the curvature.
    """
    b = -x
    with np.errstate(divide="ignore", invalid="ignore"):
        d2_slope = _d2_slope(b)
        if not curvature:
            return sign * (d2_slope / q - _dd2_slope(a, b, source, curvature=False))
        slope, dd2_curvature = _dd2_slope(a, b, source)
        d2_curvature = 1.0 / (b * (1.0 - b) * _LN2)
        return sign * (d2_slope / q - slope), sign * (dd2_curvature - d2_curvature / q)


def _convex_grid_argmin(a_rows, q_rows, params: DsbsParams):
    """Seed-grid argmin index and value of ``dd2(a, b_k) - d2(b_k)/q`` per row, for q < 0.

    The objective is convex in b (dd2 is jointly convex, and so is d2), so
    its slope in ``x = -b`` (`_q_slope`) rises along the grid and changes
    sign at most once.  A lockstep binary search finds that change: each
    row keeps ``lo`` at a point of negative slope (or -1 before one is
    seen) and ``hi`` at a point of slope >= 0 (or the b = 0 end, whose
    slope is never evaluated), and halves the gap while it exceeds 1.  The argmin is then
    ``lo`` or ``hi``, the first on a tie, and its value takes the same
    float operations as a cell of `_q_opt`'s table.
    """
    x_grid, d2_grid = _seed_grid()
    lo = np.full(a_rows.size, -1)
    hi = np.full(a_rows.size, _T_GRID_N - 1)
    live = np.arange(a_rows.size)  # the rows whose gap still exceeds 1
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        rising = _q_slope(a_rows[live], x_grid[mid], q_rows[live], params, 1.0, curvature=False) >= 0.0
        hi[live[rising]], lo[live[~rising]] = mid[rising], mid[~rising]
        live = live[hi[live] - lo[live] > 1]
    pair = np.maximum(np.stack([lo, hi], axis=1), 0)
    vals = dd2_value(a_rows[:, None], -x_grid[pair], params) - d2_grid[pair] / q_rows[:, None]
    pick = np.argmin(vals, axis=1)
    r = np.arange(a_rows.size)
    return pair[r, pick], vals[r, pick]


def _block_bounds(score_end, terms, width):
    """Lower bound of the score on each block between consecutive block ends, shape (..., ends - 1).

    ``terms`` are the (coefficient, value, b-slope) triples, at the block
    ends, of the score's convex and concave terms, and ``score_end`` is
    their sum there.  Each term joins the convex part g or the concave part
    h by the sign of its coefficient.  On a block, g lies above its tangent
    at either end and h above its chord, so the tangent at one end plus the
    chord, a line in b, bounds the score below by the lesser of its two end
    values; the block's bound is the larger of the two ends' (-inf for an
    end whose slope is not finite, as at b = 0).  ``width`` is each block's
    step in b.
    """
    g = dg = h = 0.0
    for coef, val, slope in terms:
        if coef > 0.0:
            g, dg = g + coef * val, dg + coef * slope
        else:
            h = h + coef * val
    g, dg, h = np.broadcast_arrays(g, dg, h)
    lo, hi = (..., slice(None, -1)), (..., slice(1, None))
    from_lo = np.where(np.isfinite(dg[lo]), g[lo] + dg[lo] * width + h[hi], -np.inf)
    from_hi = np.where(np.isfinite(dg[hi]), g[hi] - dg[hi] * width + h[lo], -np.inf)
    return np.maximum(np.minimum(score_end[lo], from_lo), np.minimum(score_end[hi], from_hi))


def _bound_grid_argmin(a_axis, qs, source: DsbsParams, sign: float):
    """Seed-grid argmin index and score of ``sign * (dd2(a, b_k) - d2(b_k)/q)``, shape (len(qs), n).

    A branch and bound over blocks of ``_SEED_BLOCK`` cells.  In b the score
    is a convex function plus a concave one, since dd2 is jointly convex
    and d2 is convex, which bounds it below on each block
    (`_block_bounds`).  dd2 and its b-slope at the block ends are
    evaluated once per point for every q.  A block whose bound exceeds the
    best end score by more than ``1e-9 * (1 + |best|)``, far above the
    float error of scores and bound (about 1e-14), cannot hold the argmin
    and is skipped.  The cells of every other block are scored with the
    float operations of `_q_opt`'s single-point table, so index and score
    are the table's bit for bit, the first index on a tie.  Points are
    taken in chunks whose few block-end arrays fit the element budget
    ``_BLOCK_ELEMS`` together, and the kept cells are scored in chunks of
    at most that many.
    """
    x_grid, d2_grid = _seed_grid()
    ends = np.arange(0, _T_GRID_N, _SEED_BLOCK)
    b_end = -x_grid[ends]
    d2_slope = _d2_slope(b_end)  # -inf at b = 0
    width = np.diff(b_end)
    inner = np.arange(1, _SEED_BLOCK)  # a block's cells strictly between its ends
    best_idx = np.empty((len(qs), a_axis.size), dtype=int)
    best_val = np.empty((len(qs), a_axis.size))
    step = _rows_per_chunk(4 * ends.size)  # dd2, its slope, a q's scores and bounds at the ends
    for start in range(0, a_axis.size, step):
        pts = slice(start, min(start + step, a_axis.size))
        a = a_axis[pts, None]
        dd2_end = dd2_value(a, b_end, source)
        dd2_slope = _dd2_slope(a, b_end, source, curvature=False)
        rows = np.arange(a.shape[0])
        for k, q in enumerate(qs):
            d2_over_q = d2_grid / q
            score_end = sign * (dd2_end - d2_over_q[ends])
            terms = ((sign, dd2_end, dd2_slope), (-sign / q, d2_grid[ends], d2_slope))
            best = score_end.min(axis=1, keepdims=True)
            bound = _block_bounds(score_end, terms, width)
            kept_row, kept_block = np.nonzero(~(bound > best + 1e-9 * (1.0 + np.abs(best))))
            inner_val = np.full(bound.shape, np.inf)
            inner_idx = np.zeros(bound.shape, dtype=int)
            bound = None  # freed before the cells are scored: peak memory
            per = _rows_per_chunk(inner.size)
            for p in range(0, kept_row.size, per):
                r, j = kept_row[p : p + per], kept_block[p : p + per]
                cells = ends[j, None] + inner
                vals = sign * (dd2_value(a[r], -x_grid[cells], source) - d2_over_q[cells])
                pick = np.argmin(vals, axis=1)
                pairs = np.arange(r.size)
                inner_idx[r, j], inner_val[r, j] = cells[pairs, pick], vals[pairs, pick]
            # the ends and the block interiors in grid order: the first minimum is the table's
            cand_val = np.empty((rows.size, 2 * ends.size - 1))
            cand_idx = np.empty(cand_val.shape, dtype=int)
            cand_val[:, ::2], cand_val[:, 1::2] = score_end, inner_val
            cand_idx[:, ::2], cand_idx[:, 1::2] = ends, inner_idx
            pick = np.argmin(cand_val, axis=1)
            best_idx[k, pts], best_val[k, pts] = cand_idx[rows, pick], cand_val[rows, pick]
    return best_idx, best_val


def _q_opt(s, qs, params: DsbsParams, *, kind: str):
    """Optimize ``t -> phi(s, t) - t/q`` or psi's per point of ``s``, for every q in ``qs``.

    Returns ``(values, t_opt)``, each of shape ``(len(qs), n)`` with one row
    per q, where ``n`` is the number of points of ``s`` (a scalar counts as
    one; an ``s`` of two or more dimensions is rejected).  ``kind`` picks
    the source and the sign: phi minimizes on the source, psi maximizes on
    its mirror.  The search runs in bias coordinates, where t comes in closed
    form: with ``b = d2_inv(t)`` in [0, 1/2] the objective is
    ``dd2(a, b) - d2(b)/q``, so ``d2_inv`` is solved once per process, for
    the 2001-point seeding grid ``b_k = d2_inv(k/2000)``.  The grid argmin
    of each (q, point) pair takes one of three routes, which give the same
    index and value, bit for bit:

    - A single point evaluates the surface term ``dd2(a, b_k)``, which does
      not depend on q, as one 2001-cell table and scores every q from it:
      one kernel call costs less there than either search.
    - On two or more points, a phi row with q < 0 has an objective convex
      in b (dd2 is jointly convex, and so is d2), whose slope changes sign
      at most once along the grid: a binary search on that sign
      (`_convex_grid_argmin`) finds it in at most 11 slope calls per row.
    - On two or more points, every other row (psi, and phi with q > 0) is
      the sum of a convex and a concave function of b, and a branch and
      bound over blocks of the grid (`_bound_grid_argmin`) scores only
      the blocks whose lower bound does not rule them out: 13-17 % of the
      table's cells on 101 points at rho 0.5 and 0.9, and all of them near
      rho = 0, where the surface is flat within the bound's margin.

    The winning cell of every (q, point) pair is then refined on the
    closed-form derivative of the same function of b (`_q_slope`), all q
    at once: one lockstep safeguarded Newton call (`newton_root_vec`),
    each pair on the bracket of its two neighbouring grid points, in the
    search variable ``x = -b`` (exact, and increasing in t), and one
    evaluation of the refined points.  The sign of the derivative at the
    grid point picks the half-cell that holds a local minimum (the grid
    point is the grid's argmin).  A convex row won by the ``b = 0`` end
    starts from its interior neighbour instead: its derivative in b tends
    to -inf as b -> 0, so the optimum lies strictly inside the last cell.
    Any other row whose derivative at the grid point is 0 or not finite
    (at ``b = 0``), or whose finite derivative at the far end of that
    half-cell shows no sign change, keeps its grid point; a NaN at
    ``b = 0`` as the far end does not stop the search.
    Rows freeze at their own convergence, so a row of a batched call equals
    the one-q call bit for bit.  The value is the lesser of the grid's and
    the refined point's.  The reported argmin is ``d2`` of the refined
    point unless its value is worse than the grid's by more than rounding
    (8 ulps of ``1 + |value|``), and of the grid point otherwise: at a flat
    optimum the two values tie, and only the root is precise in t.
    ``s`` and every q are validated here, for all callers: a q of size below
    1e-300, where ``d2/q`` would overflow, is refused like q = 0.

    The objective is flat at its optimum but its derivative is not, so the
    argmin is as precise as the value: against 40-digit mpmath, t is within
    1e-13 of the exact argmin and the value within 1e-14 of the optimum
    (measured at most 2.0e-16 and 1.6e-15 on twelve phi and psi settings,
    among them phi's last cell at rho 0.999998 and three optima that tie a
    grid point's value, where the grid's t is up to 1.4e-8 off).  For psi
    and for phi with q > 0 an optimum inside the last cell is not searched:
    the grid end is kept, which misses by up to 1.6e-6 (psi, q = 0.5,
    rho 0.999998).

    Ties on the grid resolve to the smallest t: the grid argmin takes the
    first index.
    """
    tiny = [q for q in qs if abs(q) < _RECIPROCAL_FLOOR]
    if tiny:
        raise InputDomainError(f"q={tiny[0]!r} must be nonzero with |q| >= {_RECIPROCAL_FLOOR!r}")
    s_vals = _prepare_prob(s, "s")
    if s_vals.ndim > 1:
        raise InputDomainError(f"s must be a scalar or 1-D, got shape {s_vals.shape}")
    s_vals = np.atleast_1d(s_vals)
    source, sign = (params, 1.0) if kind == "phi" else (_mirror(params), -1.0)
    a_axis = np.asarray(d2_inv(s_vals))
    x_grid, d2_grid = _seed_grid()
    # flat row i is the pair (q index i // n, point i % n)
    shape = (len(qs), s_vals.size)
    q_axis = np.asarray(qs, dtype=float)
    q_rows = np.repeat(q_axis, s_vals.size)
    a_rows = np.tile(a_axis, len(qs))
    convex_q = (q_axis < 0.0) & (kind == "phi")
    convex = np.repeat(convex_q, s_vals.size)

    if s_vals.size == 1:
        scores = sign * (dd2_value(a_axis[:, None], -x_grid[None, :], source) - d2_grid / q_axis[:, None])
        best_idx = np.argmin(scores, axis=1)
        best_val = scores[np.arange(len(qs)), best_idx]
    else:
        best_idx = np.empty(q_rows.size, dtype=int)
        best_val = np.empty(q_rows.size)
        if convex.any():
            best_idx[convex], best_val[convex] = _convex_grid_argmin(a_rows[convex], q_rows[convex], source)
        if not convex.all():
            idx, val = _bound_grid_argmin(a_axis, q_axis[~convex_q], source, sign)
            best_idx[~convex], best_val[~convex] = idx.ravel(), val.ravel()
    values = sign * best_val
    t_opt = d2_grid[best_idx]
    # a convex row won by the b = 0 end starts from its interior neighbour:
    # its slope there is finite and negative, and +inf at b = 0
    end = convex & (best_idx == _T_GRID_N - 1)
    x_ref, refined = newton_root_vec(
        lambda x, rows: _q_slope(a_rows[rows], x, q_rows[rows], source, sign),
        x_grid[np.maximum(best_idx - 1, 0)],
        x_grid[np.minimum(best_idx + 1, _T_GRID_N - 1)],
        x_grid[best_idx - end],
    )
    idx = np.flatnonzero(refined)
    b_ref = -x_ref[idx]
    d2_ref = np.asarray(d2(b_ref))
    f_ref = sign * (dd2_value(a_rows[idx], b_ref, source) - d2_ref / q_rows[idx])
    better = f_ref < best_val[idx]
    values[idx[better]] = sign * f_ref[better]
    # at a flat optimum the Newton root can tie the grid value within its
    # rounding yet lie closer to the exact argmin, so its t is reported
    # there too.  dd2 sums cell terms of size up to about 1, so the rounding
    # is absolute at that scale: 8 ulps of 1 + |value|
    level = f_ref <= best_val[idx] + 8.0 * np.spacing(1.0 + np.abs(best_val[idx]))
    t_opt[idx[level]] = d2_ref[level]
    return values.reshape(shape), t_opt.reshape(shape)


def _require_qparam(qp) -> None:
    if not isinstance(qp, QParam):
        raise InputDomainError(f"qp must be a QParam, not {type(qp).__name__}")


def phi_q_full(s, qp: QParam, params: DsbsParams):
    """Value and minimizing t of ``min_t phi(s, t) - t/q``."""
    _require_qparam(qp)
    value, t_opt = _q_opt(s, (qp.q,), params, kind="phi")
    scalar = np.ndim(s) == 0
    return _scalarize(value[0], scalar), _scalarize(t_opt[0], scalar)


def psi_q_full(s, qp: QParam, params: DsbsParams):
    """Value and maximizing t of ``max_t psi(s, t) - t/q``."""
    _require_qparam(qp)
    value, t_opt = _q_opt(s, (qp.q,), params, kind="psi")
    scalar = np.ndim(s) == 0
    return _scalarize(value[0], scalar), _scalarize(t_opt[0], scalar)


# ---------------------------------------------------------------------------
# monotone envelopes
# ---------------------------------------------------------------------------


def phi_tilde(alpha, beta, params: DsbsParams):
    """Nondecreasing envelope of phi, evaluated by its piecewise form."""
    av = _prepare_prob(alpha, "alpha")
    bv = _prepare_prob(beta, "beta")
    scalar = av.ndim == 0 and bv.ndim == 0
    out = _phi_tilde_kernel(np.asarray(d2_inv(av)), np.asarray(d2_inv(bv)), av, bv, params)
    return _scalarize(np.asarray(out, dtype=float), scalar)


def phi_tilde_ab(a, b, params: DsbsParams):
    """The phi_tilde piecewise form in bias coordinates (a, b) in [0, 1/2]^2.

    Returns d2(a) where ``b >= bconv(a, c)``, d2(b) in the transposed region,
    and dd2(a, b) otherwise.  Same function as
    ``phi_tilde(d2(a), d2(b))`` but without the round trip through the
    deficit coordinates; used by the Lagrangian sweeps.
    """
    av = _prepare_prob(a, "a")
    bv = _prepare_prob(b, "b")
    scalar = av.ndim == 0 and bv.ndim == 0
    out = _phi_tilde_kernel(av, bv, np.asarray(d2(av)), np.asarray(d2(bv)), params)
    return _scalarize(np.asarray(out, dtype=float), scalar)


def _suffix_min_2d(values: np.ndarray) -> np.ndarray:
    """out[i, j] = min(values[i:, j:]) via two reversed cumulative minima."""
    rev = values[::-1, ::-1]
    acc = np.minimum.accumulate(np.minimum.accumulate(rev, axis=0), axis=1)
    return acc[::-1, ::-1]


def _phi_tilde_oracle_lattice(params: DsbsParams, master_n: int = 2001, stride: int = 20):
    """Envelope oracle on a sublattice, batched through one master grid.

    Evaluates phi once on the master_n x master_n grid and takes suffix
    minima, so the value at lattice point (i, j) is the minimum of phi over
    every master grid point with s >= s_i and t >= t_j — a brute-force
    envelope whose grid is at least as fine as respanning [s_i, 1] with
    master_n points.  Returns (axis, oracle_lattice).
    """
    grid = np.linspace(0.0, 1.0, master_n)
    env = _suffix_min_2d(phi_grid(grid, grid, params))
    return grid[::stride], env[::stride, ::stride]

