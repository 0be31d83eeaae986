"""Envelope functions of the minimum-divergence surface.

With ``a(s) = d2_inv(s)`` and ``b(t) = d2_inv(t)`` (both on the [0, 1/2]
branch), the two surface slices studied here are

    phi(s, t) = dd2(a(s), b(t))          (same-side marginals)
    psi(s, t) = dd2(a(s), 1 - b(t))      (opposite-side marginals)

together with their Lagrangian families ``phi_q(s) = min_t phi - t/q`` and
``psi_q(s) = max_t psi - t/q``.

``phi_tilde`` — the nondecreasing envelope of ``phi`` (the minimum over
larger arguments) — has a closed piecewise form.  Let ``c = (1-rho)/2``.  On

    S0  = {(alpha, beta) : b(beta) >= bconv(a(alpha), c)}

the envelope equals ``alpha`` (the surface touches its tangent plane along
the curve ``b = bconv(a, c)``, where ``dd2(a, bconv(a, c)) = d2(a)``); on the
transposed region it equals ``beta``; elsewhere it equals ``phi`` itself.
The two regions meet only at the origin, so branch order is immaterial.
The branch rule lives in one private mask, which one private kernel in
bias coordinates applies for `phi_tilde`, `phi_tilde_ab` and
`phi_tilde_grid`; `in_s0` and ``cli eval phi_tilde`` read the same mask.

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
from .binary import _LN2, DsbsParams, bconv, d2, d2_inv, _prepare_prob, _require_finite_real, _scalarize
from .errors import InputDomainError
from .mre import _dd2_slope, dd2_value

__all__ = [
    "QParam",
    "in_s0",
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

_CHUNK_ROWS = 256  # row blocking for the dense grid evaluators


def _inv_or_inf(x: float) -> float:
    return math.inf if abs(x) < 1e-300 else 1.0 / x


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
        _require_finite_real(p=self.p, q=self.q)
        object.__setattr__(self, "lam", _inv_or_inf(self.p))
        object.__setattr__(self, "mu", _inv_or_inf(self.q))
        # + 0.0 stores r = 0 as +0.0, never -0.0 (p = 1 with q < 1)
        object.__setattr__(self, "r", (self.p - 1.0) * (self.q - 1.0) + 0.0)
        object.__setattr__(self, "u", _inv_or_inf(self.p - 1.0))
        object.__setattr__(self, "v", _inv_or_inf(self.q - 1.0))
        q_conj = math.inf if abs(self.q - 1.0) < 1e-300 else self.q / (self.q - 1.0)
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


def in_s0(alpha, beta, params: DsbsParams):
    """Membership of (alpha, beta) in the flat region where the envelope is alpha.

    The transposed region, where the envelope is beta, is ``in_s0(beta, alpha)``.
    """
    scalar = np.ndim(alpha) == 0 and np.ndim(beta) == 0
    a = np.asarray(d2_inv(_prepare_prob(alpha, "alpha")))
    b = np.asarray(d2_inv(_prepare_prob(beta, "beta")))
    out = _flat(a, b, params.crossover)
    return bool(out) if scalar else out


# ---------------------------------------------------------------------------
# surface slices
# ---------------------------------------------------------------------------


def phi(s, t, params: DsbsParams):
    """Surface value at same-side marginal deficits (s, t).  Symmetric."""
    sv = _prepare_prob(s, "s")
    tv = _prepare_prob(t, "t")
    return dd2_value(d2_inv(sv), d2_inv(tv), params)


def psi(s, t, params: DsbsParams):
    """Surface value at opposite-side marginal deficits (s, t)."""
    sv = _prepare_prob(s, "s")
    tv = _prepare_prob(t, "t")
    b = np.asarray(d2_inv(tv))
    return dd2_value(d2_inv(sv), 1.0 - b, params)


def _outer_eval(n_rows: int, n_cols: int, block) -> np.ndarray:
    """An n_rows x n_cols grid filled by ``block(rows)``, one row slice at a time."""
    out = np.empty((n_rows, n_cols))
    for start in range(0, n_rows, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, n_rows))
        out[rows] = block(rows)
    return out


def _grid_axes(s_vals, t_vals, names=("s_vals", "t_vals")):
    """The validated deficit axes of a grid and their biases d2_inv."""
    sv = np.atleast_1d(_prepare_prob(s_vals, names[0]))
    tv = np.atleast_1d(_prepare_prob(t_vals, names[1]))
    return sv, tv, np.asarray(d2_inv(sv)), np.asarray(d2_inv(tv))


def phi_grid(s_vals, t_vals, params: DsbsParams) -> np.ndarray:
    """phi on the grid ``s_vals x t_vals``; axis 0 indexes s."""
    sv, tv, a, b = _grid_axes(s_vals, t_vals)
    return _outer_eval(sv.size, tv.size, lambda rows: dd2_value(a[rows, None], b[None, :], params))


def psi_grid(s_vals, t_vals, params: DsbsParams) -> np.ndarray:
    """psi on the grid ``s_vals x t_vals``; axis 0 indexes s."""
    sv, tv, a, b = _grid_axes(s_vals, t_vals)
    b = 1.0 - b
    return _outer_eval(sv.size, tv.size, lambda rows: dd2_value(a[rows, None], b[None, :], params))


def phi_tilde_grid(alpha_vals, beta_vals, params: DsbsParams) -> np.ndarray:
    """phi_tilde on the grid ``alpha_vals x beta_vals``; axis 0 indexes alpha."""
    av, bv, a, b = _grid_axes(alpha_vals, beta_vals, ("alpha_vals", "beta_vals"))

    def block(rows):
        return _phi_tilde_kernel(a[rows, None], b[None, :], av[rows, None], bv[None, :], params)

    return _outer_eval(av.size, bv.size, block)


# ---------------------------------------------------------------------------
# the q-indexed 1-D families
# ---------------------------------------------------------------------------

_T_GRID_N = 2001


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


def _q_slope(a, x, q: float, params: DsbsParams, minimize: bool):
    """Derivative and curvature in ``x = -b`` of the `_q_opt` objective.

    The objective is ``sign * (dd2(a, slice(b)) - d2(b)/q)`` with
    ``slice(b) = b`` and sign +1 for phi, ``slice(b) = 1 - b`` and sign -1
    for psi.  In b its derivative is ``dd2_b - sign * d2'(b)/q`` for both
    kinds (the reflected slice flips the sign of the dd2 term, and so does
    the maximization), with ``d2'(b) = log2(b/(1-b))`` and
    ``d2''(b) = 1/(b(1-b) ln 2)``; in x the derivative changes sign and
    the curvature does not.  At ``b = 0`` the result is NaN or infinite,
    silently.
    """
    b = -x
    slope, curvature = _dd2_slope(a, b if minimize else 1.0 - b, params)
    sign = 1.0 if minimize else -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        d2_slope = np.log(b / (1.0 - b)) / _LN2
        d2_curvature = 1.0 / (b * (1.0 - b) * _LN2)
        return sign * d2_slope / q - slope, sign * (curvature - d2_curvature / q)


def _q_opt(s, qs, params: DsbsParams, *, kind: str):
    """Optimize ``t -> slice(s, t) - t/q`` per point of ``s``, for every q in ``qs``.

    Returns ``(values, t_opt)``, each of shape ``(len(qs), n)`` with one row
    per q, where ``n`` is the number of points of ``s`` (a scalar counts as
    one; an ``s`` of two or more dimensions is rejected).  ``kind`` selects
    the phi slice with minimization or the psi slice with maximization.  The
    search runs in bias coordinates, where t comes in closed form: with
    ``b = d2_inv(t)`` in [0, 1/2] the objective is
    ``slice(a, b) - d2(b)/q``, so ``d2_inv`` is solved once per process, for
    the 2001-point seeding grid ``b_k = d2_inv(k/2000)`` (which guards
    against missed basins).  The surface term ``slice(a, b_k)`` does not
    depend on q: each chunk of rows evaluates it once as a table, and every
    q scores its grid cells from that table.  Each q's winning cell is then
    refined on the closed-form derivative of the same function of b
    (`_q_slope`): a lockstep safeguarded Newton iteration (`newton_root_vec`)
    on the bracket of the two neighbouring grid points, in the search
    variable ``x = -b`` (exact, and increasing in t).  The sign of the
    derivative at the grid point picks the half-cell that holds a local
    minimum (the grid point is the grid's argmin).  A row whose derivative
    there is 0 or not finite (at ``b = 0``), or whose finite derivative at
    the far end of that half-cell shows no sign change, keeps its grid
    point; a NaN at ``b = 0`` as the far end does not stop the search.
    Rows freeze at their own convergence, so a row of a batched call equals
    the one-q call bit for bit.  The reported argmin is ``d2(b_opt)``.
    ``s`` and every q are validated here, for all callers.

    The objective is flat at its optimum but its derivative is not, so the
    argmin is as precise as the value: against 40-digit mpmath, t is within
    1e-13 of the exact argmin and the value within 1e-14 of the optimum
    (measured at most 3.5e-15 and 7.2e-16 on eight phi and psi settings).

    Ties resolve to the smallest t: the grid argmin takes the first index,
    and the grid candidate wins unless the Newton point is strictly better.
    """
    if 0.0 in qs:
        raise InputDomainError("q must be nonzero")
    if np.ndim(s) > 1:
        raise InputDomainError(f"s must be a scalar or 1-D, got shape {np.shape(s)}")
    s_vals = np.atleast_1d(_prepare_prob(s, "s"))
    minimize = kind == "phi"
    sign = 1.0 if minimize else -1.0
    a_axis = np.asarray(d2_inv(s_vals))
    x_grid, d2_grid = _seed_grid()
    b_grid = -x_grid
    slice_grid = b_grid if minimize else 1.0 - b_grid

    shape = (len(qs), s_vals.size)
    best_val = np.empty(shape)
    best_idx = np.empty(shape, dtype=int)
    for start in range(0, s_vals.size, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, s_vals.size))
        table = dd2_value(a_axis[rows, None], slice_grid[None, :], params)
        for k, q in enumerate(qs):
            block = sign * (table - d2_grid / q)
            best_idx[k, rows] = np.argmin(block, axis=1)
            best_val[k, rows] = np.take_along_axis(block, best_idx[k, rows, None], axis=1)[:, 0]
        table = block = None  # freed before the next table and the refinement: peak memory
    values = sign * best_val
    t_opt = d2_grid[best_idx]
    for k, q in enumerate(qs):
        lo = x_grid[np.maximum(best_idx[k] - 1, 0)]
        hi = x_grid[np.minimum(best_idx[k] + 1, _T_GRID_N - 1)]
        x_ref, refined = newton_root_vec(
            lambda x, rows, q=q: _q_slope(a_axis[rows], x, q, params, minimize),
            lo,
            hi,
            x_grid[best_idx[k]],
        )
        idx = np.flatnonzero(refined)
        b_ref = -x_ref[idx]
        d2_ref = np.asarray(d2(b_ref))
        f_ref = sign * (dd2_value(a_axis[idx], b_ref if minimize else 1.0 - b_ref, params) - d2_ref / q)
        better = f_ref < best_val[k, idx]
        values[k, idx[better]] = sign * f_ref[better]
        t_opt[k, idx[better]] = d2_ref[better]
    return values, t_opt


def phi_q_full(s, qp: QParam, params: DsbsParams):
    """Value and minimizing t of ``min_t phi(s, t) - t/q``."""
    value, t_opt = _q_opt(s, (qp.q,), params, kind="phi")
    scalar = np.ndim(s) == 0
    return _scalarize(value[0], scalar), _scalarize(t_opt[0], scalar)


def psi_q_full(s, qp: QParam, params: DsbsParams):
    """Value and maximizing t of ``max_t psi(s, t) - t/q``."""
    value, t_opt = _q_opt(s, (qp.q,), params, kind="psi")
    scalar = np.ndim(s) == 0
    return _scalarize(value[0], scalar), _scalarize(t_opt[0], scalar)


# ---------------------------------------------------------------------------
# monotone envelopes
# ---------------------------------------------------------------------------


def phi_tilde(alpha, beta, params: DsbsParams):
    """Nondecreasing envelope of phi, evaluated by its piecewise form."""
    scalar = np.ndim(alpha) == 0 and np.ndim(beta) == 0
    av = _prepare_prob(alpha, "alpha")
    bv = _prepare_prob(beta, "beta")
    out = _phi_tilde_kernel(np.asarray(d2_inv(av)), np.asarray(d2_inv(bv)), av, bv, params)
    return _scalarize(np.asarray(out, dtype=float), scalar)


def phi_tilde_ab(a, b, params: DsbsParams):
    """The phi_tilde piecewise form in bias coordinates (a, b) in [0, 1/2]^2.

    Returns d2(a) where ``b >= bconv(a, c)``, d2(b) in the transposed region,
    and dd2(a, b) otherwise.  Same function as
    ``phi_tilde(d2(a), d2(b))`` but without the round trip through the
    deficit coordinates; used by the Lagrangian sweeps.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    av = _prepare_prob(a, "a")
    bv = _prepare_prob(b, "b")
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

