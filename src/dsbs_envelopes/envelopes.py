"""Envelope functions of the minimum-divergence surface.

With ``a(s) = d2_inv(s)`` and ``b(t) = d2_inv(t)`` (both on the [0, 1/2]
branch), the two surface slices studied here are

    phi(s, t) = dd2(a(s), b(t))          (same-side marginals)
    psi(s, t) = dd2(a(s), 1 - b(t))      (opposite-side marginals)

together with their Lagrangian families ``phi_q(s) = min_t phi - t/q`` and
``psi_q(s) = max_t psi - t/q``, and the monotone envelopes of all four
(minimum over larger arguments, maximum over smaller arguments).

``phi_tilde`` — the nondecreasing envelope of ``phi`` — has a closed
piecewise form.  Let ``c = (1-rho)/2``.  On

    S0  = {(alpha, beta) : b(beta) >= bconv(a(alpha), c)}

the envelope equals ``alpha`` (the surface touches its tangent plane along
the curve ``b = bconv(a, c)``, where ``dd2(a, bconv(a, c)) = d2(a)``); on the
transposed region it equals ``beta``; elsewhere it equals ``phi`` itself.
The two regions meet only at the origin, so branch order is immaterial.

Brute-force envelope oracles (`phi_tilde_oracle`, `psi_tilde_oracle`, and
the lattice variants) never consult the closed form; they exist to certify
it, and the verification layer treats their agreement as a claim to test,
not an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._optim import golden_min_vec
from .binary import DsbsParams, bconv, d2, d2_inv, _prepare_prob, _scalarize
from .errors import InputDomainError
from .mre import dd2_value

__all__ = [
    "QParam",
    "in_s0",
    "in_s0_transpose",
    "phi",
    "psi",
    "phi_grid",
    "psi_grid",
    "phi_tilde_grid",
    "phi_q",
    "psi_q",
    "phi_q_full",
    "psi_q_full",
    "phi_tilde",
    "phi_tilde_ab",
    "phi_tilde_oracle",
    "psi_tilde_oracle",
    "phi_q_tilde",
    "psi_q_tilde",
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
        for name in ("p", "q"):
            val = getattr(self, name)
            if not isinstance(val, (int, float)) or not math.isfinite(val):
                raise InputDomainError(f"{name} must be a finite real number")
        object.__setattr__(self, "lam", _inv_or_inf(self.p))
        object.__setattr__(self, "mu", _inv_or_inf(self.q))
        object.__setattr__(self, "r", (self.p - 1.0) * (self.q - 1.0))
        object.__setattr__(self, "u", _inv_or_inf(self.p - 1.0))
        object.__setattr__(self, "v", _inv_or_inf(self.q - 1.0))
        q_conj = math.inf if abs(self.q - 1.0) < 1e-300 else self.q / (self.q - 1.0)
        object.__setattr__(self, "q_conj", q_conj)

    @classmethod
    def from_q(cls, q: float) -> "QParam":
        """Envelope-only parameter: q with the neutral exponent p = 1."""
        return cls(1.0, q)


def _require_q_nonzero(qp: QParam) -> float:
    if qp.q == 0.0:
        raise InputDomainError("q must be nonzero")
    return qp.q


# ---------------------------------------------------------------------------
# region membership
# ---------------------------------------------------------------------------


def in_s0(alpha, beta, params: DsbsParams):
    """Membership of (alpha, beta) in the flat region where the envelope is alpha."""
    scalar = np.ndim(alpha) == 0 and np.ndim(beta) == 0
    av = _prepare_prob(alpha, "alpha")
    bv = _prepare_prob(beta, "beta")
    a = np.asarray(d2_inv(av))
    b = np.asarray(d2_inv(bv))
    out = b >= np.asarray(bconv(a, params.crossover))
    return bool(out) if scalar else out


def in_s0_transpose(alpha, beta, params: DsbsParams):
    """Membership in the transposed flat region, where the envelope is beta."""
    return in_s0(beta, alpha, params)


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


def _outer_eval(a_axis: np.ndarray, b_axis: np.ndarray, params: DsbsParams) -> np.ndarray:
    """dd2 over the outer product of two bias axes, chunked by rows."""
    out = np.empty((a_axis.size, b_axis.size))
    for start in range(0, a_axis.size, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, a_axis.size)
        out[start:stop] = dd2_value(a_axis[start:stop, None], b_axis[None, :], params)
    return out


def phi_grid(s_vals, t_vals, params: DsbsParams) -> np.ndarray:
    """phi on the grid ``s_vals x t_vals``; axis 0 indexes s."""
    sv = np.atleast_1d(_prepare_prob(s_vals, "s_vals"))
    tv = np.atleast_1d(_prepare_prob(t_vals, "t_vals"))
    return _outer_eval(np.asarray(d2_inv(sv)), np.asarray(d2_inv(tv)), params)


def psi_grid(s_vals, t_vals, params: DsbsParams) -> np.ndarray:
    """psi on the grid ``s_vals x t_vals``; axis 0 indexes s."""
    sv = np.atleast_1d(_prepare_prob(s_vals, "s_vals"))
    tv = np.atleast_1d(_prepare_prob(t_vals, "t_vals"))
    return _outer_eval(np.asarray(d2_inv(sv)), 1.0 - np.asarray(d2_inv(tv)), params)


def phi_tilde_grid(alpha_vals, beta_vals, params: DsbsParams) -> np.ndarray:
    """phi_tilde on the grid ``alpha_vals x beta_vals``; axis 0 indexes alpha."""
    av = np.atleast_1d(_prepare_prob(alpha_vals, "alpha_vals"))
    bv = np.atleast_1d(_prepare_prob(beta_vals, "beta_vals"))
    a_axis = np.asarray(d2_inv(av))
    b_axis = np.asarray(d2_inv(bv))
    out = np.empty((av.size, bv.size))
    c = params.crossover
    for start in range(0, av.size, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, av.size)
        a = a_axis[start:stop, None]
        b = b_axis[None, :]
        flat_a = b >= np.asarray(bconv(a, c))
        flat_b = a >= np.asarray(bconv(b, c))
        vals = dd2_value(a, b, params)
        block = np.where(flat_a, av[start:stop, None], np.where(flat_b, bv[None, :], vals))
        out[start:stop] = block
    return out


# ---------------------------------------------------------------------------
# the q-indexed 1-D families
# ---------------------------------------------------------------------------

_T_GRID_N = 2001


def _q_opt(s_vals: np.ndarray, q: float, params: DsbsParams, *, kind: str):
    """Optimize ``t -> slice(s, t) - t/q`` per row of ``s_vals``.

    ``kind`` selects the phi slice with minimization or the psi slice with
    maximization.  The search runs in bias coordinates, where t comes in
    closed form: with ``b = d2_inv(t)`` in [0, 1/2] the objective is
    ``slice(a, b) - d2(b)/q``, so ``d2_inv`` is solved once, for the
    2001-point seeding grid ``b_k = d2_inv(k/2000)`` (which guards against
    missed basins).  Grid and refinement evaluate this one function of b.
    The winning cell is refined by lockstep golden-section search to 1e-12
    in b, and the reported argmin is ``d2(b_opt)``.  The objective is flat
    at its optimum, so that t is reproducible only to about 1e-7: a 1e-9
    change in ``d2_inv`` moves it by up to that much, while the value moves
    only by about the size of the change.

    Ties resolve to the smallest t: the grid argmin takes the first index;
    the search variable is ``x = -b`` (exact, and increasing in t), so
    golden-section's leftward shrinking on ties favours small t; and the
    grid candidate wins when the refinement cannot strictly improve it.
    """
    minimize = kind == "phi"
    sign = 1.0 if minimize else -1.0
    a_axis = np.asarray(d2_inv(s_vals))
    x_grid = -np.asarray(d2_inv(np.linspace(0.0, 1.0, _T_GRID_N)))

    def objective(a_col: np.ndarray, x: np.ndarray) -> np.ndarray:
        b = -x
        slice_b = b if minimize else 1.0 - b
        return sign * (dd2_value(a_col, slice_b, params) - np.asarray(d2(b)) / q)

    best_val = np.empty(s_vals.size)
    best_idx = np.empty(s_vals.size, dtype=int)
    for start in range(0, s_vals.size, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, s_vals.size)
        block = objective(a_axis[start:stop, None], x_grid[None, :])
        best_idx[start:stop] = np.argmin(block, axis=1)
        best_val[start:stop] = np.take_along_axis(
            block, best_idx[start:stop, None], axis=1
        )[:, 0]
    lo = x_grid[np.maximum(best_idx - 1, 0)]
    hi = x_grid[np.minimum(best_idx + 1, _T_GRID_N - 1)]
    x_ref, f_ref = golden_min_vec(lambda x: objective(a_axis, x), lo, hi, xtol=1e-12)
    improved = f_ref < best_val
    b_opt = -np.where(improved, x_ref, x_grid[best_idx])
    value = sign * np.where(improved, f_ref, best_val)
    return value, np.asarray(d2(b_opt))


def phi_q_full(s, qp: QParam, params: DsbsParams):
    """Value and minimizing t of ``min_t phi(s, t) - t/q``."""
    q = _require_q_nonzero(qp)
    scalar = np.ndim(s) == 0
    sv = np.atleast_1d(_prepare_prob(s, "s"))
    value, t_opt = _q_opt(sv, q, params, kind="phi")
    return _scalarize(value, scalar), _scalarize(t_opt, scalar)


def psi_q_full(s, qp: QParam, params: DsbsParams):
    """Value and maximizing t of ``max_t psi(s, t) - t/q``."""
    q = _require_q_nonzero(qp)
    scalar = np.ndim(s) == 0
    sv = np.atleast_1d(_prepare_prob(s, "s"))
    value, t_opt = _q_opt(sv, q, params, kind="psi")
    return _scalarize(value, scalar), _scalarize(t_opt, scalar)


def phi_q(s, qp: QParam, params: DsbsParams):
    """``min_t phi(s, t) - t/q``; array-polymorphic in s."""
    return phi_q_full(s, qp, params)[0]


def psi_q(s, qp: QParam, params: DsbsParams):
    """``max_t psi(s, t) - t/q``; array-polymorphic in s."""
    return psi_q_full(s, qp, params)[0]


# ---------------------------------------------------------------------------
# monotone envelopes
# ---------------------------------------------------------------------------


def phi_tilde(alpha, beta, params: DsbsParams):
    """Nondecreasing envelope of phi, evaluated by its piecewise form."""
    scalar = np.ndim(alpha) == 0 and np.ndim(beta) == 0
    av = _prepare_prob(alpha, "alpha")
    bv = _prepare_prob(beta, "beta")
    a = np.asarray(d2_inv(av))
    b = np.asarray(d2_inv(bv))
    c = params.crossover
    flat_a = b >= np.asarray(bconv(a, c))
    flat_b = a >= np.asarray(bconv(b, c))
    vals = dd2_value(a, b, params)
    out = np.where(flat_a, av, np.where(flat_b, bv, vals))
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
    c = params.crossover
    flat_a = bv >= np.asarray(bconv(av, c))
    flat_b = av >= np.asarray(bconv(bv, c))
    vals = dd2_value(av, bv, params)
    out = np.where(flat_a, np.asarray(d2(av)), np.where(flat_b, np.asarray(d2(bv)), vals))
    return _scalarize(np.asarray(out, dtype=float), scalar)


def phi_tilde_oracle(alpha: float, beta: float, params: DsbsParams, n: int = 2001) -> float:
    """Brute-force ``min phi(s, t)`` over an n-by-n grid of [alpha,1] x [beta,1].

    Upper-bounds the true envelope and converges to it as n grows; never
    consults the piecewise form.
    """
    if n < 101:
        raise InputDomainError("n must be at least 101")
    av = float(_prepare_prob(alpha, "alpha"))
    bv = float(_prepare_prob(beta, "beta"))
    s_vals = np.linspace(av, 1.0, n)
    t_vals = np.linspace(bv, 1.0, n)
    return float(np.min(phi_grid(s_vals, t_vals, params)))


def psi_tilde_oracle(alpha: float, beta: float, params: DsbsParams, n: int = 2001) -> float:
    """Brute-force ``max psi(s, t)`` over an n-by-n grid of [0,alpha] x [0,beta]."""
    if n < 101:
        raise InputDomainError("n must be at least 101")
    av = float(_prepare_prob(alpha, "alpha"))
    bv = float(_prepare_prob(beta, "beta"))
    s_vals = np.linspace(0.0, av, n)
    t_vals = np.linspace(0.0, bv, n)
    return float(np.max(psi_grid(s_vals, t_vals, params)))


def _suffix_min_2d(values: np.ndarray) -> np.ndarray:
    """out[i, j] = min(values[i:, j:]) via two reversed cumulative minima."""
    rev = values[::-1, ::-1]
    acc = np.minimum.accumulate(np.minimum.accumulate(rev, axis=0), axis=1)
    return acc[::-1, ::-1]


def _prefix_max_2d(values: np.ndarray) -> np.ndarray:
    """out[i, j] = max(values[:i+1, :j+1]) via two cumulative maxima."""
    return np.maximum.accumulate(np.maximum.accumulate(values, axis=0), axis=1)


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


def _psi_tilde_oracle_lattice(params: DsbsParams, master_n: int = 2001, stride: int = 20):
    """Prefix-max analogue of :func:`_phi_tilde_oracle_lattice` for psi."""
    grid = np.linspace(0.0, 1.0, master_n)
    env = _prefix_max_2d(psi_grid(grid, grid, params))
    return grid[::stride], env[::stride, ::stride]


def phi_q_tilde(alpha: float, qp: QParam, params: DsbsParams, grid_n: int = _T_GRID_N) -> float:
    """``min of phi_q over s in [alpha, 1]`` by brute-force grid; q >= 1 only."""
    _require_q_nonzero(qp)
    if qp.q < 1.0:
        raise InputDomainError("phi_q_tilde is defined for q >= 1")
    av = float(_prepare_prob(alpha, "alpha"))
    s_vals = np.linspace(av, 1.0, grid_n)
    value, _ = _q_opt(s_vals, qp.q, params, kind="phi")
    return float(np.min(value))


def psi_q_tilde(alpha: float, qp: QParam, params: DsbsParams, grid_n: int = _T_GRID_N) -> float:
    """``max over s in [0, alpha]`` of phi_q (q < 0) or psi_q (0 < q < 1).

    The two cases carry different inner slices; q outside them is a domain
    error rather than a silent extrapolation.
    """
    q = _require_q_nonzero(qp)
    if not (q < 0.0 or 0.0 < q < 1.0):
        raise InputDomainError("psi_q_tilde is defined for q < 0 or 0 < q < 1")
    av = float(_prepare_prob(alpha, "alpha"))
    s_vals = np.linspace(0.0, av, grid_n)
    kind = "phi" if q < 0.0 else "psi"
    value, _ = _q_opt(s_vals, q, params, kind=kind)
    return float(np.max(value))


def _psi_q_tilde_lattice(
    qp: QParam, params: DsbsParams, master_n: int = _T_GRID_N, stride: int = 20
):
    """Batched q < 0 envelope: prefix cumulative max of one phi_q master curve.

    Returns (axis, envelope_lattice, phi_q_lattice) so callers can compare
    the envelope against the curve itself without re-evaluating it.
    """
    q = _require_q_nonzero(qp)
    if q >= 0.0:
        raise InputDomainError("lattice envelope helper covers q < 0 only")
    grid = np.linspace(0.0, 1.0, master_n)
    curve, _ = _q_opt(grid, q, params, kind="phi")
    env = np.maximum.accumulate(curve)
    return grid[::stride], env[::stride], curve[::stride]
