"""Lagrangian stationarity machinery: scalar root problems and couplings.

An interior stationary coupling of the exponent pair (p, q) has cells
proportional to ``(y*z, z*theta, y*theta, 1)`` where ``z`` and ``y`` are the
marginal-ratio variables of the two stationarity conditions,

    ((q00+q01)/(q10+q11))^(1/p) = z,      ((q00+q10)/(q01+q11))^(1/q) = y,

and theta is the source odds parameter.  Substituting the cells back into
the conditions couples z and y through the Möbius map
``w(x) = (x+theta)/(1+theta*x)``: writing ``W(h) = ln w(e^h)``, stationarity
reads ``ln y = v*W(ln z)`` and ``ln z = u*W(ln y)`` simultaneously, which
collapses to the scalar root equation

    W(v*W(h)) = r*v*h,            h = ln z,  r = (p-1)(q-1),

(`aux_phi_h` is its left-minus-right side f, evaluated as that very
composition of W).  Its slope is v*g, where ``g(h) = W'(|v|*W(h))*W'(h) - r``
falls from g(0) = rho^2 - r on h > 0.  One evaluator, `_aux_terms`,
returns f, g and g's float pad (and g') from one W(h) and one W(v*W(h)).
For ``|v| > 1``, ``theta in (0,1)`` and ``0 < r < rho^2`` the concave f/v
rises up to the bend point h0, the zero of g, then falls
to -inf: one root with h > 0, past h0.  One batched Newton solver,
`_solve_roots`, finds h0 and the root.  `count_roots_scan` certifies the
uniqueness on a 10^6-point grid: it counts the grid's sign changes
exactly, but evaluates only a few hundred points (up to about 1,350 near
r = rho^2), because the decreasing g encloses the slope on any grid range,
which proves most ranges free of a sign change; each undecided range is
cut 16 ways per round, so three batched rounds and one dense block cover
the grid.

W itself is evaluated as ``log1p(w - 1)`` with the difference written out,
``w(e^h) - 1 = (1-theta)*(1 - e)/(theta + e)`` for ``e = exp(-|h|)``
(through expm1), and the sign of h restored.  Nothing
cancels, so W keeps full relative precision as h -> 0, where the root
signal near r = rho^2 lives.  Only exp(-|h|) is ever taken, so W never
overflows: for large |h| (a large outer argument v*W(h)) it underflows to
0 and W saturates at +-ln(1/theta).

Case conventions (the error-prone bookkeeping, centralized here).  The
case is the regime of (p, q) (`_regime_case`); the regimes meet only at
p = q = 1, where r = 0, and a pair in none of them poses no root problem.

    case      exponents          solved problem      branch      ratio signs
    -------   ----------------   -----------------   ---------   -----------
    forward   p, q > 1           v-side or u-side,   h_a = +h*   X >= 1, Y >= 1
                                 whichever exponent
                                 is larger in size
    reverse   0 < p, q < 1       v-side (v < -1)     h_a = +h*   X >= 1, Y <= 1
    mixed     0 < p < 1, q < 0   u-side (u < -1)     h_b = -h*   X >= 1, Y >= 1

In every case the reported coupling uses the same cell formula; solving the
u-side problem just means the root is ``ln y`` and ``ln z = u*W(ln y)`` is
derived, instead of the other way around.  All cell arithmetic is done in
log space and shifted by the largest log-cell before exponentiating (the
cells are then renormalized to sum 1), so astronomically large z (small
r*v makes h ~ 100) never overflows.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from ._optim import newton_root_vec
from .binary import Coupling2x2, DsbsParams, _real_array, _require_int, _store_finite_reals, d2
from .envelopes import QParam, phi_tilde_ab
from .errors import InconsistencyError, InputDomainError, NoRootError
from .mre import dd2_value

__all__ = [
    "RootProblem",
    "StationaryPoint",
    "GammaExtremum",
    "aux_phi_h",
    "solve_root_z",
    "count_roots_scan",
    "stationary_point",
    "gamma_extremum",
    "hypercontractive_regime",
]

_SIGN_SLACK = 1e-9  # tolerance on the case sign patterns, in log-ratio units
_SCAN_SEEDS = 256  # index ranges seeded per count_roots_scan
_SCAN_BLOCK = 16  # count_roots_scan evaluates ranges this short point by point
_F_PAD = 32.0  # aux_phi_h float pad, in units of eps*(min(ln(1/theta), rho^2*|v|*h) + r*|v|*h)
_EPS = float(np.finfo(float).eps)
_WINDOW_K = 17  # points per axis of each gamma_extremum refinement window
_Rows = namedtuple("_Rows", "theta v r")  # root problems as arrays, read like a RootProblem
_FAILURES = (  # the reasons `_solve_roots` reports, first match first
    "no bend point: r is at or within rounding of rho^2, where the interior root degenerates",
    "degenerate bend point: no strictly interior root",
    "no sign change of the root equation up to h = 1e4",
)


@dataclass(frozen=True, slots=True)
class RootProblem:
    """Parameters (theta, v, r) of the scalar root equation.

    Valid when theta is a normal float in (0,1), |v| > 1, and 0 < r <= rho^2
    with rho = (1-theta)/(1+theta); at a subnormal theta W's log1p argument
    overflows once exp(-|h|) underflows.  The root merges into h = 0 at r =
    rho^2, and for r within g's float pad of rho^2 the solver reports no root.
    """

    theta: float
    v: float
    r: float
    rho: float = field(init=False)

    def __post_init__(self) -> None:
        _store_finite_reals(self, "theta", "v", "r")
        if not sys.float_info.min <= self.theta < 1.0:
            raise InputDomainError(f"theta={self.theta!r} outside [{sys.float_info.min!r}, 1)")
        if abs(self.v) <= 1.0:
            raise InputDomainError(f"|v| must exceed 1, got v={self.v!r}")
        rho = (1.0 - self.theta) / (1.0 + self.theta)
        if not 0.0 < self.r <= rho * rho * (1.0 + 1e-12):
            raise InputDomainError(
                f"r={self.r!r} outside (0, rho^2] with rho^2={rho * rho!r}"
            )
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True, slots=True)
class StationaryPoint:
    """An interior stationary coupling with its surface coordinates."""

    z: float
    coupling: Coupling2x2
    s: float
    t: float
    residual_x: float
    residual_y: float


@dataclass(frozen=True, slots=True)
class GammaExtremum:
    """Extremum of one Lagrangian sweep: value and its optimizer."""

    value: float
    a: float
    b: float
    s: float
    t: float


# ---------------------------------------------------------------------------
# scalar transforms
# ---------------------------------------------------------------------------


def _w_and_e(h, theta: float):
    """W(h) = ln w(e^h) with w(x) = (x+theta)/(1+theta*x), odd in h, and e = exp(-|h|).

    The cancellation-free log1p form of the module docstring; `_w_prime`
    takes W' from the same e.
    """
    x = -np.abs(np.asarray(h, dtype=float))
    e = np.exp(x)
    return np.copysign(np.log1p((1.0 - theta) * -np.expm1(x) / (theta + e)), h), e


def _log_w_of_h(h, theta: float):
    """W(h) alone (`_w_and_e`)."""
    return _w_and_e(h, theta)[0]


def _w_prime(x: np.ndarray, e: np.ndarray, theta: float, second: bool = False):
    """W'(x) = (1-theta^2)/(1+theta^2+2*theta*cosh x) from e = exp(-|x|), and W''.

    W' = (1-theta^2)*e/D with D = theta + (1+theta^2)*e + theta*e^2, and
    W''(x) = -sign(x)*theta*(1-e^2)*W'(x)/D, 1 - e^2 through expm1; W'' is
    None unless ``second``.
    """
    d = theta + (1.0 + theta * theta) * e + theta * e * e
    w = (1.0 - theta * theta) * e / d
    return w, (np.sign(x) * theta * np.expm1(-2.0 * np.abs(x)) * w / d if second else None)


def _aux_terms(h, prob: RootProblem, prime: bool = False) -> tuple[np.ndarray, ...]:
    """f = `aux_phi_h`, g = f'/v and g's pad at h >= 0, and g' with ``prime``.

    The root equation's one evaluator: one W(h) and one W(v*W(h)), each with
    its one exp(-|.|), which W' reuses.  f = W(v*W(h)) - r*v*h.  Its slope
    is v*g with g(h) = W'(x)*W'(h) - r and x = |v|*W(h); both factors are
    positive and decrease in h, so g decreases on h > 0.  The pad bounds
    the float error of g: 8*eps*(r + P*(1 + x)) with P = W'(x)*W'(h), a few
    ulps of r where g crosses 0 (P ~ r), widened by x because W'(x)
    amplifies the error of x.  With ``prime``, g'(h) = W''(x)*|v|*W'(h)^2 +
    W'(x)*W''(h) <= 0 follows.
    """
    theta, v, r = prob.theta, prob.v, prob.r
    av = abs(v)
    w_h, e_h = _w_and_e(h, theta)
    w_v, e_x = _w_and_e(v * w_h, theta)  # |v*W(h)| = x, so e_x = exp(-x)
    x = av * w_h
    (d_x, d2_x), (d_h, d2_h) = _w_prime(x, e_x, theta, prime), _w_prime(h, e_h, theta, prime)
    prod = d_x * d_h
    f, g, pad = w_v - r * v * h, prod - r, 8.0 * _EPS * (r + prod * (1.0 + x))
    return (f, g, pad, d2_x * av * d_h * d_h + d_x * d2_h) if prime else (f, g, pad)


def aux_phi_h(h, prob: RootProblem):
    """Left minus right side of the root equation: W(v*W(h)) - r*v*h, h >= 0.

    Evaluated as the composition itself (`_aux_terms`), each W in the log1p
    form of the module docstring.  Large |v| never overflows: W only
    exponentiates -|x|, so for a large outer argument x = v*W(h) exp(-|x|)
    underflows to 0 and the outer W saturates at +-ln(1/theta).  The value
    at h = 0 is exactly 0: expm1(0) = 0, so both W terms are zero.

    Float pad: |computed - exact| <= 32*eps*(min(ln(1/theta), rho^2*|v|*h)
    + r*|v|*h) for h in [0, 1e4] (`_f_pad`), the bound `count_roots_scan`
    relies on.  Both W keep full relative precision, |W(x)| <=
    min(ln(1/theta), rho*|x|) and r*v*h rounds relatively; against 50-digit
    mpmath the error stays below 3 of those eps units (2.56 at most over
    4000 draws).
    """
    hv = _real_array(h, "h")
    if np.any(hv < 0.0):
        raise InputDomainError("aux_phi_h is defined for h >= 0")
    out = _aux_terms(hv, prob)[0]
    return float(out) if hv.ndim == 0 else out


def _f_pad(h, prob: RootProblem):
    """The float pad of `aux_phi_h` at h: 32*eps*(min(ln(1/theta), rho^2*|v|*h) + r*|v|*h)."""
    log_inv_theta, rv = math.log(1.0 / prob.theta), prob.r * abs(prob.v)
    return _F_PAD * _EPS * (np.minimum(log_inv_theta, prob.rho**2 * abs(prob.v) * h) + rv * h)


def _solve_roots(theta, v, r) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Bend point h0, root h and failure reason of each problem (theta[i], v[i], r[i]).

    Both solves run `newton_root_vec` over all rows in lockstep: h0 is the
    zero of -g, slope -g', on [0, arccosh(max(1, ((1-theta)^2/r - 1 -
    theta^2)/(2*theta)))], past which g < 0 as W' <= rho; the root is the
    zero of -f/v, slope -g, on [h0, R], descending from R = min(2*ln(1/theta)
    /(r*|v|), 1e4), where |W| <= ln(1/theta) makes f/v <= -ln(1/theta)/|v|
    clear of rounding.  Where y = (1-theta)^2/(2*theta*r) passes 1e300 (a
    subnormal r, say), the arccosh argument, about y, would overflow, and
    the bend-point bracket ends at ln(2*y) instead, taken as a sum of logs:
    cosh h >= e^h/2 keeps g < 0 there too.
    h0 is NaN where g(0) does not exceed its pad, h is NaN where there is no
    root, and reason is "" exactly where h is a root.
    """
    probs = _Rows(*(np.asarray(x, dtype=float) for x in (theta, v, r)))
    t, r, zeros = probs.theta, probs.r, np.zeros(probs.r.size)

    def neg_g(x, i):
        _, g, _, g_prime = _aux_terms(x, _Rows(*(a[i] for a in probs)), prime=True)
        return -g, -g_prime

    def neg_f(x, i):
        rows = _Rows(*(a[i] for a in probs))
        f, g, _ = _aux_terms(x, rows)
        return -f / rows.v, -g

    finite = (1.0 - t) ** 2 <= 1e300 * (2.0 * t) * r
    top = np.where(
        finite,
        np.arccosh(np.maximum(1.0, ((1.0 - t) ** 2 / np.where(finite, r, 1.0) - 1.0 - t * t) / (2.0 * t))),
        2.0 * np.log1p(-t) - np.log(t) - np.log(r),
    )
    h0 = newton_root_vec(neg_g, zeros, top, top)[0]
    # r*|v| >= 1e-300 leaves the quotient as it was; below, it exceeds 1e4 anyway
    right = np.minimum(-2.0 * np.log(t) / np.maximum(r * np.abs(probs.v), 1e-300), 1e4)
    h = newton_root_vec(neg_f, h0, right, right)[0]
    f, g, pad = (
        a.reshape(3, -1)
        for a in _aux_terms(np.concatenate([zeros, h0, right]), _Rows(*(np.tile(a, 3) for a in probs)))
    )
    fails = [g[0] <= pad[0], f[1] / probs.v <= 0.0, f[2] / probs.v > 0.0]
    reason = np.select(fails, _FAILURES, "")
    h0[fails[0]] = np.nan
    h[reason != ""] = np.nan
    return h0, h, reason.tolist()


def _solve_one(prob: RootProblem) -> float:
    """The root h of one problem by `_solve_roots`; `NoRootError` with its reason if none."""
    _, (h,), (reason,) = _solve_roots([prob.theta], [prob.v], [prob.r])
    if math.isnan(h):
        raise NoRootError(reason)
    return float(h)


def solve_root_z(prob: RootProblem) -> float:
    """The unique z > 1 solving the stationarity root equation."""
    return math.exp(_solve_one(prob))


def _scan_points(k: np.ndarray, n: int) -> np.ndarray:
    """Entries k of ``np.geomspace(1e-8, 1e4, n)``, bit for bit.

    geomspace's own expression, ``10**(k*step + log10(1e-8))`` with the two
    endpoints set exactly, evaluated only at the requested indices.
    """
    log_start = np.log10(1e-8)
    step = (np.log10(1e4) - log_start) / (n - 1)
    h = np.power(10.0, k.astype(float) * step + log_start)
    h[k == 0] = 1e-8
    h[k == n - 1] = 1e4
    return h


def _scan_cuts(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The `_SCAN_BLOCK` - 1 cuts floor(i + (j - i)*m/_SCAN_BLOCK), m = 1.., of each range [i, j].

    Row per range.  Every term is exact in floats, and for j - i >
    `_SCAN_BLOCK` the cuts are distinct and strictly inside (i, j).
    """
    fan = np.arange(1, _SCAN_BLOCK) / _SCAN_BLOCK
    return np.floor(i[:, None] + (j - i)[:, None] * fan)


def _scan_sign_changes(prob: RootProblem, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sign changes `count_roots_scan` counts, as (h, f), each of shape (2, count).

    Column c holds h and aux_phi_h at the two evaluated points, adjacent in
    index order once exact zeros are dropped, whose signs differ.
    """
    _require_int(n=n)
    if not 100_000 <= n <= 1_000_000:
        raise InputDomainError(f"n={n!r} must lie in [1e5, 1e6]")

    def points(k):
        """Rows k, h, f and the lower and upper end of g's enclosure at k."""
        h = _scan_points(k, n)
        f, g, g_pad = _aux_terms(h, prob)
        return np.stack([k, h, f, g - g_pad, g + g_pad])

    pts = points(np.unique(np.round(np.linspace(0.0, n - 1.0, _SCAN_SEEDS + 1))))
    evaluated = [pts[:3]]
    lo, hi = pts[:, :-1], pts[:, 1:]
    block_lo, block_hi = [], []
    while True:
        (i, h_i, f_i, _, g_i), (j, h_j, f_j, g_j, _) = lo, hi
        a_i, a_j = np.abs(f_i), np.abs(f_j)
        spread = abs(prob.v) * np.maximum(np.abs(g_i), np.abs(g_j)) * (h_j - h_i)
        bound = np.where(
            (g_j > 0.0) | (g_i < 0.0),
            np.minimum(a_i, a_j),
            0.5 * (a_i + a_j - spread) - 4.0 * _EPS * (a_i + a_j + spread),
        )
        keep = (np.sign(f_i) != np.sign(f_j)) | (bound <= 2.0 * _f_pad(h_j, prob))
        short = keep & (j - i <= _SCAN_BLOCK)
        block_lo.append(i[short])
        block_hi.append(j[short])
        split = keep & ~short
        if not split.any():
            break
        cuts = points(_scan_cuts(i[split], j[split]).ravel())
        evaluated.append(cuts[:3])
        cuts = cuts.reshape(5, -1, _SCAN_BLOCK - 1)
        lo = np.concatenate([lo[:, split, None], cuts], axis=2).reshape(5, -1)
        hi = np.concatenate([cuts, hi[:, split, None]], axis=2).reshape(5, -1)
    i = np.concatenate(block_lo).astype(np.int64)
    width = np.concatenate(block_hi).astype(np.int64) - i - 1
    k = np.arange(width.sum()) + np.repeat(i + 1 - (np.cumsum(width) - width), width)
    h = _scan_points(k, n)
    evaluated.append(np.stack([k, h, aux_phi_h(h, prob)]))
    k, h, f = np.concatenate(evaluated, axis=1)
    order = np.argsort(k)
    h, f = h[order], f[order]
    nonzero = f != 0.0
    h, f = h[nonzero], f[nonzero]
    at = np.flatnonzero(np.sign(f[1:]) != np.sign(f[:-1]))
    return np.stack([h[at], h[at + 1]]), np.stack([f[at], f[at + 1]])


def count_roots_scan(prob: RootProblem, n: int = 1_000_000) -> int:
    """Sign changes of aux_phi_h on the grid ``np.geomspace(1e-8, 1e4, n)``.

    Independent of the root solver; exists to certify uniqueness of the
    root.  Grid points where the computed function is exactly zero are
    skipped rather than double-counted.  The count is exact with respect to
    the brute-force scan, the sign changes of aux_phi_h evaluated on all n
    points, while only a few hundred points are evaluated (up to about 1,350
    near r = rho^2, where the dense blocks around the root grow):

    `_SCAN_SEEDS` index ranges [i, j] are seeded.  On a range, f'/v lies in
    [g(h_j), g(h_i)] (`_aux_terms`; g decreases), so |f| is bounded below
    by min(|f_i|, |f_j|) when that enclosure excludes 0 (f is monotone) and
    by (|f_i| + |f_j| - L*(h_j - h_i))/2 with L = |v|*max(|g_i|, |g_j|)
    otherwise, each from the computed end values with the pads of the
    slope and of the rounding.  A range whose ends have the same nonzero
    sign and whose bound exceeds twice the float pad of aux_phi_h at h_j
    (`_f_pad`) holds no computed zero or sign change, and is skipped.  Every
    other range is cut `_SCAN_BLOCK` ways (`_scan_cuts`), all of them in one
    vectorised batch per round, so seed ranges of n/256 points reach
    `_SCAN_BLOCK` points or fewer within two rounds, and those are
    evaluated point by point.  The count is taken over every evaluated
    point in index order (`_scan_sign_changes`).
    """
    return _scan_sign_changes(prob, n)[0].shape[1]


# ---------------------------------------------------------------------------
# coupling reconstruction
# ---------------------------------------------------------------------------

_CASE_Y_SIGN = {"forward": +1.0, "reverse": -1.0, "mixed": +1.0}


def _reconstruct_from_h(h_a: float, qp: QParam, params: DsbsParams, case: str) -> StationaryPoint:
    theta = params.theta
    h_b = qp.v * float(_log_w_of_h(h_a, theta))
    lth = math.log(theta)
    l00, l01, l10, l11 = h_a + h_b, h_a + lth, h_b + lth, 0.0
    log_cells = np.array([l00, l01, l10, l11])
    cells = np.exp(log_cells - log_cells.max())
    cells /= cells.sum()

    lx0 = np.logaddexp(l00, l01)
    lx1 = np.logaddexp(l10, l11)
    ly0 = np.logaddexp(l00, l10)
    ly1 = np.logaddexp(l01, l11)
    if lx0 < lx1 - _SIGN_SLACK:
        raise InconsistencyError(f"{case} case expects the X-marginal ratio to be >= 1")
    y_sign = _CASE_Y_SIGN[case]
    if y_sign * (ly0 - ly1) < -_SIGN_SLACK:
        rel = ">= 1" if y_sign > 0 else "<= 1"
        raise InconsistencyError(f"{case} case expects the Y-marginal ratio to be {rel}")

    residual_x = abs((lx0 - lx1) / qp.p - h_a)
    residual_y = abs((ly0 - ly1) / qp.q - h_b)
    if max(residual_x, residual_y) > 1e-6:
        raise InconsistencyError(
            f"stationarity residuals ({residual_x:.3e}, {residual_y:.3e}) exceed 1e-6: "
            "z is not a root for these parameters"
        )

    coupling = Coupling2x2(*cells)
    a = cells[2] + cells[3]  # X-marginal mass on 1; <= 1/2 in every case
    b1 = cells[1] + cells[3]  # Y-marginal mass on 1
    # d2 is symmetric about 1/2, so the reverse case's reflection b -> 1-b
    # changes which bias is reported, never the deficit value.
    return StationaryPoint(
        z=math.exp(h_a),
        coupling=coupling,
        s=float(d2(a)),
        t=float(d2(b1)),
        residual_x=residual_x,
        residual_y=residual_y,
    )


def _regime_case(qp: QParam) -> str | None:
    """The case whose exponent regime (module table) holds (p, q), or None; p = q = 1 is forward."""
    p, q = qp.p, qp.q
    if p >= 1.0 and q >= 1.0:
        return "forward"
    if 0.0 < p <= 1.0 and q <= 1.0 and q != 0.0:
        return "reverse" if q > 0.0 else "mixed"
    return None


def _posed_case(qp: QParam) -> str:
    """`_regime_case`, or `InputDomainError` where (p, q) lies in no regime."""
    case = _regime_case(qp)
    if case is None:
        raise InputDomainError(
            f"(p, q)=({qp.p!r}, {qp.q!r}) lies in none of the forward, reverse and mixed "
            "regimes, so no root problem is posed"
        )
    return case


def _root_side(qp: QParam, case: str) -> tuple[str, float]:
    """The side ("v" or "u") of the scalar root problem that ``case`` solves,
    with its exponent; ``case`` is the regime of (p, q).

    forward: whichever side has the larger exponent magnitude (the two
    problems are equivalent; the exponents' product is 1/r > 1, so at least
    one has the |exponent| > 1 the root analysis needs; ties prefer v).
    reverse: the v-side, v < -1.  mixed: the u-side, u < -1.
    `stationary_point` and the ``roots`` command both take the problem from
    here.
    """
    if case == "reverse" or (case == "forward" and abs(qp.v) >= abs(qp.u)):
        return "v", qp.v
    return "u", qp.u


def stationary_point(qp: QParam, params: DsbsParams) -> StationaryPoint:
    """Solve the root problem of (p, q) and reconstruct its stationary coupling.

    The case is the regime of (p, q), `InputDomainError` if there is none;
    the problem comes from `_root_side`.  On the v-side the root is
    h_a = ln z itself.  On the u-side the root h* is the Y-side variable and
    ln z = u*W(h*) is derived; in the mixed case it is the negative branch,
    h_b = -h*, so ln z = u*W(-h*) = -u*W(h*) > 0.
    """
    case = _posed_case(qp)
    side, exponent = _root_side(qp, case)
    h_a = _solve_one(RootProblem(params.theta, exponent, qp.r))
    if side == "u":
        sign = -1.0 if case == "mixed" else 1.0
        h_a = sign * qp.u * float(_log_w_of_h(h_a, params.theta))
    return _reconstruct_from_h(h_a, qp, params, case)


# ---------------------------------------------------------------------------
# Lagrangian sweeps
# ---------------------------------------------------------------------------


def hypercontractive_regime(qp: QParam, params: DsbsParams) -> bool:
    """True iff r = (p-1)(q-1) strictly exceeds rho^2 (boundary excluded)."""
    return qp.r > params.rho * params.rho


# case -> (b-interval, outer sign, inner sign, surface); a sign of +1
# minimizes and -1 maximizes, the inner step over b and the outer over a.
# The full grid and every refinement window run the same step.
_PROBLEMS = {
    "forward": ((0.0, 0.5), 1.0, 1.0, phi_tilde_ab),
    "reverse": ((0.5, 1.0), -1.0, -1.0, dd2_value),
    "mixed": ((0.0, 0.5), -1.0, 1.0, dd2_value),
}


def gamma_extremum(qp: QParam, params: DsbsParams, n: int = 401) -> GammaExtremum:
    """Brute-force extremum of the Lagrangian sweep of (p, q) on an n-by-n grid.

    The table row is the regime of (p, q) (`_regime_case`, see the module
    table; `InputDomainError` if there is none), and its problem optimizes
    ``f(a, b) = surface(a, b) - lam*d2(a) - mu*d2(b)``:

    forward — min over (a, b) in [0,1/2]^2; surface `phi_tilde_ab`.
    reverse — max over a in [0,1/2], b in [1/2,1]; surface `dd2_value`.
    mixed   — max over a in [0,1/2] of the min over b in [0,1/2]; surface
              `dd2_value`.

    The grid step takes each row's inner optimum, then the best row (first
    index on ties, so reports are deterministic).  The same step then reruns
    on `_WINDOW_K` points per axis spanning +-2 cells around the winner,
    clipped to the domain, so the cell shrinks by 4/(_WINDOW_K - 1) per pass
    until it is below 1e-10.  Each window contains the previous winner, so
    for the forward and reverse rows, whose optimum is joint, the reported
    value never exceeds (min) / falls below (max) the grid optimum.

    This is the one-setting view of `_gamma_extrema`, which runs many
    sweeps in lockstep; the answer is the same bits either way.  ``n`` must
    lie in [101, 1001], checked before anything is allocated: the n-by-n
    grid is built whole.
    """
    return _gamma_extrema([qp], params, n)[0]


def _gamma_extrema(qps, params: DsbsParams, n: int = 401) -> list[GammaExtremum]:
    """`gamma_extremum` of every (p, q) in ``qps``, in order, the sweeps of a regime in lockstep.

    Each regime evaluates its surface once on the full n-by-n grid and
    scores every setting of the regime from that table, broadcasting lam
    and mu per setting; each refinement pass then evaluates the windows of
    all of them in one surface call.  Every setting runs the same passes,
    since their number depends on n alone, and every operation is
    elementwise, so each result equals the sweep run alone bit for bit.
    ``n`` and every regime are checked before anything is allocated.
    """
    _require_int(n=n)
    if not 101 <= n <= 1001:
        raise InputDomainError("n must be in [101, 1001]")
    cases = [_posed_case(qp) for qp in qps]
    out = [None] * len(qps)
    offsets = np.linspace(-2.0, 2.0, _WINDOW_K)  # the middle one is exactly 0
    for case, ((lo_b, hi_b), outer, inner, surface) in _PROBLEMS.items():
        members = [i for i, c in enumerate(cases) if c == case]
        if not members:
            continue
        lam = np.array([qps[i].lam for i in members])[:, None, None]
        mu = np.array([qps[i].mu for i in members])[:, None, None]
        rows = np.arange(len(members))

        def step(axis_a: np.ndarray, axis_b: np.ndarray, table: np.ndarray):
            """The grid step of every member from its surface table; 1-D axes are shared."""
            a, b = np.atleast_2d(axis_a), np.atleast_2d(axis_b)
            grid = table - lam * d2(a)[:, :, None] - mu * d2(b)[:, None, :]
            j = np.argmin(inner * grid, axis=2)
            val_row = np.take_along_axis(grid, j[:, :, None], axis=2)[:, :, 0]
            i = np.argmin(outer * val_row, axis=1)
            a = np.broadcast_to(a, val_row.shape)
            b = np.broadcast_to(b, (rows.size, b.shape[1]))
            return a[rows, i], b[rows, j[rows, i]], val_row[rows, i]

        axis_a, axis_b = np.linspace(0.0, 0.5, n), np.linspace(lo_b, hi_b, n)
        a, b, value = step(axis_a, axis_b, surface(axis_a[:, None], axis_b[None, :], params))
        cell = 0.5 / (n - 1)
        while cell >= 1e-10:
            win_a = np.clip(a[:, None] + cell * offsets, 0.0, 0.5)
            win_b = np.clip(b[:, None] + cell * offsets, lo_b, hi_b)
            a, b, value = step(win_a, win_b, surface(win_a[:, :, None], win_b[:, None, :], params))
            cell *= 4.0 / (_WINDOW_K - 1)
        for k, i in enumerate(members):
            ak, bk = float(a[k]), float(b[k])
            out[i] = GammaExtremum(float(value[k]), ak, bk, float(d2(ak)), float(d2(bk)))
    return out
