"""Minimum relative entropy over couplings with prescribed bit marginals.

For marginal biases ``(a, b)`` the couplings form the one-parameter family

    q(p) = (1+p-a-b, b-p, a-p, p),        max(0, a+b-1) <= p <= min(a, b),

where ``p`` is the mass on cell (1,1).  ``dd2(a, b)`` minimizes the relative
entropy of ``q(p)`` against the source joint matrix over this segment.  The
objective is strictly convex in ``p`` with derivative
``log2((q00*q11) / (k*q01*q10))``, so the minimizer is the root of a
cross-ratio quadratic: the optimal coupling satisfies
``q00*q11 / (q01*q10) = k``.  We evaluate the smaller quadratic root

    p* = (T - sqrt(T^2 - 4*k*(k-1)*a*b)) / (2*(k-1)),   T = (k-1)*(a+b) + 1,

in the cancellation-stable rationalized form ``2*k*a*b / (T + sqrt(Delta))``.
The discriminant satisfies ``Delta >= 1`` everywhere on the unit square
(its minimum over ``a+b`` fixed is at ``a = b``, where it equals
``1 + 4*(k-1)*a*(1-a)``), so neither the square root nor the division ever
loses precision.

A vectorized brute-force minimizer over the segment
(`_dd2_oracle_batch`, used by claim P) is the independent check of the
closed form; it never consults the quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import golden_min_vec
from .binary import Coupling2x2, DsbsParams, _prepare_prob, _scalarize, _xlogy
from .errors import InconsistencyError

__all__ = [
    "MreResult",
    "p_star",
    "dd2",
    "dd2_value",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True, slots=True)
class MreResult:
    """Minimum divergence for one marginal pair, with its witness coupling."""

    value: float
    p_star: float
    coupling: Coupling2x2


def _feasible_interval(a, b):
    return np.maximum(0.0, a + b - 1.0), np.minimum(a, b)


def _kl_cells(q00, q01, q10, q11, params: DsbsParams):
    """KL of coupling cells against the source matrix, in bits (vectorized)."""
    agree = 0.25 * (1.0 + params.rho)
    differ = 0.25 * (1.0 - params.rho)
    total = (
        _xlogy(q00, q00 / agree)
        + _xlogy(q01, q01 / differ)
        + _xlogy(q10, q10 / differ)
        + _xlogy(q11, q11 / agree)
    )
    return total / _LN2


def _cells(a, b, p):
    """Cells (q00, q01, q10, q11) of the coupling with P(1,1)=p, clipped at 0 for fp spill."""
    return (
        np.maximum(1.0 + p - a - b, 0.0),
        np.maximum(b - p, 0.0),
        np.maximum(a - p, 0.0),
        np.maximum(p, 0.0),
    )


def _objective(a, b, p, params: DsbsParams):
    """Divergence of the coupling with P(1,1)=p; cells clipped at 0 for fp spill."""
    return _kl_cells(*_cells(a, b, p), params)


def _p_star(av, bv, params: DsbsParams):
    """:func:`p_star` on biases that :func:`_prepare_prob` has already validated."""
    k = params.k
    t = (k - 1.0) * (av + bv) + 1.0
    delta = t * t - 4.0 * k * (k - 1.0) * av * bv
    if np.any(delta < -1e-12):
        raise InconsistencyError("negative discriminant in p_star; invariant Delta >= 1 broken")
    p = 2.0 * k * av * bv / (t + np.sqrt(np.maximum(delta, 0.0)))
    lo, hi = _feasible_interval(av, bv)
    return np.clip(p, lo, hi)


def p_star(a, b, params: DsbsParams):
    """Minimizing cell mass p on the feasible segment, by the stable quadratic root."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    av = _prepare_prob(a, "a")
    bv = _prepare_prob(b, "b")
    return _scalarize(_p_star(av, bv, params), scalar)


def dd2_value(a, b, params: DsbsParams):
    """Minimum divergence for marginal biases (a, b), in bits (vectorized)."""
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    av = _prepare_prob(a, "a")
    bv = _prepare_prob(b, "b")
    return _scalarize(_objective(av, bv, _p_star(av, bv, params), params), scalar)


def _dd2_slope(a, b, params: DsbsParams):
    """First and second derivatives of dd2(a, b) in b, in bits (vectorized).

    ``a`` and ``b`` must already be validated biases.  By the envelope
    theorem the first derivative is the partial derivative of the coupling
    divergence at fixed ``p*``: ``log2(q01*P00 / (q00*P01))``.  Along the
    optimal coupling ``q00*q11 = k*q01*q10``, so ``dp*/db = A/(A+B)`` with
    ``A = 1/q00 + 1/q01`` and ``B = 1/q10 + 1/q11``, and the second
    derivative is ``(A*B/(A+B))/ln 2``, evaluated as ``1/(1/A + 1/B)`` so
    that ``B = inf`` (at ``a = 0``, where ``p* = 0``) gives ``A/ln 2``.  An
    empty cell at the ends of the segment (``b = 0`` or ``b = 1``) gives an
    infinite or NaN derivative without a warning, whose sign callers must
    not trust.

    Precision is set by the smaller of the cells ``q00`` and ``q01``, which
    are differences of O(1) quantities: against 50-digit mpmath the slope
    is within ``4e-15 / min(q00, q01)`` absolute and the curvature within
    the same bound relative (measured 1.6e-15 and 1.0e-15 over that
    scale).  So the slope is good to about 1e-13 where both cells are
    above 0.04, and loses digits only as ``b`` nears 0 or 1.
    """
    q00, q01, q10, q11 = _cells(a, b, _p_star(a, b, params))
    agree = 0.25 * (1.0 + params.rho)
    differ = 0.25 * (1.0 - params.rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.log((q01 * agree) / (q00 * differ)) / _LN2
        curve_a = 1.0 / q00 + 1.0 / q01
        curve_b = 1.0 / q10 + 1.0 / q11
        curvature = 1.0 / (1.0 / curve_a + 1.0 / curve_b) / _LN2
    return slope, curvature


def dd2(a: float, b: float, params: DsbsParams) -> MreResult:
    """Minimum divergence together with its minimizer and witness coupling."""
    av = float(_prepare_prob(a, "a"))
    bv = float(_prepare_prob(b, "b"))
    p = float(_p_star(av, bv, params))
    # Rebuild cells from exact marginal arithmetic, then snap fp spill.
    cells = np.maximum([1.0 + p - av - bv, bv - p, av - p, p], 0.0)
    coupling = Coupling2x2(*(cells / cells.sum()))
    value = float(_objective(av, bv, p, params))
    return MreResult(value=value, p_star=p, coupling=coupling)


def _argmin_polish(a, b, p, params: DsbsParams):
    """One curvature-matched parabola fit through (p-h, p, p+h).

    Golden-section argmins saturate at the comparison-noise floor
    ``sqrt(eps / curvature)`` (around 1e-8 here).  A three-point parabola fit
    with step ``h`` proportional to the smallest coupling cell removes the
    floor: both the noise term eps/(curvature*h) and the third-derivative
    bias h^2 * f'''/f'' are then O(1e-10) uniformly, because the smallest cell
    sets the curvature scale 1/cell and the bias scale 1/cell at once.
    """
    lo, hi = _feasible_interval(a, b)
    cell_min = np.minimum(
        np.minimum(1.0 + p - a - b, np.maximum(p, 0.0)),
        np.minimum(b - p, a - p),
    )
    h = 2e-5 * np.maximum(cell_min, 0.0)
    f_lo = _objective(a, b, p - h, params)
    f_mid = _objective(a, b, p, params)
    f_hi = _objective(a, b, p + h, params)
    denom = f_hi - 2.0 * f_mid + f_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(denom > 0.0, 0.5 * h * (f_lo - f_hi) / denom, 0.0)
    step = np.where(np.isfinite(step), step, 0.0)
    return np.clip(p + np.clip(step, -h, h), lo, hi)


def _dd2_oracle_batch(a, b, params: DsbsParams):
    """Vectorized brute-force (argmin, min) over the feasible segment.

    Golden-section in lockstep over every segment, then one parabola polish
    of the argmin (see :func:`_argmin_polish`).  Independent of the closed
    form; used to certify it in bulk.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    lo, hi = _feasible_interval(av, bv)
    point = hi - lo <= 0.0
    p_opt, f_opt = golden_min_vec(
        lambda p: _objective(av, bv, p, params), lo, np.maximum(hi, lo + 1e-300)
    )
    p_opt = _argmin_polish(av, bv, p_opt, params)
    f_opt = np.minimum(f_opt, _objective(av, bv, p_opt, params))
    p_opt = np.where(point, lo, p_opt)
    f_opt = np.where(point, _objective(av, bv, lo, params), f_opt)
    return p_opt, f_opt
