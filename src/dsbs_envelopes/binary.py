"""Primitives for a symmetric pair of correlated bits.

The source model throughout this package is a uniformly random bit ``X``
observed through a symmetric bit-flipping channel with flip probability
``(1 - rho) / 2``, so the pair ``(X, Y)`` has joint distribution

    P = [[ (1+rho)/4, (1-rho)/4 ],
         [ (1-rho)/4, (1+rho)/4 ]]

with correlation coefficient ``rho`` in (0, 1).

Conventions
-----------
* All entropies and divergences are in bits (base-2 logarithms), and
  ``0 * log 0`` is evaluated as 0.
* Probability arguments are validated with an absolute slack of 1e-12 and
  clipped back into [0, 1]; anything further out raises
  :class:`~dsbs_envelopes.errors.InputDomainError`.
* The free functions are array-polymorphic: they accept floats or numpy
  arrays and return matching shapes (python floats for scalar input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError

__all__ = [
    "DsbsParams",
    "Coupling2x2",
    "h2",
    "h2_inv",
    "d2",
    "d2_inv",
    "bconv",
]

_LN2 = math.log(2.0)
_SLACK = 1e-12  # absolute slack accepted (and clipped) on probability inputs


def _prepare_prob(x, name: str):
    """Validate an array-or-scalar probability and clip it into [0, 1].

    Returns ``np.float64`` for 0-d input and a new float array otherwise.
    This runs on every call of every public function, so an accepted input
    costs one range test: plain float comparisons for 0-d input, one
    min/max pair for arrays (NaN fails both).  Only a rejected or empty
    array goes through the elementwise checks.
    """
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return _prepare_prob_array(x, name)
    return np.float64(_require_prob_scalar(x, name))


def _prepare_prob_array(arr: np.ndarray, name: str) -> np.ndarray:
    in_range = (
        arr.size
        and -_SLACK <= np.minimum.reduce(arr, axis=None)
        and np.maximum.reduce(arr, axis=None) <= 1.0 + _SLACK
    )
    if not in_range:
        if not np.all(np.isfinite(arr)):
            raise InputDomainError(f"{name} must be finite")
        if np.any(arr < -_SLACK) or np.any(arr > 1.0 + _SLACK):
            bad = float(np.ravel(arr)[int(np.argmax((arr < -_SLACK) | (arr > 1.0 + _SLACK)))])
            raise InputDomainError(f"{name}={bad!r} lies outside [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def _scalarize(arr: np.ndarray, scalar_in: bool):
    return float(np.asarray(arr).item()) if scalar_in else arr


def _require_finite_real(**values) -> None:
    """Reject any keyword value that is not a finite int or float."""
    for name, val in values.items():
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            raise InputDomainError(f"{name} must be a finite real number")


def _require_int(**values) -> None:
    """Reject any keyword value that is not an int (a bool is not one)."""
    for name, val in values.items():
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
            raise InputDomainError(f"{name}={val!r} must be an int")


def _require_prob_scalar(x, name: str) -> float:
    x = float(x)  # numpy scalars are reported and stored as plain floats
    if not -_SLACK <= x <= 1.0 + _SLACK:  # NaN fails this test too
        if not math.isfinite(x):
            raise InputDomainError(f"{name} must be finite")
        raise InputDomainError(f"{name}={x!r} lies outside [0, 1]")
    return min(max(x, 0.0), 1.0)


# ---------------------------------------------------------------------------
# entropy-like primitives
# ---------------------------------------------------------------------------


def _xlogy(x, y):
    """``x * ln(y)``, taken as 0 where ``x == 0`` (also at ``y == 0``).

    ``y`` must be positive wherever ``x`` is not 0.  A float or
    ``np.float64`` ``x`` takes ``x * math.log(y)`` and keeps its type; an
    array ``x`` (``y`` broadcasting to its shape) gives a new array, with
    the log taken only where ``x != 0``, so ``y == 0`` there raises no
    warning.  Where ``x == 0`` the result is a zero with the sign of ``x``.
    The relative error is at most 4.5e-16 on both paths for results in the
    normal range (at most 2.0e-16 measured against 50-digit mpmath).
    """
    if isinstance(x, float):
        return x * math.log(y) if x else x
    out = np.log(y, out=np.zeros(x.shape), where=x != 0.0)
    out *= x
    return out


def _h2_raw(p: np.ndarray) -> np.ndarray:
    return -(_xlogy(p, p) + _xlogy(1.0 - p, 1.0 - p)) / _LN2


def h2(a):
    """Entropy of a bit with bias ``a``, in bits.  ``h2(0) = h2(1) = 0``."""
    scalar = np.ndim(a) == 0
    p = _prepare_prob(a, "a")
    return _scalarize(_h2_raw(p), scalar)


def h2_inv(y):
    """Inverse of :func:`h2` on the branch [0, 1/2].

    Solved by bisection (64 fixed halvings, final width < 1e-18, well below
    the documented 1e-12 guarantee).  Endpoints are exact: ``h2_inv(0) = 0``
    and ``h2_inv(1) = 1/2``.
    """
    scalar = np.ndim(y) == 0
    yv = _prepare_prob(y, "y")
    lo = np.zeros_like(yv)
    hi = np.full_like(yv, 0.5)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _h2_raw(mid) < yv
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    out = np.where(yv <= 0.0, 0.0, np.where(yv >= 1.0, 0.5, out))
    return _scalarize(out, scalar)


def d2(a):
    """Entropy deficit of a bit with bias ``a``: ``1 - h2(a)``, in bits.

    Evaluated in the direct form ``a*log2(2a) + (1-a)*log2(2-2a)``.  Its
    absolute error stays near 1e-16, but near ``a = 1/2`` the deficit
    shrinks like ``(1/2 - a)**2``, so the relative error grows as about
    ``2.8e-17 / (1/2 - a)**2``: 2.7e-9 at ``1/2 - a = 1e-4`` and 2.7e-5 at
    1e-6 (against 50-digit mpmath; the tests bound it by
    ``5e-17 / (1/2 - a)**2 + 1e-14``).
    """
    scalar = np.ndim(a) == 0
    p = _prepare_prob(a, "a")
    out = (_xlogy(p, 2.0 * p) + _xlogy(1.0 - p, 2.0 - 2.0 * p)) / _LN2
    return _scalarize(out, scalar)


def d2_inv(s):
    """Inverse of :func:`d2` on the branch [0, 1/2]: ``h2_inv(1 - s)``.

    Accurate in absolute terms: ``|d2(d2_inv(s)) - s| <= 5e-16`` (at most
    3.3e-16 against 50-digit mpmath).  Since ``1 - s`` is rounded, small
    ``s`` loses relative precision: about 7e-7 at ``s = 1e-10``, and of
    order 1 at ``s = 1e-16``.
    """
    scalar = np.ndim(s) == 0
    sv = _prepare_prob(s, "s")
    return _scalarize(np.asarray(h2_inv(1.0 - sv)), scalar)


# ---------------------------------------------------------------------------
# binary convolution
# ---------------------------------------------------------------------------


def bconv(x, y):
    """Bias of the XOR of independent bits with biases ``x`` and ``y``."""
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    xv = _prepare_prob(x, "x")
    yv = _prepare_prob(y, "y")
    return _scalarize(xv + yv - 2.0 * xv * yv, scalar)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DsbsParams:
    """Parameters of the symmetric binary pair with correlation ``rho``.

    Derived quantities: ``theta = (1-rho)/(1+rho)`` is the odds of a
    disagreeing pair against an agreeing one, and ``k = 1/theta**2`` is the
    cross ratio of the joint matrix.  ``rho`` must stay away from the
    degenerate ends: the admissible range is (1e-6, 1 - 1e-6).
    """

    rho: float
    k: float = field(init=False)
    theta: float = field(init=False)

    def __post_init__(self) -> None:
        _require_finite_real(rho=self.rho)
        if not 1e-6 < self.rho < 1.0 - 1e-6:
            raise InputDomainError(
                f"rho={self.rho!r} outside the supported open interval (1e-06, 1 - 1e-06)"
            )
        theta = (1.0 - self.rho) / (1.0 + self.rho)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "k", ((1.0 + self.rho) / (1.0 - self.rho)) ** 2)

    @property
    def crossover(self) -> float:
        """Flip probability (1 - rho)/2 of the channel from X to Y."""
        return 0.5 * (1.0 - self.rho)

    def joint_cells(self) -> np.ndarray:
        """Joint cells as the flat array (p00, p01, p10, p11)."""
        agree = 0.25 * (1.0 + self.rho)
        differ = 0.25 * (1.0 - self.rho)
        return np.array([agree, differ, differ, agree])


@dataclass(frozen=True, slots=True)
class Coupling2x2:
    """Joint distribution of two bits; cell ``qij = P(X=i, Y=j)``."""

    q00: float
    q01: float
    q10: float
    q11: float

    def __post_init__(self) -> None:
        for name in ("q00", "q01", "q10", "q11"):
            object.__setattr__(self, name, _require_prob_scalar(getattr(self, name), name))
        total = self.q00 + self.q01 + self.q10 + self.q11
        if abs(total - 1.0) > 1e-12:
            raise InputDomainError(f"coupling cells sum to {total!r}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.q00, self.q01, self.q10, self.q11])

