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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDomainError

__all__ = [
    "DsbsParams",
    "Coupling2x2",
    "h2",
    "d2",
    "d2_inv",
    "bconv",
]

_LN2 = math.log(2.0)
_SLACK = 1e-12  # absolute slack accepted (and clipped) on probability inputs


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as a float array (0-d for a scalar), or `InputDomainError`.

    Booleans, integers and reals convert.  A ragged nested sequence, and
    any array of strings, complex numbers, None or other objects, is
    refused: a cast would raise numpy's bare error or, for complex input,
    drop the imaginary part with only a warning.
    """
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # ragged nested sequences
        raise InputDomainError(f"{name} must form an array: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise InputDomainError(f"{name} must be reals, not {arr.dtype}")
    return arr.astype(float, copy=False)


def _prepare_prob(x, name: str):
    """Validate an array-or-scalar probability and clip it into [0, 1].

    Returns ``np.float64`` for 0-d input and a new float array otherwise.
    Anything `_real_array` refuses (a ragged list, a string, a complex
    number, None), a non-finite value and a value outside [0, 1] by more
    than the slack raise `InputDomainError`.  This runs on every call of
    every public function, so an accepted input costs one range test: plain
    float comparisons for 0-d input, one min/max pair for arrays (NaN fails
    both).  Only a rejected or empty array goes through the elementwise
    checks.
    """
    if not isinstance(x, float):
        x = _real_array(x, name)
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
    """Reject any keyword value that is not a finite real number.

    Any `numbers.Real` passes (numpy scalars too), except a bool.
    """
    for name, val in values.items():
        if isinstance(val, bool) or not isinstance(val, numbers.Real) or not math.isfinite(val):
            raise InputDomainError(f"{name} must be a finite real number")


def _store_finite_reals(obj, *names: str) -> None:
    """`_require_finite_real` on the named fields of a frozen dataclass; stores each as a float.

    A numpy scalar would otherwise keep its dtype in the derived fields.
    """
    _require_finite_real(**{name: getattr(obj, name) for name in names})
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)))


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

    ``x`` is an array, 0-d included, and ``y`` must be positive wherever
    ``x`` is not 0 and broadcast to the shape of ``x``.  The result is a new
    array of that shape, with the log taken only where ``x != 0``, so
    ``y == 0`` there raises no warning.  Where ``x == 0`` the result is a
    zero with the sign of ``x``.  The relative error is at most 4.5e-16 for
    results in the normal range (at most 2.0e-16 measured against 50-digit
    mpmath).
    """
    out = np.log(y, out=np.zeros(x.shape), where=x != 0.0)
    out *= x
    return out


def h2(a):
    """Entropy of a bit with bias ``a``, in bits.  ``h2(0) = h2(1) = 0``."""
    p = _prepare_prob(a, "a")
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    return _scalarize(-(_xlogy(p, p) + _xlogy(1.0 - p, 1.0 - p)) / _LN2, scalar)


def _deficit_kernel(x):
    """The deficit in nats at bias ``(1 - x)/2``, and ``atanh(x)``, its derivative in x.

    The deficit is ``x*atanh(x) + log1p(-x*x)/2``: both terms are O(x^2)
    with ratio -2 as x -> 0, so the sum keeps the relative precision of its
    terms all the way to x = 0.  Needs ``|x| < 1``.
    """
    t = np.arctanh(x)
    return x * t + 0.5 * np.log1p(-x * x), t


def d2(a):
    """Entropy deficit of a bit with bias ``a``: ``1 - h2(a)``, in bits.

    Where ``|1 - 2a| <= 1/2`` it is the kernel in ``x = 1 - 2a``, which is
    exact there (Sterbenz), so the deficit keeps its relative precision as
    it vanishes like ``(1/2 - a)**2`` near ``a = 1/2``.  Elsewhere it is the
    direct form ``a*log2(2a) + (1-a)*log2(2-2a)``.  The relative error is at
    most 1e-15 for every ``a`` (at most 6.8e-16 against 50-digit mpmath).
    """
    p = _prepare_prob(a, "a")
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    x = 1.0 - 2.0 * p
    out = _deficit_kernel(np.clip(x, -0.5, 0.5))[0]  # replaced where |x| > 1/2
    far = np.abs(x) > 0.5
    if far.any():
        pf = p[far]
        out[far] = _xlogy(pf, 2.0 * pf) + _xlogy(1.0 - pf, 2.0 - 2.0 * pf)
    return _scalarize(out / _LN2, scalar)


def _d2_slope(b):
    """The slope of d2 in its bias, ``d2'(b) = log2(b/(1-b))``, on arrays; -inf at b = 0, silently."""
    with np.errstate(divide="ignore"):
        return np.log(b / (1.0 - b)) / _LN2


# Newton steps per regime of d2_inv.  From their seeds both regimes are
# within 1.1e-7 relative of the root after 3 steps and at rounding level
# after 5 (4 leave up to 3.5e-15 in the steep regime).
_NEWTON_STEPS = 5


def _d2_inv_flat(s: np.ndarray) -> np.ndarray:
    """d2_inv for s in [0, 1/2], by Newton in ``x = 1 - 2a`` on the kernel.

    The deficit is convex in x with ``D(x) >= x**2 / (2 ln 2)``, so the seed
    ``x = sqrt(2 ln 2 s)`` lies at or above the root and the iteration
    descends to it.  At ``s = 0`` the seed is the root x = 0, whose zero
    derivative takes no step.
    """
    nats = s * _LN2
    x = np.sqrt(2.0 * nats)
    for _ in range(_NEWTON_STEPS):
        value, slope = _deficit_kernel(x)
        x -= np.divide(value - nats, slope, out=np.zeros_like(x), where=slope != 0.0)
    return 0.5 * (1.0 - x)


def _d2_inv_steep(s: np.ndarray) -> np.ndarray:
    """d2_inv for s in (1/2, 1], by Newton in ``u = ln a`` on ``h2(a) = 1 - s``.

    ``y = 1 - s`` is exact (Sterbenz), and ``h2`` in nats,
    ``-(a*u + (1-a)*log1p(-a))``, is a sum of two positive terms, so ``a``
    keeps its relative precision as s -> 1.  The seed
    ``y / (L + log2 L + log2 e)`` with ``L = log2(1/y)`` solves h2's
    small-a form ``a*log2(e/a) = y`` to first order.  It stays below
    a = 0.205, inside a < 0.2178 where the equation is convex in u.  The
    iterate is ``a`` itself: each step multiplies it by ``exp(-du)``, so no
    rounded ``u`` is exponentiated.  ``s = 1`` gives ``a = 0`` exactly.
    """
    y = 1.0 - s
    interior = y > 0.0
    y = np.where(interior, y, 0.25)  # placeholder for s = 1, replaced below
    nats = y * _LN2
    bits = -np.log2(y)
    a = y / (bits + np.log2(bits) + 1.0 / _LN2)
    for _ in range(_NEWTON_STEPS):
        u = np.log(a)
        v = np.log1p(-a)
        a *= np.exp((a * u + (1.0 - a) * v + nats) / (a * (v - u)))
    return np.where(interior, a, 0.0)


def d2_inv(s):
    """Inverse of :func:`d2` on the branch [0, 1/2].

    A fixed number of Newton steps in one of two regimes
    (`_d2_inv_flat` for ``s <= 1/2``, `_d2_inv_steep` above), one
    vectorized path for scalars and arrays alike.  The result ``a`` has
    relative error at most 1e-14 for every ``s`` in [0, 1] (at most 9.6e-16
    against 50-digit mpmath, from ``s = 1e-300`` to ``1 - 1e-16``), and
    ``|d2(a) - s| <= 5e-16`` (at most 3.3e-16 measured).  Endpoints are
    exact: ``d2_inv(0) = 1/2`` and ``d2_inv(1) = 0``.
    """
    sv = _prepare_prob(s, "s")
    scalar = sv.ndim == 0
    sv = np.atleast_1d(sv)
    out = np.empty_like(sv)
    flat = sv <= 0.5
    if flat.any():
        out[flat] = _d2_inv_flat(sv[flat])
    steep = ~flat
    if steep.any():
        out[steep] = _d2_inv_steep(sv[steep])
    return _scalarize(out, scalar)


# ---------------------------------------------------------------------------
# binary convolution
# ---------------------------------------------------------------------------


def bconv(x, y):
    """Bias of the XOR of independent bits with biases ``x`` and ``y``."""
    xv = _prepare_prob(x, "x")
    yv = _prepare_prob(y, "y")
    return _scalarize(xv + yv - 2.0 * xv * yv, xv.ndim == 0 and yv.ndim == 0)


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
        _store_finite_reals(self, "rho")
        if not 1e-6 < self.rho < 1.0 - 1e-6:
            raise InputDomainError(
                f"rho={self.rho!r} outside the supported open interval (1e-06, 1 - 1e-06)"
            )
        self._derive()

    def _derive(self) -> None:
        object.__setattr__(self, "theta", (1.0 - self.rho) / (1.0 + self.rho))
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


def _mirror(params: DsbsParams) -> DsbsParams:
    """The source with ``Y`` relabelled ``1 - Y``: ``rho -> -rho``.

    Agree and differ swap, ``k -> 1/k`` and ``theta -> 1/theta``.  A
    coupling with ``P(X=1) = a`` and ``P(Y=1) = 1 - b`` is the mirror's
    coupling with ``P(Y=1) = b``, its cells (1, 1) and (1, 0) swapped, at
    the same divergence; so ``dd2(a, 1 - b)`` is ``dd2(a, b)`` of the
    mirror, which never forms ``1 - b``.  It is built past the ``rho > 0``
    check, which guards only what callers may construct.
    """
    mirrored = object.__new__(DsbsParams)
    object.__setattr__(mirrored, "rho", -params.rho)
    mirrored._derive()
    return mirrored


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

