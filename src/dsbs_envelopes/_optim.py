"""Bracketed scalar solvers used throughout the package.

Only derivative-free, bracketing methods live here: plain bisection for
root finding and golden-section search for one-dimensional extrema.  The
objectives we optimize are piecewise-smooth and are always seeded from a
dense grid first, so bracketing is sufficient and deterministic.

The ``*_vec`` variants run many searches in lockstep on numpy arrays: every
iteration evaluates the objective once on the whole batch and advances each
bracket with ``np.where``.  The iteration count is fixed from the widest
initial bracket, which keeps results independent of batch composition.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NoRootError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_BISECT_XTOL = 1e-15  # relative bracket width at which bisect_root stops
_BISECT_MAX_ITER = 200
_GOLDEN_VEC_XTOL = 1e-12  # absolute bracket width at which golden_min_vec stops


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    f_lo: float | None = None,
    f_hi: float | None = None,
) -> float:
    """Find a root of ``f`` on ``[lo, hi]`` by bisection.

    Raises :class:`NoRootError` when the endpoint values do not bracket a
    sign change.  ``f_lo``/``f_hi`` may pass along already-computed endpoint
    values.  The bracket is halved until its width is at most
    ``_BISECT_XTOL * max(1, |hi|)`` (the scale keeps very large brackets
    terminating), for at most ``_BISECT_MAX_ITER`` steps.
    """
    flo = f(lo) if f_lo is None else f_lo
    fhi = f(hi) if f_hi is None else f_hi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoRootError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    s_lo = math.copysign(1.0, flo)
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= _BISECT_XTOL * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == s_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
) -> tuple[float, float]:
    """Golden-section minimization of ``f`` on ``[lo, hi]``.

    Returns ``(x, f(x))`` with the bracket narrowed to ``xtol``.  Assumes the
    bracket contains a minimum (callers seed it from a dense grid).
    """
    if hi < lo:
        lo, hi = hi, lo
    width = hi - lo
    if width <= xtol:
        x = 0.5 * (lo + hi)
        return x, f(x)
    c = lo + _INVPHI2 * width
    d = lo + _INVPHI * width
    fc = f(c)
    fd = f(d)
    n_iter = max(0, math.ceil(math.log(xtol / width) / math.log(_INVPHI)))
    for _ in range(n_iter):
        if fc <= fd:  # keep left part on ties: smallest argument wins
            hi, d, fd = d, c, fc
            width = hi - lo
            c = lo + _INVPHI2 * width
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            width = hi - lo
            d = lo + _INVPHI * width
            fd = f(d)
    if fc <= fd:
        return c, fc
    return d, fd


def golden_min_vec(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep golden-section minimization over a batch of brackets.

    ``f`` must map an array of abscissae to an array of objective values of
    the same shape (element ``i`` of the input belongs to problem ``i``).
    Returns ``(x, fx)`` arrays, with every bracket narrowed to
    ``_GOLDEN_VEC_XTOL``.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    swap = hi < lo
    if np.any(swap):
        lo2 = np.where(swap, hi, lo)
        hi = np.where(swap, lo, hi)
        lo = lo2
    width = hi - lo
    max_width = float(np.max(width)) if width.size else 0.0
    if max_width <= _GOLDEN_VEC_XTOL:
        x = 0.5 * (lo + hi)
        return x, f(x)
    c = lo + _INVPHI2 * width
    d = lo + _INVPHI * width
    fc = f(c)
    fd = f(d)
    n_iter = max(0, math.ceil(math.log(_GOLDEN_VEC_XTOL / max_width) / math.log(_INVPHI)))
    for _ in range(n_iter):
        take_left = fc <= fd  # ties shrink toward the left: smallest argument wins
        hi = np.where(take_left, d, hi)
        lo = np.where(take_left, lo, c)
        width = hi - lo
        c = lo + _INVPHI2 * width
        d = lo + _INVPHI * width
        # Scalar golden-section reuses one interior point per iteration; in
        # lockstep the reusable point differs per element, so we re-evaluate
        # both.  Two batched calls per iteration beat per-element bookkeeping.
        fc = f(c)
        fd = f(d)
    x = np.where(fc <= fd, c, d)
    fx = np.minimum(fc, fd)
    return x, fx
