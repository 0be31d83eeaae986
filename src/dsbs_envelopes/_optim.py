"""Bracketed scalar solvers.

Plain bisection finds roots, golden-section search finds one-dimensional
extrema without derivatives, and a safeguarded Newton iteration finds the
stationary point of an objective whose derivative and curvature are known
in closed form.  The objectives are piecewise-smooth and are always seeded
from a dense grid first, so every search runs inside a bracket and is
deterministic.

The package calls only the two lockstep solvers: `newton_root_vec` (the
q-family refinement of `envelopes` and the roots of `stationary`) and
`golden_min_vec` (the dd2 oracle of `mre`).  The scalar `bisect_root` and
`golden_min` have no caller in the package; they stay only as rows of the
benchmark tracer's ``TARGETS`` until it drops them (ROADMAP items 2 and 6).

The ``*_vec`` variants run many searches in lockstep on numpy arrays, with
``np.where`` advancing each bracket, and keep every result independent of
batch composition.  `golden_min_vec` fixes its iteration count from the
widest initial bracket; `newton_root_vec` freezes each row at its own
convergence and evaluates only the rows still moving.
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
# Newton steps per row in newton_root_vec; bisection alone takes a bracket of
# width <= 1 down to a few ulps in at most 55 steps.
_NEWTON_MAX_ITER = 64
_NEWTON_BRACKET_ULPS = 4  # bracket width, in ulps of its ends, at which a row freezes


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
    Every bracket must have ``lo <= hi``.  Returns ``(x, fx)`` arrays, with
    every bracket narrowed to ``_GOLDEN_VEC_XTOL``.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
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


def newton_root_vec(
    f: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    x0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep safeguarded Newton for an upward zero crossing of ``g`` on each bracket.

    ``f(x, rows)`` returns ``(g, dg)``, the function and its slope at
    ``x[i]`` for problem ``rows[i]`` (``rows`` indexes the batch).  First
    ``g`` is evaluated at both ends of every bracket and at its start
    ``x0``, in one call.  The sign of ``g(x0)`` picks the half of the
    bracket that must hold the crossing: ``[lo, x0]`` if ``g(x0) > 0``,
    ``[x0, hi]`` if ``g(x0) < 0``.  A row returns ``x0`` unchanged when
    ``g(x0)`` is 0, NaN or infinite, or when ``g`` is finite at the far
    end of that half with the sign of ``g(x0)`` (no crossing).  A NaN or
    infinite far end says nothing about its sign, so the row iterates: the
    caller vouches for a crossing there (a grid argmin ``x0`` guarantees a
    local minimum in the half its slope points to), and without one the
    row ends near that end.  An iterating row shrinks its bracket by the
    sign of ``g`` and takes the Newton step ``x - g/dg`` only if ``dg > 0``
    and the step lands strictly inside the bracket; otherwise it bisects.
    A row freezes when ``g`` is exactly 0, when its step is at most 1 ulp,
    when its bracket is at most ``_NEWTON_BRACKET_ULPS`` ulps wide, or
    after ``_NEWTON_MAX_ITER`` steps.  Frozen rows are no longer evaluated,
    so a row's answer does not depend on the other rows of the batch.

    Returns ``(x, refined)``: the final abscissae and the mask of rows that
    iterated.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    x = np.array(x0, dtype=float, copy=True)
    n = x.size
    rows = np.arange(n)
    g3, dg3 = f(np.concatenate([lo, x, hi]), np.tile(rows, 3))
    g_lo, g, g_hi = g3[:n], g3[n : 2 * n], g3[2 * n :]
    left = (0.0 < g) & (g < np.inf)  # the crossing must lie in [lo, x0]
    right = (-np.inf < g) & (g < 0.0)  # ... or in [x0, hi]
    refined = (left & ((g_lo < 0.0) | ~np.isfinite(g_lo))) | (right & ((g_hi > 0.0) | ~np.isfinite(g_hi)))
    hi = np.where(left, x, hi)
    lo = np.where(right, x, lo)
    active = rows[refined]
    g, dg = g[refined], dg3[n : 2 * n][refined]
    for _ in range(_NEWTON_MAX_ITER):
        if not active.size:
            break
        xa, la, ha = x[active], lo[active], hi[active]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = xa - g / dg
        # xa is an end of its bracket, so a converged step of at most 1 ulp
        # may round onto it: take it too, or the row would bisect on
        tiny = np.abs(step - xa) <= np.spacing(np.abs(xa))
        newton = (dg > 0.0) & (tiny | ((la < step) & (step < ha)))
        x_new = np.where(newton, step, 0.5 * (la + ha))
        end_ulp = np.spacing(np.maximum(np.abs(la), np.abs(ha)))
        done = (np.abs(x_new - xa) <= np.spacing(np.abs(xa))) | (ha - la <= _NEWTON_BRACKET_ULPS * end_ulp)
        x[active] = x_new
        active, x_new = active[~done], x_new[~done]
        if not active.size:
            break
        g, dg = f(x_new, active)
        lo[active] = np.where(g < 0.0, x_new, lo[active])
        hi[active] = np.where(g > 0.0, x_new, hi[active])
        moving = g != 0.0
        active, g, dg = active[moving], g[moving], dg[moving]
    return x, refined
