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
For ``k > 1`` the discriminant is formed as

    Delta = (k-1)^2*(a-b)^2 + 2*(k-1)*(a*(1-b) + b*(1-a)) + 1,

a sum of nonnegative terms, at least 1 on the unit square.  The plain
``T^2 - 4*k*(k-1)*a*b`` subtracts two terms of about ``k^2`` that cancel
near ``a = b``, and left p* within only a relative ``2*eps*k`` (1.3e-12 at
rho 0.9999).  The value of dd2 does not see that error (p* minimizes it),
but its slope would, through ``q01 = b - p*``; `_dd2_slope` takes that cell
as the root of its own quadratic instead (`_differ_cell`).  The mirrored
source of psi (`binary._mirror`, ``k < 1``) has ``T >= k > 0`` on
``a + b <= 1`` and ``Delta = T^2 + 4*k*(1-k)*a*b``, a sum of nonnegative
terms.

Both slices of `envelopes` lie in ``a + b <= 1``, and the public entry
points fold the rest onto it (`_fold`): flipping both bits maps (a, b) to
(1 - a, 1 - b) at the same divergence.  Unfolded, the plain Delta near
``a = b = 1`` at rho close to 1 was formed from two terms of about
4*k^2: on 1200 points with 1 - a and 1 - b in [1e-13, 0.1] and rho in
{0.9, 0.999, 0.9999, 0.99999} it went negative on 68, and dd2 was off by
up to 3.2e-9 (relative, against 60-digit mpmath) on the rest; folded, dd2
is within 6.7e-16 there.  A negative Delta, which only a broken ``k`` can
produce, raises an `InconsistencyError` in `_p_star`.

One kernel evaluates the surface: `_p_star` builds p* in place in four
buffers of the broadcast shape, and `_divergence` takes the clipped cells
of any p and sums their KL terms with every log in one unmasked pass.  Both
perform the same floating-point operations, in the same order, as the
plain array expressions they stand for, so their results do not depend on
how an input is split; 0-d biases take the same path.  Each temporary has
the broadcast shape of the input, so the dense grid evaluators of
`envelopes` and its q-family search call the kernel in chunks of at most
``envelopes._BLOCK_ELEMS`` = 2^15 elements: one chunk's temporaries
(256 KB each) then stay in a core's L2 cache, where a whole-table
evaluation streamed every temporary through memory.

dd2 is symmetric in its biases, and the kernel is so bit for bit: it forms
each quantity that is symmetric in ``a`` and ``b`` in a symmetric order.
`_p_star` takes both products as ``(a*b)*c``, `_cells` takes ``q00`` as
``(p + 1) - (a + b)``, and `_divergence` sums the two off-diagonal terms
first, ``(t01 + t10) + t00 + t11``; swapping the biases then only swaps
``q01`` and ``q10``, whose KL terms share the reference cell.  The
Lagrangian certificate relies on it: on a grid of equal axes, which is
then exactly symmetric, `hulls._lagrangian_gaps` queries one triangle and
mirrors it.

A vectorized brute-force minimizer over the segment
(`_dd2_oracle_batch`, used by claim P) is the independent check of the
closed form; it keeps its own golden-section p and never consults the
quadratic, and shares only `_divergence` with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optim import golden_min_vec
from .binary import (
    _LN2, Coupling2x2, DsbsParams, _check_broadcast, _prepare_prob, _require_instance, _scalarize,
)
from .errors import InconsistencyError, InputDomainError

__all__ = [
    "MreResult",
    "p_star",
    "dd2",
    "dd2_value",
]

_BROKEN_DISCRIMINANT = "negative discriminant in p_star; invariant Delta >= 1 broken"


@dataclass(frozen=True, slots=True)
class MreResult:
    """Minimum divergence for one marginal pair, with its witness coupling."""

    value: float
    p_star: float
    coupling: Coupling2x2


def _feasible_interval(a, b):
    return np.maximum(0.0, a + b - 1.0), np.minimum(a, b)


def _p_star(a, b, params: DsbsParams):
    """:func:`p_star` on biases that :func:`_prepare_prob` has already validated.

    A float for 0-d ``a`` and ``b``, which go through as 1-element arrays;
    otherwise a new array of their broadcast shape, built in place in four
    buffers of that shape.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.atleast_1d(a, b)
    k = params.k
    s = np.add(a, b)
    t = np.multiply(s, k - 1.0)
    t += 1.0
    if k > 1.0:
        # (k-1)^2 (a-b)^2 + 2(k-1)(a + b - 2ab) + 1: no terms of size k^2 cancel
        delta = np.subtract(a, b)
        delta *= k - 1.0
        delta *= delta
        p = np.multiply(a, b)
        p *= -2.0
        p += s
        p *= 2.0 * (k - 1.0)
        delta += p
        delta += 1.0
    else:
        delta = np.multiply(t, t)
        p = np.multiply(a, b)
        p *= 4.0 * k * (k - 1.0)
        delta -= p
    if delta.min(initial=0.0) < -1e-12:
        raise InconsistencyError(_BROKEN_DISCRIMINANT)
    np.maximum(delta, 0.0, out=delta)
    np.sqrt(delta, out=delta)
    delta += t
    np.multiply(a, b, out=p)
    p *= 2.0 * k
    p /= delta
    s -= 1.0
    lo = np.maximum(0.0, s, out=s)
    hi = np.minimum(a, b, out=t)
    np.maximum(p, lo, out=p)  # with the next line, np.clip(p, lo, hi) to the sign of a zero
    return _scalarize(np.minimum(p, hi, out=p), scalar)


def _cells(a, b, p):
    """The cells q00, q01, q10, q11 of the coupling with P(1,1) = p.

    Stacked along a new leading axis of one new array of the broadcast
    shape of ``a``, ``b`` and ``p``, each clipped at 0 for fp spill.
    """
    q = np.empty((4,) + np.broadcast(a, b, p).shape)
    cell = [q[i, ...] for i in range(4)]  # views, also for 0-d input
    np.add(p, 1.0, out=cell[1])  # (p + 1) - (a + b): symmetric in a and b
    np.subtract(cell[1], np.add(a, b, out=cell[0]), out=cell[0])
    np.subtract(b, p, out=cell[1])
    np.subtract(a, p, out=cell[2])
    cell[3][...] = p
    return np.maximum(q, 0.0, out=q)


def _divergence(a, b, p, params: DsbsParams):
    """Divergence in bits of the coupling with P(1,1) = p against the source.

    The cells are clipped at 0 for fp spill, and an empty cell adds 0.  A
    float for 0-d ``a``, ``b`` and ``p``; otherwise a new array of their
    broadcast shape.  Every log is taken in one unmasked pass over the
    stacked cells: an empty cell gives ``0 * log 0 = NaN`` there, which a
    fix-up replaces by the cell's own zero.  The terms are summed as
    ``(t01 + t10) + t00 + t11``, symmetric in ``a`` and ``b``, and the sum
    is clipped at 0: a relative entropy is never negative, but where it is
    0 (a = b = 1/2, where the source itself has the marginals) rounding
    takes the sum to about -1e-16.
    """
    q = _cells(a, b, p)
    refs = params.joint_cells().reshape((4,) + (1,) * (q.ndim - 1))
    terms = np.divide(q, refs)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(terms, out=terms)
        terms *= q
    if q.min(initial=1.0) == 0.0:
        np.copyto(terms, q, where=q == 0.0)
    total = np.add(terms[1], terms[2])  # the two differ cells first: symmetric in a and b
    total += terms[0]
    total += terms[3]
    total /= _LN2
    total = np.maximum(total, 0.0, out=total if q.ndim > 1 else None)  # 0-d sums are numpy scalars
    return _scalarize(total, q.ndim == 1)


def _fold(a, b):
    """``(a, b, None)``, or, if some a + b > 1, the folded biases and their mask.

    Flipping both bits leaves the source unchanged and maps the segment at
    (a, b) onto the one at (1 - a, 1 - b), cells reversed, so dd2 is
    invariant and p*(a, b) = a + b - 1 + p*(1 - a, 1 - b).  Where a + b > 1
    the biases are replaced by 1 - a and 1 - b, which are exact for
    a, b >= 1/2.  The test reads the inputs, not their broadcast table, and
    the slices of `envelopes` (a + b <= 1) pass through untouched.
    """
    if np.maximum.reduce(a, axis=None, initial=0.0) + np.maximum.reduce(b, axis=None, initial=0.0) <= 1.0:
        return a, b, None
    flip = a + b > 1.0
    return np.where(flip, 1.0 - a, a), np.where(flip, 1.0 - b, b), flip


def _unfold_p(a, b, p, flip):
    """p*(a, b) from ``p = _p_star`` at the folded biases."""
    if flip is None:
        return p
    return _scalarize(np.where(flip, a + b - 1.0 + p, p), np.ndim(flip) == 0)


def p_star(a, b, params: DsbsParams):
    """Minimizing cell mass p on the feasible segment, by the stable quadratic root."""
    _require_instance(DsbsParams, params=params)
    av = _prepare_prob(a, "a")
    bv = _prepare_prob(b, "b")
    _check_broadcast(av, bv)
    fa, fb, flip = _fold(av, bv)
    return _unfold_p(av, bv, _p_star(fa, fb, params), flip)


def dd2_value(a, b, params: DsbsParams):
    """Minimum divergence for marginal biases (a, b), in bits (vectorized)."""
    _require_instance(DsbsParams, params=params)
    av = _prepare_prob(a, "a")
    bv = _prepare_prob(b, "b")
    _check_broadcast(av, bv)
    av, bv, _ = _fold(av, bv)
    return _divergence(av, bv, _p_star(av, bv, params), params)


def _differ_cell(a, b, k: float):
    """The cell ``q01 = b - p*`` of the optimal coupling, for ``k > 1``, to a few ulps.

    Put into the cross-ratio condition, ``x = b - p*`` solves
    ``(k-1)*x^2 + B*x - (1-a)*b = 0`` with ``B = k*(a-b) + 1 - a + b``,
    whose one nonnegative root is taken in the form that adds terms of one
    sign: ``2*(1-a)*b / (B + sqrt(D))`` for ``B >= 0``, else
    ``(sqrt(D) - B) / (2*(k-1))``, where ``D = B^2 + 4*(k-1)*(1-a)*b``.
    ``b - p*`` itself keeps only a relative ``eps*b/q01``; near ``a = b``
    at rho 0.999998 that put phi_tilde's slope off by 6.3e-10 at
    s = t = 0.005.  ``q10`` is ``_differ_cell(b, a, k)``.
    """
    c = (1.0 - a) * b
    big_b = k * (a - b) + (1.0 - a + b)
    root = np.sqrt(big_b * big_b + 4.0 * (k - 1.0) * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(big_b >= 0.0, 2.0 * c / (big_b + root), (root - big_b) / (2.0 * (k - 1.0)))


def _dd2_slope(a, b, params: DsbsParams, *, curvature: bool = True):
    """First and second derivatives of dd2(a, b) in b, in bits (vectorized).

    With ``curvature=False`` only the first derivative is returned, and the
    cells that only the second one reads (``q10`` from `_differ_cell`,
    ``q11``'s sum) are not formed; the slope takes the same operations
    either way.

    ``a`` and ``b`` must already be validated biases.  By the envelope
    theorem the first derivative is the partial derivative of the coupling
    divergence at fixed ``p*``: ``log2(q01*P00 / (q00*P01))``.  Along the
    optimal coupling ``q00*q11 = k*q01*q10``, so ``dp*/db = A/(A+B)`` with
    ``A = 1/q00 + 1/q01`` and ``B = 1/q10 + 1/q11``, and the second
    derivative is ``(A*B/(A+B))/ln 2``, evaluated as ``1/(1/A + 1/B)`` so
    that ``B = inf`` (at ``a = 0``, where ``p* = 0``, or where 1/q10 or
    1/q11 overflows) gives ``A/ln 2``.  An empty cell at the ends of the
    segment (``b = 0`` or ``b = 1``) gives an infinite or NaN derivative
    without a warning, whose sign callers must not trust.

    Precision is set by the cells.  ``q00 = 1 + p - a - b`` is within
    about eps; for ``k > 1``, ``q01`` and ``q10`` come from
    `_differ_cell`, within a few ulps relative.  Against 50-digit mpmath
    the slope is within ``4e-15 * (1 + 1/q00)`` absolute and the curvature
    within the same bound relative (measured 3.0e-15 and 2.4e-16 over that
    scale), for rho from 0.5 up to 0.999998, b at and near a included.  On
    the mirrored source (``k < 1``) ``q01 = b - p*`` as it is: ``p* <
    a*b``, so ``b/q01 < 1/(1-a) <= 2`` for ``a <= 1/2``, and psi's b-slope
    keeps its digits as ``b`` nears 0 (within 1e-14; measured 3.4e-15; on
    biases up to 1/2 within the bound above, measured 2.8e-15).
    """
    q00, q01, q10, q11 = _cells(a, b, _p_star(a, b, params))
    if params.k > 1.0:
        q01 = _differ_cell(a, b, params.k)
    agree, differ = params.joint_cells()[:2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slope = np.log((q01 * agree) / (q00 * differ)) / _LN2
        if not curvature:
            return slope
        if params.k > 1.0:
            q10 = _differ_cell(b, a, params.k)
        curve_a = 1.0 / q00 + 1.0 / q01
        curve_b = 1.0 / q10 + 1.0 / q11
        return slope, 1.0 / (1.0 / curve_a + 1.0 / curve_b) / _LN2


def dd2(a: float, b: float, params: DsbsParams) -> MreResult:
    """Minimum divergence together with its minimizer and witness coupling."""
    _require_instance(DsbsParams, params=params)
    av, bv = _prepare_prob(a, "a"), _prepare_prob(b, "b")
    if isinstance(av, np.ndarray) or isinstance(bv, np.ndarray):  # 0-d input comes back as np.float64
        raise InputDomainError(f"dd2 takes scalars, not shapes {av.shape}, {bv.shape}; use dd2_value or p_star")
    av, bv = float(av), float(bv)
    fa, fb, flip = _fold(av, bv)
    p = _p_star(fa, fb, params)
    cells = _cells(fa, fb, p)
    if flip:
        cells = cells[::-1]  # the witness of the folded biases, both bits flipped back
    coupling = Coupling2x2(*(cells / cells.sum()))
    value = _divergence(fa, fb, p, params)
    return MreResult(value=value, p_star=_unfold_p(av, bv, p, flip), coupling=coupling)


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
    f_lo = _divergence(a, b, p - h, params)
    f_mid = _divergence(a, b, p, params)
    f_hi = _divergence(a, b, p + h, params)
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
        lambda p: _divergence(av, bv, p, params), lo, np.maximum(hi, lo + 1e-300)
    )
    p_opt = _argmin_polish(av, bv, p_opt, params)
    f_opt = np.minimum(f_opt, _divergence(av, bv, p_opt, params))
    p_opt = np.where(point, lo, p_opt)
    f_opt = np.where(point, _divergence(av, bv, lo, params), f_opt)
    return p_opt, f_opt
