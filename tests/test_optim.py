"""Lockstep safeguarded Newton: brackets, freezing and fallbacks."""

import math
import warnings

import numpy as np
import pytest

from dsbs_envelopes import DsbsParams, QParam, phi_q_full
from dsbs_envelopes._optim import _NEWTON_MAX_ITER, newton_root_vec
from dsbs_envelopes import envelopes


SQRT2 = math.sqrt(2.0)


def _counted(f):
    """``f`` wrapped so that ``calls[r]`` counts the evaluations of row r."""
    calls = {}

    def wrapped(x, rows):
        for r in rows.tolist():
            calls[r] = calls.get(r, 0) + 1
        return f(x, rows)

    return wrapped, calls


def _square(slope_sign):
    # g(x) = x^2 - 2, which is never exactly 0 in floating point; a row with
    # slope_sign -1 reports the slope of g with the wrong sign, so none of
    # its Newton steps is taken
    def f(x, rows):
        return x * x - 2.0, 2.0 * x * slope_sign[rows]

    return f


def test_negative_curvature_falls_back_to_bisection():
    # the same problem converges by Newton in a few steps when its slope is
    # reported truly, and by bisection alone when the slope is negative
    f, calls = _counted(_square(np.array([1.0, -1.0])))
    x, refined = newton_root_vec(f, np.ones(2), np.full(2, 2.0), np.full(2, 1.9))
    assert refined.all()
    assert np.all(np.abs(x - SQRT2) <= 4 * np.spacing(SQRT2))
    assert calls[0] <= 10
    assert 45 <= calls[1] <= _NEWTON_MAX_ITER + 1  # one start call, then bisection


def test_row_alone_equals_row_batched_with_slow_rows():
    # a row freezes at its own convergence: it is no longer evaluated or
    # moved, so its answer is the same bits alone and next to rows that
    # bisect for 50 steps
    rng = np.random.default_rng(3)
    slope_sign = np.where(np.arange(9) % 3 == 0, 1.0, -1.0)
    lo, hi, x0 = np.ones(9), np.full(9, 2.0), rng.uniform(1.0, 2.0, 9)
    f, calls = _counted(_square(slope_sign))
    batch, refined = newton_root_vec(f, lo, hi, x0)
    assert refined.all()
    assert max(calls[i] for i in range(0, 9, 3)) <= 10 < 45 <= min(calls[i] for i in range(1, 9, 3))
    for i in range(9):
        alone, _ = newton_root_vec(_square(slope_sign[[i]]), lo[[i]], hi[[i]], x0[[i]])
        assert alone[0] == batch[i]


def _three_point(g_lo, g_start, g_hi):
    # g on the bracket [0, 1] with start 0.25: the given values at the ends
    # and at the start, and a crossing at 0.125 or 0.5 in between
    def f(x, rows):
        g = np.where(x < 0.25, x - 0.125, x - 0.5)
        g = np.where(x == 0.25, g_start, g)
        g = np.where(x == 0.0, g_lo, np.where(x == 1.0, g_hi, g))
        return g, np.ones_like(x)

    return f


@pytest.mark.parametrize(
    "g_lo, g_start, g_hi",
    [
        (1.0, 2.0, 3.0),  # no crossing
        (-3.0, -2.0, -1.0),
        (1.0, 1.0, -1.0),  # g(x0) > 0 points left, where g(lo) > 0 too
        (-1.0, 0.0, 1.0),  # the start is the root
        (-1.0, math.inf, 1.0),  # a non-finite start
        (-1.0, math.nan, 1.0),
    ],
)
def test_bracket_without_sign_change_keeps_its_start(g_lo, g_start, g_hi):
    # a row whose start gives no direction, or whose far end shows no
    # crossing in the half g(x0) points to, returns its start untouched
    # after the one call that evaluates both ends and the start
    f, calls = _counted(_three_point(g_lo, g_start, g_hi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, refined = newton_root_vec(f, np.array([0.0]), np.array([1.0]), np.array([0.25]))
    assert refined.tolist() == [False]
    assert x.tolist() == [0.25] and calls[0] == 3


@pytest.mark.parametrize(
    "g_lo, g_start, g_hi, root",
    [
        (-0.5, 0.5, math.nan, 0.125),  # the far end of the other half is never consulted
        (-0.5, 0.5, -1.0, 0.125),
        (math.nan, 0.5, 1.0, 0.125),  # a non-finite far end says nothing about its sign
        (1.0, -0.5, -math.inf, 0.5),
        (1.0, -0.5, math.inf, 0.5),
    ],
)
def test_crossing_in_the_half_the_start_points_to(g_lo, g_start, g_hi, root):
    # like a psi-family grid winner next to b = 0, whose bracket ends at a
    # NaN slope: the crossing next to the start is still found
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, refined = newton_root_vec(
            _three_point(g_lo, g_start, g_hi), np.array([0.0]), np.array([1.0]), np.array([0.25])
        )
    assert refined.tolist() == [True] and x[0] == root


def test_q_family_rows_converge_by_newton(monkeypatch):
    # every row of the figure's families settles in a few Newton steps;
    # bisection from a grid cell would need about 50 evaluations.  A step
    # that rounds onto its bracket end must count as converged: taken as a
    # failed Newton step, it sent rows into 30-45 bisections.  The psi rows
    # need their slope to keep its digits as b nears 0 (the mirrored
    # source).  Each _q_opt call refines every q in one solver call.  At
    # rho 0.999998 the q = -10 row at s = 1 is won by the b = 0 end and
    # starts from its interior neighbour, toward the infinite slope at b = 0
    s = np.linspace(0.0, 1.0, 101)
    most = []

    def counted_solver(f, lo, hi, x0):
        f, calls = _counted(f)
        out = newton_root_vec(f, lo, hi, x0)
        most.append(max(calls.values()))
        return out

    monkeypatch.setattr(envelopes, "newton_root_vec", counted_solver)
    for rho in (0.5, 0.9):
        params = DsbsParams(rho)
        envelopes._q_opt(s, (1.0, 2.0, 10.0, -0.5, -2.0, -10.0), params, kind="phi")
        envelopes._q_opt(s, (0.25, 0.5, 0.75), params, kind="psi")
    t_end = envelopes._q_opt(1.0, (-10.0,), DsbsParams(0.999998), kind="phi")[1]
    assert len(most) == 5 and max(most) <= 13
    assert 0.9995 < t_end[0, 0] < 1.0  # inside the last cell [1999/2000, 1]


def test_infinite_derivative_at_b_zero_raises_no_warning():
    # at q = 1 and s near 1 the phi-family optimum sits at t = 1, where the
    # search bracket ends at b = 0: the closed-form slope there is
    # -inf - (-inf) = NaN, so the row keeps its grid point t = 1 exactly
    params = DsbsParams(0.9)
    s = np.linspace(0.0, 1.0, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = envelopes._seed_grid()[0][-2:]  # the last two grid points of x = -b
        g, _ = envelopes._q_slope(np.full(2, 0.2), x, 1.0, params, 1.0)
        values, t_opt = phi_q_full(s, QParam.from_q(1.0), params)
    assert -x[1] == 0.0 and not np.isfinite(g[1]) and np.isfinite(g[0])
    assert np.count_nonzero(t_opt == 1.0) > 0
    assert np.all(np.isfinite(values))
