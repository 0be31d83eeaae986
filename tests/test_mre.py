"""Minimum-divergence surface: closed-form minimizer vs brute-force oracle."""

import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from dsbs_envelopes import Coupling2x2, DsbsParams, InconsistencyError, dd2, p_star
from dsbs_envelopes.mre import _cells, _dd2_oracle_batch, _dd2_slope, _p_star, dd2_value

RHO = DsbsParams(0.9)
KL_UNIFORM_JOINT_09 = 1.1979643381655696  # = -log2(0.19)/2, computed with mpmath


def kl_joint(q: Coupling2x2, params: DsbsParams) -> float:
    """Relative entropy D(q || P) against the source joint matrix, in bits.

    The oracle for ``dd2``: the source matrix has full support, so the
    result is always finite.
    """
    qc = q.as_array()
    pc = params.joint_cells()
    return float(np.sum(xlogy(qc, qc / pc)) / math.log(2.0))

# Reference values computed with mpmath at mp.dps = 50 (quadratic solved in
# 50-digit arithmetic, then the coupling divergence summed exactly).
FROZEN = [
    # (a, b, rho, p_star, dd2)
    (0.3, 0.4, 0.9, 0.29534588842286665, 0.19638665526752514),
    (0.2, 0.7, 0.5, 0.18822195572317882, 0.70399083947857632),
    (0.45, 0.05, 0.1, 0.027249519328164765, 0.71367595169442732),
    (0.11, 0.11, 0.9, 0.094839766350514737, 0.5284912604339468),
]

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@pytest.mark.parametrize("a, b, rho, p_ref, v_ref", FROZEN)
def test_frozen_minimizers(a, b, rho, p_ref, v_ref):
    params = DsbsParams(rho)
    res = dd2(a, b, params)
    assert res.p_star == pytest.approx(p_ref, abs=1e-14)
    assert res.value == pytest.approx(v_ref, abs=1e-14)


@pytest.mark.parametrize("a, b, rho, p_ref, v_ref", FROZEN)
def test_oracle_agrees_on_frozen_points(a, b, rho, p_ref, v_ref):
    # independent route: golden-section search plus parabolic polish, no
    # quadratic formula
    params = DsbsParams(rho)
    _, value = _dd2_oracle_batch(np.array([a]), np.array([b]), params)
    assert value[0] == pytest.approx(v_ref, abs=1e-10)


def test_kl_joint_against_source():
    params = DsbsParams(0.9)
    assert kl_joint(Coupling2x2(*params.joint_cells()), params) == 0.0
    uniform = Coupling2x2(0.25, 0.25, 0.25, 0.25)
    assert kl_joint(uniform, params) == pytest.approx(KL_UNIFORM_JOINT_09, abs=1e-14)


def test_exact_anchors():
    # forced values: independent marginals, the source itself, and perfect
    # disagreement
    assert dd2(0.5, 0.5, RHO).value == pytest.approx(0.0, abs=1e-12)
    assert p_star(0.5, 0.5, RHO) == pytest.approx((1 + 0.9) / 4, abs=1e-12)
    assert dd2(0.0, 0.0, RHO).value == pytest.approx(2 - math.log2(1.9), abs=1e-12)
    assert dd2(0.0, 1.0, RHO).value == pytest.approx(2 - math.log2(0.1), abs=1e-12)


def test_coupling_witness_consistency():
    res = dd2(0.3, 0.4, RHO)
    q = res.coupling
    assert q.q10 + q.q11 == pytest.approx(0.3, abs=1e-12)  # P(X = 1)
    assert q.q01 + q.q11 == pytest.approx(0.4, abs=1e-12)  # P(Y = 1)
    assert q.q11 == pytest.approx(res.p_star, abs=1e-15)


@given(probs, probs)
@settings(max_examples=500, deadline=None)
def test_p_star_feasible_and_stationary(a, b):
    p = p_star(a, b, RHO)
    lo = max(0.0, a + b - 1.0)
    hi = min(a, b)
    assert lo - 1e-12 <= p <= hi + 1e-12
    # value at p_star never exceeds the endpoint couplings' divergences
    v = dd2_value(a, b, RHO)
    for endpoint in (lo, hi):
        cells = Coupling2x2(1.0 + endpoint - a - b, b - endpoint, a - endpoint, endpoint)
        assert v <= kl_joint(cells, RHO) + 1e-12


@given(probs, probs)
@settings(max_examples=200, deadline=None)
def test_dd2_symmetric_in_marginals(a, b):
    assert dd2_value(a, b, RHO) == pytest.approx(dd2_value(b, a, RHO), abs=1e-12)


@given(probs, probs, st.sampled_from([0.1, 0.5, 0.9]))
@settings(max_examples=200, deadline=None)
def test_dd2_nonnegative(a, b, rho):
    assert dd2_value(a, b, DsbsParams(rho)) >= -1e-15


def test_batch_oracle_matches_closed_form():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 1.0, 300)
    b = rng.uniform(0.0, 1.0, 300)
    p_o, v_o = _dd2_oracle_batch(a, b, RHO)
    assert np.max(np.abs(p_star(a, b, RHO) - p_o)) <= 1e-9
    assert np.max(np.abs(dd2_value(a, b, RHO) - v_o)) <= 1e-9


def test_p_star_negative_discriminant_is_a_library_error():
    # k = -1 is not a valid cross ratio; at a = b = 1/2 it gives Delta = -1,
    # which must surface as a DsbsError, never as a bare AssertionError.
    broken = types.SimpleNamespace(k=-1.0)
    with pytest.raises(InconsistencyError, match="negative discriminant"):
        p_star(0.5, 0.5, broken)


def _dd2_mp(a, b, rho):
    """dd2 at exact mpf biases, with p* from the quadratic in working precision."""
    r = mpmath.mpf(rho)
    k = ((1 + r) / (1 - r)) ** 2
    t = (k - 1) * (a + b) + 1
    p = 2 * k * a * b / (t + mpmath.sqrt(t * t - 4 * k * (k - 1) * a * b))
    agree, differ = (1 + r) / 4, (1 - r) / 4
    cells = [(1 + p - a - b, agree), (b - p, differ), (a - p, differ), (p, agree)]
    return mpmath.fsum(c * mpmath.log(c / w) for c, w in cells if c) / mpmath.log(2)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_dd2_slope_against_mpmath(rho):
    # the bound the _dd2_slope docstring states, against 50-digit numerical
    # derivatives of dd2 (no envelope theorem): random points, b near 0 and
    # near 1 (the reflected psi slice), a at and near 1/2, a at and near 0
    params = DsbsParams(rho)
    rng = np.random.default_rng(17)
    points = list(zip(rng.uniform(0.0, 0.5, 20), rng.uniform(0.0, 1.0, 20)))
    points += [(a, b) for a in (0.1, 0.3, 0.5) for b in (1e-10, 1e-6, 1 - 1e-3, 1 - 1e-6)]
    points += [(0.5 - g, b) for g in (0.0, 1e-12, 1e-8, 1e-4) for b in (0.01, 0.3, 0.5, 0.7)]
    points += [(a, b) for a in (0.0, 1e-12) for b in (1e-8, 0.2, 0.9)]
    a = np.array([p[0] for p in points])
    b = np.array([p[1] for p in points])
    slope, curvature = _dd2_slope(a, b, params)
    q00, q01, _, _ = _cells(a, b, _p_star(a, b, params))
    for i, (ai, bi) in enumerate(points):
        with mpmath.workdps(50):
            f = lambda x: _dd2_mp(mpmath.mpf(ai), x, rho)  # noqa: E731
            d1 = mpmath.diff(f, mpmath.mpf(bi))
            d2 = mpmath.diff(f, mpmath.mpf(bi), 2)
        bound = 4e-15 / min(q00[i], q01[i])
        assert float(abs(slope[i] - d1)) <= bound, (ai, bi)
        assert float(abs((curvature[i] - d2) / d2)) <= bound, (ai, bi)


def test_dd2_slope_at_an_empty_cell_is_silent():
    # b = 0 empties q01 (and q11): log 0 and 1/0 must not warn, and the
    # slope is -inf; at a = 0, B = inf and the curvature is A / ln 2
    with np.errstate(all="raise"):
        slope, curvature = _dd2_slope(np.array([0.3, 0.0]), np.array([0.0, 0.2]), RHO)
    assert slope[0] == -math.inf
    assert curvature[1] == pytest.approx((1 / 0.8 + 1 / 0.2) / math.log(2.0), rel=1e-15)
