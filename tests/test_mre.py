"""Minimum-divergence surface: closed-form minimizer vs brute-force oracle."""

import dataclasses
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from dsbs_envelopes import (
    Coupling2x2, DsbsParams, InconsistencyError, InputDomainError, bconv, d2, d2_inv, dd2, p_star, phi, phi_tilde,
    phi_tilde_ab, psi,
)
from dsbs_envelopes import envelopes
from dsbs_envelopes.binary import _mirror, _xlogy
from dsbs_envelopes.mre import _cells, _dd2_oracle_batch, _dd2_slope, _p_star, dd2_value

RHO = DsbsParams(0.9)
KL_UNIFORM_JOINT_09 = 1.1979643381655696  # = -log2(0.19)/2, computed with mpmath


def kl_joint(q: Coupling2x2, params: DsbsParams) -> float:
    """Relative entropy D(q || P) against the source joint matrix, in bits.

    The oracle for ``dd2``: the source matrix has full support, so the
    result is always finite.
    """
    qc = np.array(dataclasses.astuple(q))
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
# rho across (0, 1), with the high-correlation values where the unfolded
# discriminant cancels near a = b = 1
rhos = st.one_of(st.sampled_from([0.9999, 0.99999]), st.floats(min_value=1e-5, max_value=0.99999))


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


@given(probs, probs, rhos)
@settings(max_examples=500, deadline=None)
def test_p_star_feasible_and_stationary(a, b, rho):
    params = DsbsParams(rho)
    p = p_star(a, b, params)
    lo = max(0.0, a + b - 1.0)
    hi = min(a, b)
    assert lo - 1e-12 <= p <= hi + 1e-12
    # value at p_star never exceeds the endpoint couplings' divergences
    v = dd2_value(a, b, params)
    for endpoint in (lo, hi):
        cells = Coupling2x2(1.0 + endpoint - a - b, b - endpoint, a - endpoint, endpoint)
        assert v <= kl_joint(cells, params) + 1e-12


@given(probs, probs, rhos)
@settings(max_examples=200, deadline=None)
def test_dd2_symmetric_in_marginals(a, b, rho):
    params = DsbsParams(rho)
    assert dd2_value(a, b, params) == pytest.approx(dd2_value(b, a, params), abs=1e-12)


@pytest.mark.parametrize("rho", [1e-5, 0.5, 0.9, 0.999998])
def test_dd2_and_p_star_are_bitwise_symmetric(rho):
    # the kernel forms every symmetric quantity in a symmetric order, so
    # swapping the biases swaps q01 and q10 and nothing else: on random
    # biases (the fold region a + b > 1 among them), along the edges and at
    # 0-d input, on the source (k > 1) and on its mirror (k < 1)
    rng = np.random.default_rng(35)
    a, b = rng.uniform(0.0, 1.0, (2, 4000))
    a[:500], b[:500] = rng.uniform(0.0, 1e-6, (2, 500))  # near the b = 0, a = 0 edges
    edges = np.array([0.0, 1e-300, 1e-12, 0.25, 0.5, 0.5 + 1e-16, 0.75, 1.0 - 1e-16, 1.0])
    a = np.concatenate([a, np.repeat(edges, edges.size)])
    b = np.concatenate([b, np.tile(edges, edges.size)])
    assert (a + b > 1.0).sum() > 1000
    for source in (DsbsParams(rho), _mirror(DsbsParams(rho))):
        for fn in (dd2_value, p_star):
            assert fn(a, b, source).tobytes() == fn(b, a, source).tobytes(), fn.__name__
            assert fn(0.3, 0.1, source) == fn(0.1, 0.3, source), fn.__name__


@given(probs, probs, rhos)
@settings(max_examples=200, deadline=None)
def test_dd2_nonnegative(a, b, rho):
    assert dd2_value(a, b, DsbsParams(rho)) >= 0.0


@pytest.mark.parametrize("rho", [1e-4, 0.3, 0.5, 0.9, 0.99, 0.9999, 0.999998])
def test_dd2_is_not_negative_where_it_is_zero(rho):
    # At a = b = 1/2 (s = t = 0) the source itself has the marginals, so
    # dd2 is exactly 0 there, on the source and on its mirror, and so is the
    # s = 0 entry of phi_q for q = 2 and q = -2 (its t = 0 end).  Unclipped,
    # the rounding of the KL sum took each to about -1e-16.
    params = DsbsParams(rho)
    values = [dd2_value(0.5, 0.5, params), envelopes.phi(0.0, 0.0, params), envelopes.psi(0.0, 0.0, params)]
    values += list(envelopes._q_opt(np.linspace(0.0, 1.0, 101), (2.0, -2.0), params, kind="phi")[0][:, 0])
    assert min(values) >= 0.0, values


@given(st.floats(min_value=0.5, max_value=1.0), probs, rhos)
@settings(max_examples=300, deadline=None)
def test_dd2_invariant_under_flipping_both_bits(a, b, rho):
    # the source is invariant under (X, Y) -> (1-X, 1-Y): dd2(a, b) =
    # dd2(1-a, 1-b) and p*(a, b) = a + b - 1 + p*(1-a, 1-b); 1 - a is exact
    # for a >= 1/2, so the two sides see the same biases
    params = DsbsParams(rho)
    v, v_flip = dd2_value(a, b, params), dd2_value(1.0 - a, 1.0 - b, params)
    assert v == pytest.approx(v_flip, rel=1e-13, abs=1e-15)
    p, p_flip = p_star(a, b, params), p_star(1.0 - a, 1.0 - b, params)
    assert p == pytest.approx(a + b - 1.0 + p_flip, rel=1e-13, abs=1e-15)
    res = dd2(a, b, params)
    assert (res.value, res.p_star) == (v, p)
    q = res.coupling
    assert q.q10 + q.q11 == pytest.approx(a, abs=1e-12)
    assert q.q01 + q.q11 == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("rho", [0.9, 0.999, 0.9999, 0.99999])
def test_dd2_near_both_ones_against_mpmath(rho):
    # 1 - a and 1 - b in [1e-13, 1e-1]: unfolded, the discriminant there was
    # formed from two terms of about 4k^2 and went negative on valid input
    params = DsbsParams(rho)
    rng = np.random.default_rng(17)
    a = 1.0 - 10.0 ** rng.uniform(-13.0, -1.0, 60)
    b = 1.0 - 10.0 ** rng.uniform(-13.0, -1.0, 60)
    got = dd2_value(a, b, params)
    with mpmath.workdps(60):
        for i in range(a.size):
            ref = _dd2_mp(mpmath.mpf(a[i]), mpmath.mpf(b[i]), rho)
            assert abs(got[i] - float(ref)) <= 4e-15 * float(ref), (a[i], b[i])
        # at b = 1 the segment is the one coupling (0, 1 - a, 0, a)
        a_mp, r = mpmath.mpf(1 - 1e-9), mpmath.mpf(0.9999)
        ref = ((1 - a_mp) * mpmath.log(4 * (1 - a_mp) / (1 - r)) + a_mp * mpmath.log(4 * a_mp / (1 + r))) / mpmath.log(2)
    assert dd2_value(1 - 1e-9, 1.0, DsbsParams(0.9999)) == pytest.approx(float(ref), rel=4e-15)


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
    # p_star takes only a DsbsParams, so this one is built past its checks
    broken = object.__new__(DsbsParams)
    object.__setattr__(broken, "k", -1.0)
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


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.99, 0.9999, 0.99999, 0.999998])
def test_dd2_slope_against_mpmath(rho):
    # the bound the _dd2_slope docstring states, against 50-digit numerical
    # derivatives of dd2 (no envelope theorem): random points, b near 0 and
    # near 1, a at and near 1/2, a at and near 0, and b at and near a, where
    # the terms of a plain discriminant T^2 - 4k(k-1)ab cancel at high rho
    params = DsbsParams(rho)
    rng = np.random.default_rng(17)
    points = list(zip(rng.uniform(0.0, 0.5, 20), rng.uniform(0.0, 1.0, 20)))
    points += [(a, b) for a in (0.1, 0.3, 0.5) for b in (1e-10, 1e-6, 1 - 1e-3, 1 - 1e-6)]
    points += [(0.5 - g, b) for g in (0.0, 1e-12, 1e-8, 1e-4) for b in (0.01, 0.3, 0.5, 0.7)]
    points += [(a, b) for a in (0.0, 1e-12) for b in (1e-8, 0.2, 0.9)]
    points += [(a, a + d) for a in (0.005, 0.05, 0.3, 0.46) for d in (0.0, -1e-9, 1e-6, 1e-3)]
    a = np.array([p[0] for p in points])
    b = np.array([p[1] for p in points])
    slope, curvature = _dd2_slope(a, b, params)
    q00 = _cells(a, b, _p_star(a, b, params))[0]
    for i, (ai, bi) in enumerate(points):
        with mpmath.workdps(50):
            f = lambda x: _dd2_mp(mpmath.mpf(ai), x, rho)  # noqa: E731
            d1 = mpmath.diff(f, mpmath.mpf(bi))
            d2 = mpmath.diff(f, mpmath.mpf(bi), 2)
        bound = 4e-15 * (1.0 + 1.0 / q00[i])  # the docstring's scale
        assert float(abs(slope[i] - d1)) <= bound, (ai, bi)
        assert float(abs((curvature[i] - d2) / d2)) <= bound, (ai, bi)


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.9999, 0.999998])
def test_mirrored_dd2_slope_against_mpmath(rho):
    # psi's source keeps q01 = b - p*: on biases up to 1/2, b at and near a
    # included, its slope and curvature meet the docstring's bound too
    params = _mirror(DsbsParams(rho))
    rng = np.random.default_rng(3)
    points = list(zip(rng.uniform(0.0, 0.5, 20), rng.uniform(0.0, 0.5, 20)))
    points += [(a, a + d) for a in (0.005, 0.05, 0.3, 0.46) for d in (0.0, 1e-6, 1e-3)]
    points += [(a, b) for a in (0.1, 0.3, 0.49) for b in (1e-10, 1e-6, 0.5 - 1e-9)]
    a = np.array([p[0] for p in points])
    b = np.array([p[1] for p in points])
    slope, curvature = _dd2_slope(a, b, params)
    q00 = _cells(a, b, _p_star(a, b, params))[0]
    for i, (ai, bi) in enumerate(points):
        with mpmath.workdps(50):
            f = lambda x: _dd2_mp(mpmath.mpf(ai), x, -rho)  # noqa: E731
            d1 = mpmath.diff(f, mpmath.mpf(bi))
            d2 = mpmath.diff(f, mpmath.mpf(bi), 2)
        bound = 4e-15 * (1.0 + 1.0 / q00[i])
        assert float(abs(slope[i] - d1)) <= bound, (ai, bi)
        assert float(abs((curvature[i] - d2) / d2)) <= bound, (ai, bi)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_psi_and_its_b_slope_against_mpmath_as_b_nears_0(rho):
    # psi(a, b) = dd2(a, 1 - b), with 1 - b formed exactly in 50 digits; the
    # library reads it, and its slope in b, off the mirrored source at b
    params = DsbsParams(rho)
    points = [(0.3, 1e-6), (0.3, 1e-9), (0.01, 1e-7), (0.45, 2e-4)]
    s = np.array([d2(p[0]) for p in points])
    t = np.array([d2(p[1]) for p in points])
    a, b = np.asarray(d2_inv(s)), np.asarray(d2_inv(t))  # the biases psi works at
    values = envelopes.psi(s, t, params)
    slope, curvature = _dd2_slope(a, b, _mirror(params))
    for i in range(len(points)):
        with mpmath.workdps(50):
            f = lambda x: _dd2_mp(mpmath.mpf(a[i]), 1 - x, rho)  # noqa: E731
            ref = f(mpmath.mpf(b[i]))
            d1 = mpmath.diff(f, mpmath.mpf(b[i]))
            d2_ref = mpmath.diff(f, mpmath.mpf(b[i]), 2)
        assert float(abs(values[i] - ref)) <= 1e-14, points[i]
        assert float(abs(slope[i] - d1)) <= 1e-14, points[i]
        assert float(abs((curvature[i] - d2_ref) / d2_ref)) <= 1e-14, points[i]


def test_dd2_slope_at_an_empty_cell_is_silent():
    # b = 0 empties q01 (and q11): log 0 and 1/0 must not warn, and the
    # slope is -inf; at a = 0, B = inf and the curvature is A / ln 2
    with np.errstate(all="raise"):
        slope, curvature = _dd2_slope(np.array([0.3, 0.0]), np.array([0.0, 0.2]), RHO)
    assert slope[0] == -math.inf
    assert curvature[1] == pytest.approx((1 / 0.8 + 1 / 0.2) / math.log(2.0), rel=1e-15)
    # 0-d biases give the 1-element values
    slope_0d, curvature_0d = _dd2_slope(np.float64(0.0), np.float64(0.2), RHO)
    assert np.ndim(slope_0d) == np.ndim(curvature_0d) == 0
    assert (slope_0d, curvature_0d) == (slope[1], curvature[1])


@pytest.mark.parametrize("rho", [1.0001e-6, 1e-4, 0.5, 0.9, 0.9999, 0.999998])
def test_dd2_slope_at_a_near_empty_cell_is_silent(rho):
    # a subnormal a leaves q10 or q11 subnormal, and its reciprocal overflows
    # to inf; the curvature then takes its a = 0 form, and nothing may warn
    b = float(d2_inv(0.2))
    points = [(5e-324, b, source) for source in (DsbsParams(rho), _mirror(DsbsParams(rho)))]
    if rho == 0.9999:
        points.append((b, 1e-300, _mirror(DsbsParams(rho))))  # q11 = p* is subnormal here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b_, source in points:
            slope, curvature = _dd2_slope(a, b_, source)
            assert math.isfinite(slope) and math.isfinite(curvature), (a, b_, source.rho)


@pytest.mark.parametrize("rho", [1e-4, 0.5, 0.9, 0.999998])
def test_dd2_slope_without_curvature_is_the_same_slope(rho):
    # the slope-only call skips the curvature's cells, not the slope's:
    # bit for bit the pair's first entry, on the source and its mirror,
    # empty cells (b = 0, a = 0) and 0-d biases included
    a = np.concatenate([[0.0, 0.3, 0.5], np.linspace(0.0, 0.5, 41)])[:, None]
    b = np.concatenate([[0.0, 0.2, 0.5], np.linspace(0.0, 0.5, 37)])[None, :]
    for source in (DsbsParams(rho), _mirror(DsbsParams(rho))):
        with np.errstate(all="raise"):
            alone = _dd2_slope(a, b, source, curvature=False)
            pair = _dd2_slope(a, b, source)[0]
        np.testing.assert_array_equal(alone, pair)
        assert _dd2_slope(np.float64(0.3), np.float64(0.2), source, curvature=False) == pair[1, 1]


_TWO_INPUT = {
    "bconv": bconv,
    "p_star": functools.partial(p_star, params=RHO),
    "dd2_value": functools.partial(dd2_value, params=RHO),
    "phi": functools.partial(phi, params=RHO),
    "psi": functools.partial(psi, params=RHO),
    "phi_tilde": functools.partial(phi_tilde, params=RHO),
    "phi_tilde_ab": functools.partial(phi_tilde_ab, params=RHO),
}


@pytest.mark.parametrize("name", _TWO_INPUT)
def test_shapes_that_do_not_broadcast_are_input_errors(name):
    # every public evaluator of two array inputs fails closed, not with
    # numpy's bare ValueError
    with pytest.raises(InputDomainError, match=r"must broadcast together, got shapes \(3,\) and \(4,\)"):
        _TWO_INPUT[name](np.full(3, 0.2), np.full(4, 0.3))


@pytest.mark.parametrize(
    "a, b", [(np.array([0.3, 0.2]), 0.4), (0.3, np.array([0.4, 0.2])), (np.array([0.3]), np.array([0.4]))]
)
def test_dd2_refuses_array_biases(a, b):
    # dd2 returns one witness coupling, so it takes one pair of biases; the
    # message names the array entry points instead of numpy's bare TypeError
    with pytest.raises(InputDomainError, match="use dd2_value or p_star"):
        dd2(a, b, RHO)


# ---------------------------------------------------------------------------
# the in-place kernel against the allocating composition it replaced
# ---------------------------------------------------------------------------


def _reference_p_star(av, bv, params):
    """p* computed with one fresh array per operation, in the kernel's order."""
    k = params.k
    t = (k - 1.0) * (av + bv) + 1.0
    if k > 1.0:
        d = (av - bv) * (k - 1.0)
        delta = d * d + (av * bv * -2.0 + (av + bv)) * (2.0 * (k - 1.0)) + 1.0
    else:
        delta = t * t - av * bv * (4.0 * k * (k - 1.0))
    p = av * bv * (2.0 * k) / (t + np.sqrt(np.maximum(delta, 0.0)))
    return np.clip(p, np.maximum(0.0, av + bv - 1.0), np.minimum(av, bv))


def _reference_dd2(av, bv, params):
    """dd2 as the cells-then-KL composition clipped at 0, one fresh array per operation."""
    p = _reference_p_star(av, bv, params)
    agree = 0.25 * (1.0 + params.rho)
    differ = 0.25 * (1.0 - params.rho)
    q00 = np.maximum((p + 1.0) - (av + bv), 0.0)
    q01 = np.maximum(bv - p, 0.0)
    q10 = np.maximum(av - p, 0.0)
    q11 = np.maximum(p, 0.0)
    total = (
        (_xlogy(q01, q01 / differ) + _xlogy(q10, q10 / differ))
        + _xlogy(q00, q00 / agree)
        + _xlogy(q11, q11 / agree)
    )
    return np.maximum(total / math.log(2.0), 0.0)


def _folded_reference(av, bv, params):
    """dd2 and p* by the references, at (1 - a, 1 - b) where a + b > 1.

    The public functions fold there (both bits flipped), and p* unfolds as
    a + b - 1 + p*(1 - a, 1 - b).
    """
    flip = av + bv > 1.0
    fa, fb = np.where(flip, 1.0 - av, av), np.where(flip, 1.0 - bv, bv)
    p = _reference_p_star(fa, fb, params)
    return _reference_dd2(fa, fb, params), np.where(flip, av + bv - 1.0 + p, p)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rho", [1e-5, 0.5, 0.9, 0.99999])
def test_kernel_matches_the_reference_composition_bit_for_bit(monkeypatch, rho):
    # Biases a in [0, 1/2] from d2_inv (both ends included) against b on the
    # source (phi) and on its mirror (psi), and against 1 - b on the source,
    # so b = 0 and b = 1 empty cells.
    params = DsbsParams(rho)
    mirror = _mirror(params)
    s_axis, t_axis = np.linspace(0.0, 1.0, 23), np.linspace(0.0, 1.0, 37)
    a_axis, b_axis = np.asarray(d2_inv(s_axis)), np.asarray(d2_inv(t_axis))
    # a -0.0 bias reaches the kernel unchanged, and p* keeps numpy's sign of zero
    edges = (-0.0, 0.0, 0.3, 1.0)
    for name, bs, source in (("phi", b_axis, params), ("psi", b_axis, mirror), ("1 - b", 1.0 - b_axis, params)):
        pairs = [(a_axis[i : i + 1], bs[j : j + 1]) for i, j in ((0, 0), (5, 36), (22, 17))]
        pairs += [(a_axis, bs[: a_axis.size]), (a_axis[3], bs), (a_axis, bs[7])]
        pairs += [(a_axis[:, None], bs[None, :]), (a_axis[None, :], bs[:, None])]
        pairs.append((np.array(edges)[:, None], np.array(edges)[None, :]))
        for a, b in pairs:
            want_v, want_p = _folded_reference(a, b, source)
            assert _same_bits(dd2_value(a, b, source), want_v), name
            assert _same_bits(p_star(a, b, source), want_p), name
        # 0-d biases, signed zeros included, take the array path: a float
        # equal to the 1-element array's value bit for bit
        scalars = [(x, y) for x in a_axis[::4] for y in bs[::6]] + [(x, y) for x in edges for y in edges]
        for x, y in scalars:
            x, y = np.float64(x), np.float64(y)
            for fn in (dd2_value, p_star):
                got = fn(x, y, source)
                assert type(got) is float, name
                assert _same_bits(got, fn(np.array([x]), np.array([y]), source)[0]), (name, fn.__name__)
    # The grid evaluators in row chunks of 3 (the last chunk has 2 rows) and
    # in one chunk give the whole-table values.
    for budget in (3 * t_axis.size, envelopes._BLOCK_ELEMS):
        monkeypatch.setattr(envelopes, "_BLOCK_ELEMS", budget)
        for grid, source in ((envelopes.phi_grid, params), (envelopes.psi_grid, mirror)):
            want = _reference_dd2(a_axis[:, None], b_axis[None, :], source)
            assert _same_bits(grid(s_axis, t_axis, params), want), (grid.__name__, budget)


@pytest.mark.parametrize("rho", [1e-5, 0.5, 0.9, 0.99999])
def test_psi_grid_matches_the_reflected_composition(rho):
    # the oracle for psi as the mirror's phi: the composition at (a, 1 - b)
    # on the source itself, which rounds b's digits away in 1 - b.  Within
    # 4e-15, relative above 1 (measured at most 3.6e-15 absolute at rho 0.9
    # and 2.6e-15 relative at rho 0.99999, whose values reach 18.6)
    params = DsbsParams(rho)
    axis = np.linspace(0.0, 1.0, 201)
    a = np.asarray(d2_inv(axis))
    want = _reference_dd2(a[:, None], 1.0 - a[None, :], params)
    gap = np.abs(envelopes.psi_grid(axis, axis, params) - want)
    assert np.all(gap <= 4e-15 * np.maximum(1.0, want))
