"""Minimum-divergence surface: closed-form minimizer vs brute-force oracle."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from dsbs_envelopes import Coupling2x2, DsbsParams, InconsistencyError, dd2, p_star
from dsbs_envelopes.mre import _dd2_oracle_batch, dd2_value

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
