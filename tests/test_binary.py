"""Scalar binary machinery: entropy, divergence, the deficit inverse, convolution."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsbs_envelopes import (
    Coupling2x2,
    DsbsParams,
    InputDomainError,
    QParam,
    bconv,
    d2,
    d2_inv,
    h2,
    p_star,
    phi_q_full,
    phi_tilde_ab,
)
from dsbs_envelopes.binary import _prepare_prob, _xlogy
from dsbs_envelopes.mre import dd2_value

# Reference values computed with mpmath at mp.dps = 50.
H2_011 = 0.499915958164528
H2_03 = 0.88129089923069262
D2_03 = 0.11870910076930738
D2_INV_04 = 0.14610240341188702

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_h2_frozen_values():
    assert h2(0.11) == pytest.approx(H2_011, abs=1e-15)
    assert h2(0.3) == pytest.approx(H2_03, abs=1e-15)
    assert h2(0.5) == 1.0
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0


def test_d2_frozen_values():
    assert d2(0.3) == pytest.approx(D2_03, abs=1e-15)
    assert d2(0.5) == 0.0
    assert d2(0.0) == 1.0
    assert d2(1.0) == 1.0
    assert d2_inv(0.4) == pytest.approx(D2_INV_04, abs=1e-13)


@given(probs)
def test_h2_symmetric(a):
    assert h2(a) == pytest.approx(h2(1.0 - a), abs=1e-12)


@given(probs)
def test_d2_complement(a):
    assert d2(a) + h2(a) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=1e-9, max_value=0.4999))
@settings(max_examples=300)
def test_d2_inv_of_d2_round_trip(a):
    assert d2_inv(d2(a)) == pytest.approx(a, abs=1e-15)


@given(st.floats(min_value=0.4999, max_value=0.5))
def test_d2_inv_of_d2_round_trip_flat_top(a):
    # d2 is quadratically flat at 1/2, but it keeps its relative precision
    # there and d2_inv solves in x = 1 - 2a, so a comes back to rounding level
    assert d2_inv(d2(a)) == pytest.approx(a, abs=1e-15)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300)
def test_d2_inv_round_trip(s):
    a = d2_inv(s)
    assert 0.0 <= a <= 0.5
    assert d2(a) == pytest.approx(s, abs=1e-11)


def _d2_mp(a: float):
    """d2 at the exact float ``a`` in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a = mpmath.mpf(a)
        terms = (x * mpmath.log(2 * x) for x in (a, 1 - a) if x)
        return mpmath.fsum(terms) / mpmath.log(2)


def _per_decade(lo: int, hi: int, n: int, seed: int) -> np.ndarray:
    """``n`` log-uniform random points in each decade [10^k, 10^(k+1)), lo <= k < hi."""
    rng = np.random.default_rng(seed)
    return 10.0 ** np.concatenate([rng.uniform(k, k + 1, n) for k in range(lo, hi)])


def _d2_inv_mp(s: float):
    """The root a in [0, 1/2] of d2(a) = s, by Newton in x = 1 - 2a at 80 digits.

    For s <= 1/2 the seed sqrt(2 ln2 s) lies above the root (the deficit is
    convex in x and at least x^2/2 in nats); above 1/2 that seed can pass 1,
    so the iteration starts from the float answer.  Either way the root is
    accepted only with a residual below 1e-60 and a in [0, 1/2], where d2
    decreases, so it is the unique root whatever the seed.
    """
    with mpmath.workdps(80):
        nats = mpmath.mpf(s) * mpmath.log(2)
        x = mpmath.sqrt(2 * nats) if s <= 0.5 else 1 - 2 * mpmath.mpf(d2_inv(s))
        for _ in range(12):
            x -= (x * mpmath.atanh(x) + mpmath.log1p(-x * x) / 2 - nats) / mpmath.atanh(x)
        assert abs(x * mpmath.atanh(x) + mpmath.log1p(-x * x) / 2 - nats) <= 1e-60 * nats, s
        a = (1 - x) / 2
        assert 0 <= a <= 0.5, s
        return a


def test_d2_relative_precision_near_half():
    # the kernel in x = 1 - 2a keeps d2's relative precision as the deficit
    # vanishes like (1/2 - a)^2, on both sides of 1/2
    gaps = _per_decade(-16, 0, 30, seed=3)
    for a in np.concatenate([0.5 - np.minimum(gaps, 0.5), 0.5 + np.minimum(gaps, 0.5)]):
        if a != 0.5:
            ref = _d2_mp(a)
            assert float(abs((d2(a) - ref) / ref)) <= 1e-15, a


def test_d2_relative_precision_across_unit_interval():
    # the bound the d2 docstring states, on both forms: uniform points, the
    # switch at |1 - 2a| = 1/2, and the tails near 0 and 1
    rng = np.random.default_rng(9)
    tails = _per_decade(-300, 0, 1, seed=10)
    switch = [0.25, 0.75, np.nextafter(0.25, 0.0), np.nextafter(0.75, 1.0)]
    a = np.concatenate([rng.uniform(0.0, 1.0, 400), tails, 1.0 - tails[-16:], switch])
    for ai, got in zip(a, d2(a)):
        ref = _d2_mp(ai)
        assert float(abs((got - ref) / ref)) <= 1e-15, ai


def test_d2_inv_relative_precision():
    # the bound the d2_inv docstring states: s per decade from 1e-300 to 1,
    # and s = 1 - 10^k (k = -16..-1), where a -> 0 and 1 - s carries its digits
    s = np.concatenate([_per_decade(-300, 0, 1, seed=12), 1.0 - 10.0 ** np.arange(-16.0, 0.0)])
    for si, got in zip(s, d2_inv(s)):
        ref = _d2_inv_mp(si)
        assert float(abs((got - ref) / ref)) <= 1e-14, si


def test_d2_inv_absolute_precision():
    # backward error of the inverse, with d2 taken exactly at the returned a
    for s in np.concatenate([_per_decade(-16, 0, 30, seed=4), [1.0]]):
        a = d2_inv(s)
        assert float(abs(_d2_mp(a) - s)) <= 5e-16, s


def test_xlogy_relative_precision():
    # the bound the _xlogy docstring states, on the array path and on the
    # np.float64 path; x in [1e-200, 1], y across (0, 2), over 100 decades
    # and within 1e-15..1e-5 of 1
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(1e-3, 1.0, 200), _per_decade(-200, 0, 1, seed=6)])
    near_one = rng.choice([-1.0, 1.0], 100) * _per_decade(-15, -5, 10, seed=8)
    y = np.concatenate([rng.uniform(1e-3, 2.0, 200), _per_decade(-100, 0, 1, seed=7), 1.0 + near_one])
    for xi, yi, ai in zip(x, y, _xlogy(x, y)):
        with mpmath.workdps(50):
            ref = mpmath.mpf(xi) * mpmath.log(mpmath.mpf(yi))
            for got in (ai, _xlogy(xi, yi)):
                assert float(abs((got - ref) / ref)) <= 4.5e-16, (xi, yi, got)


def test_xlogy_zero_x_and_types():
    x = np.array([[0.0, 0.0], [0.0, 0.5]])
    y = np.array([[0.0, 0.3], [1.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _xlogy(x, y)
        scalars = [_xlogy(form(0.0), form(yi)) for form in (float, np.float64) for yi in (0.0, 0.3)]
    assert isinstance(out, np.ndarray) and out.shape == x.shape
    assert out is not x and out is not y
    assert np.all(out[x == 0.0] == 0.0)
    assert out[1, 1] == pytest.approx(0.5 * math.log(0.5), rel=4.5e-16)
    assert scalars == [0.0] * 4
    assert type(_xlogy(np.float64(0.3), np.float64(0.5))) is np.float64
    assert type(_xlogy(np.float64(0.0), np.float64(0.0))) is np.float64
    assert type(_xlogy(0.3, 0.5)) is float


def test_d2_inv_is_left_branch():
    # the inverse always lands in [0, 1/2], with exact endpoints
    assert d2_inv(0.0) == 0.5
    assert d2_inv(1.0) == 0.0
    assert d2_inv(d2(0.9)) == pytest.approx(0.1, abs=1e-15)


def test_h2_rejects_out_of_range():
    with pytest.raises(InputDomainError):
        h2(1.2)
    with pytest.raises(InputDomainError):
        d2_inv(1.01)
    with pytest.raises(InputDomainError):
        d2_inv(-0.01)


def test_d2_inv_input_forms():
    # one vectorized path: scalars go through it as 1-element arrays, so a
    # scalar and the same point inside an array agree bit for bit
    s = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-300, 0.5, np.nextafter(0.5, 1.0), 1.0 - 2.0**-53]])
    out = d2_inv(s)
    assert isinstance(out, np.ndarray) and out.shape == s.shape
    assert np.array_equal(out, [d2_inv(float(x)) for x in s])
    assert np.array_equal(d2_inv(s.reshape(3, 35)), out.reshape(3, 35))
    for x in (np.float64(0.3), np.asarray(0.3), 0.3, 1):
        assert type(d2_inv(x)) is float
    assert d2_inv(np.float64(0.3)) == d2_inv(np.asarray(0.3)) == out[30]
    empty = d2_inv(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_h2_vectorized():
    a = np.linspace(0.0, 1.0, 11)
    out = h2(a)
    assert out.shape == a.shape
    assert out[5] == 1.0


@given(probs, probs)
def test_bconv_range_and_symmetry(x, y):
    z = bconv(x, y)
    assert 0.0 <= z <= 1.0
    assert z == pytest.approx(bconv(y, x), abs=0.0)


def test_bconv_identity_elements():
    assert bconv(0.3, 0.0) == pytest.approx(0.3)
    assert bconv(0.3, 0.5) == pytest.approx(0.5)
    assert bconv(0.3, 1.0) == pytest.approx(0.7)


def test_dsbs_params_fields():
    params = DsbsParams(0.9)
    assert params.theta == pytest.approx((1 - 0.9) / (1 + 0.9), abs=1e-15)
    assert params.k == pytest.approx(((1 + 0.9) / (1 - 0.9)) ** 2, abs=1e-9)
    assert params.k * params.theta**2 == pytest.approx(1.0, abs=1e-12)
    assert params.crossover == pytest.approx(0.05, abs=1e-15)
    np.testing.assert_allclose(
        params.joint_cells(), [0.475, 0.025, 0.025, 0.475], atol=1e-15
    )


def test_dsbs_params_rejects_degenerate_rho():
    for rho in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InputDomainError):
            DsbsParams(rho)


def test_coupling_marginals_and_validation():
    q = Coupling2x2(0.4, 0.1, 0.2, 0.3)
    np.testing.assert_allclose(q.as_array(), [0.4, 0.1, 0.2, 0.3])
    with pytest.raises(InputDomainError):
        Coupling2x2(0.5, 0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# probability validation shared by every public function
# ---------------------------------------------------------------------------

FORMS = {
    "float": float,
    "np.float64": np.float64,
    "0-d": np.asarray,
    "1-D": lambda v: np.array([0.5, v]),
    "2-D": lambda v: np.array([[0.25, 0.5], [0.75, v]]),
}

REJECTED = [
    (math.nan, "a must be finite"),
    (math.inf, "a must be finite"),
    (-math.inf, "a must be finite"),
    (-1e-11, "a=-1e-11 lies outside [0, 1]"),
    (1.0 + 1e-11, "a=1.00000000001 lies outside [0, 1]"),
]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("value, message", REJECTED)
def test_prepare_prob_rejects(form, value, message):
    with pytest.raises(InputDomainError) as info:
        _prepare_prob(FORMS[form](value), "a")
    assert str(info.value) == message


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("value, expected", [(-1e-13, 0.0), (1.0 + 1e-13, 1.0), (0.3, 0.3), (-0.0, -0.0)])
def test_prepare_prob_clips_within_slack(form, value, expected):
    x = FORMS[form](value)
    out = _prepare_prob(x, "a")
    want = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    if np.ndim(x) == 0:
        assert type(out) is np.float64
    else:
        assert isinstance(out, np.ndarray) and out.shape == want.shape
        assert out is not x
    assert np.asarray(out).tobytes() == want.tobytes()  # bitwise, so -0.0 stays -0.0
    assert np.ravel(out)[-1] == expected


def test_prepare_prob_empty_and_integer_input():
    for shape in ((0,), (0, 3)):
        out = _prepare_prob(np.zeros(shape), "a")
        assert out.shape == shape and out.dtype == float
    assert type(_prepare_prob(1, "a")) is np.float64
    np.testing.assert_array_equal(_prepare_prob([0, 1], "a"), [0.0, 1.0])
    with pytest.raises(InputDomainError, match=r"^a=2\.0 lies outside"):
        _prepare_prob(2, "a")
    with pytest.raises(InputDomainError, match="must be finite"):
        _prepare_prob([[0.5, math.nan], [-5.0, 0.5]], "a")  # finiteness is checked first


@pytest.mark.parametrize(
    "bad", [math.nan, -1e-11, 1.0 + 1e-11, np.array([0.5, math.inf]), math.inf, -math.inf]
)
def test_public_functions_reject_bad_probability(bad):
    # a RuntimeWarning on the way fails the test too (filterwarnings in pyproject.toml)
    params = DsbsParams(0.9)
    for call in (
        lambda: d2(bad),
        lambda: d2_inv(bad),
        lambda: dd2_value(0.3, bad, params),
        lambda: dd2_value(bad, 0.3, params),
        lambda: p_star(bad, 0.3, params),
        lambda: p_star(0.3, bad, params),
        lambda: phi_tilde_ab(bad, 0.2, params),
        lambda: phi_q_full(bad, QParam.from_q(2.0), params),
    ):
        with pytest.raises(InputDomainError):
            call()


@pytest.mark.parametrize("form", ["float", "np.float64"])
@pytest.mark.parametrize("value, message", REJECTED)
def test_dataclass_validation_matches_prepare_prob(form, value, message):
    x = FORMS[form](value)
    with pytest.raises(InputDomainError) as info:
        Coupling2x2(0.25, 0.25, 0.25, x)
    assert str(info.value) == "q11" + message[1:]
    assert type(Coupling2x2(*map(FORMS[form], (0.4, 0.1, 0.2, 0.3))).q00) is float
