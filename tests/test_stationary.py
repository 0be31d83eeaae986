"""Stationarity machinery: root equation, reconstruction, saddle extrema."""

import dataclasses
import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsbs_envelopes import (
    DsbsParams,
    InputDomainError,
    NoRootError,
    QParam,
    RootProblem,
    aux_phi_h,
    count_roots_scan,
    d2,
    gamma_extremum,
    hypercontractive_regime,
    phi_tilde_ab,
    psi,
    solve_root_z,
    stationary_point,
)
from dsbs_envelopes import stationary
from dsbs_envelopes.mre import dd2_value
from dsbs_envelopes.stationary import (
    _EPS,
    _F_PAD,
    _FAILURES,
    _SCAN_BLOCK,
    _aux_terms,
    _gamma_extrema,
    _log_w_of_h,
    _scan_cuts,
    _scan_points,
    _scan_sign_changes,
    _solve_roots,
    _w_prime,
)
from dsbs_envelopes.verify import _H_FORWARD, _H_GAMMA_N, _H_REVERSE
from test_binary import _typed_fields

RHO = DsbsParams(0.9)
THETA_09 = (1 - 0.9) / (1 + 0.9)  # = 1/19

# Frozen solver outputs (this library, cross-checked against a 1e6-point
# sign-change scan and residuals at 1e-15).
AUX_AT_HALF = 0.29634302886053077
Z_STAR = 14.985902196432242
FWD_ST = (0.9589631942989528, 0.982093932259677)
REV_ST = (0.22697606134580398, 0.6532392236178111)
MIX_ST = (0.7428527325754773, 0.39222494944380953)


def test_root_problem_validation():
    RootProblem(0.3, 2.0, 0.2)  # fine
    with pytest.raises(InputDomainError):
        RootProblem(0.0, 2.0, 0.2)
    with pytest.raises(InputDomainError, match="outside"):
        RootProblem(1e-310, 3.0, 0.5)  # subnormal: W's log1p argument overflows
    with pytest.raises(InputDomainError):
        RootProblem(1.0, 2.0, 0.2)
    with pytest.raises(InputDomainError):
        RootProblem(0.3, 1.0, 0.2)  # |v| must exceed 1
    with pytest.raises(InputDomainError):
        RootProblem(0.3, 2.0, 0.0)
    with pytest.raises(InputDomainError):
        # r beyond rho^2 has no root by construction
        RootProblem(0.3, 2.0, 0.9)


def test_root_problem_accepts_numpy_scalars():
    for theta, v, r in ((np.float32(0.3), 2.0, 0.2), (0.3, np.int64(-3), np.float16(0.1))):
        prob = RootProblem(theta, v, r)
        assert _typed_fields(prob) == _typed_fields(RootProblem(float(theta), float(v), float(r)))


def test_aux_phi_frozen_value():
    prob = RootProblem(THETA_09, 2.0, 0.5)
    assert aux_phi_h(0.0, prob) == 0.0  # exact by construction
    assert aux_phi_h(0.5, prob) == pytest.approx(AUX_AT_HALF, abs=1e-14)


def test_aux_phi_h_domain():
    # h = +inf gives the limit -inf (v > 0); a negative or NaN h, alone or in an array, raises
    prob = RootProblem(0.3, 2.0, 0.2)
    assert aux_phi_h(math.inf, prob) == -math.inf
    for h in (-0.1, math.nan, np.array([0.1, math.nan]), np.array([0.1, -1.0])):
        with pytest.raises(InputDomainError, match="h >= 0"):
            aux_phi_h(h, prob)


def _random_root_problems(seed, k, v_max=50.0):
    """Problems drawn the way claim U draws them, |v| up to v_max."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(k):
        theta = rng.uniform(0.02, 0.9)
        v = math.copysign(math.exp(rng.uniform(math.log(1.05), math.log(v_max))), rng.choice([-1.0, 1.0]))
        rho = (1.0 - theta) / (1.0 + theta)
        problems.append(RootProblem(theta, v, rho * rho * rng.uniform(0.05, 0.95)))
    return problems


def _aux_mp(h, prob):
    """W(v*W(h)) - r*v*h at 50 digits, from the float inputs taken exactly."""
    theta, v = mpmath.mpf(prob.theta), mpmath.mpf(prob.v)

    def w(x):
        return mpmath.log((mpmath.exp(x) + theta) / (1 + theta * mpmath.exp(x)))

    h = mpmath.mpf(h)
    return w(v * w(h)) - mpmath.mpf(prob.r) * v * h


def test_aux_phi_h_matches_mpmath():
    rng = np.random.default_rng(2024)
    with mpmath.workdps(50):
        for prob in _random_root_problems(11, 40, v_max=1000.0):
            for h in (1e-8, 1e-3, rng.uniform(0.0, 3.0), rng.uniform(3.0, 50.0), 1e3, 1e4):
                err = abs(aux_phi_h(h, prob) - float(_aux_mp(h, prob)))
                assert err <= 1e-15 * abs(prob.v) * (1.0 + h), (prob, h, err)


def test_log_w_of_h_matches_mpmath():
    # W(h) = ln w(e^h) at 50 digits: relative error at rounding level for
    # tiny |h| (where -log(eta) cancels) and for saturating large |h|
    with mpmath.workdps(50):
        for theta in (1e-20, 1e-15, 1e-8, 0.02, THETA_09, 0.3, 0.9):
            t = mpmath.mpf(theta)
            for h in (1e-12, 1e-10, 1e-8, 1e-5, 1e-3, 0.5, 3.0, 40.0, 1e3, 1e5):
                for x in (h, -h):
                    e = mpmath.exp(mpmath.mpf(x))
                    ref = float(mpmath.log((e + t) / (1 + t * e)))
                    got = float(_log_w_of_h(x, theta))
                    assert abs(got - ref) <= 2e-15 * abs(ref), (theta, x, got, ref)


def test_count_roots_scan_near_rho_squared():
    # r within 1e-8..1e-12 (relative) below rho^2: the signal v*h*(rho^2 - r)
    # near h = 1e-8 is far below W(h) itself, so W must keep full relative
    # precision there for the scan to see the single root
    theta = 0.3
    rho_sq = ((1 - theta) / (1 + theta)) ** 2
    for v in (2.0, -5.0, 40.0):
        for gap in (1e-8, 1e-10, 1e-12):
            assert count_roots_scan(RootProblem(theta, v, rho_sq * (1 - gap))) == 1, (v, gap)


def _h0(prob):
    """The bend point of one problem, as `_solve_roots` reports it (NaN if none)."""
    return float(_solve_roots([prob.theta], [prob.v], [prob.r])[0][0])


def test_h0_threshold_and_root():
    prob = RootProblem(THETA_09, 2.0, 0.5)
    h0 = _h0(prob)
    assert h0 > 0.0
    z = solve_root_z(prob)
    assert z == pytest.approx(Z_STAR, rel=1e-12)
    assert math.log(z) > h0
    assert abs(aux_phi_h(math.log(z), prob)) <= 1e-12
    assert count_roots_scan(prob, 100_000) == 1


def test_smallest_normal_theta_solves():
    # W saturates at ln(1/theta) = 708.4, so the root sits just below
    # ln(1/theta)/(r*v) = 472.3; RuntimeWarnings are errors under this suite
    prob = RootProblem(sys.float_info.min, 3.0, 0.5)
    h = math.log(solve_root_z(prob))
    assert h == pytest.approx(math.log(1.0 / sys.float_info.min) / 1.5, rel=1e-3)
    assert abs(aux_phi_h(h, prob)) <= 1e-12


def test_no_root_at_regime_boundary():
    # r = rho^2 exactly: the root merges into h = 0, and the solve refuses
    prob = RootProblem(0.3, 2.0, ((1 - 0.3) / (1 + 0.3)) ** 2)
    with pytest.raises(NoRootError):
        solve_root_z(prob)


def _h0_eta_oracle(prob):
    """The bend point through the eta-substitution eta = 1/w(e^h), at 25 digits.

    g(h) = 0 reads r*(eta^|v| + eta^-|v|) + eta + 1/eta = (1-r)*(theta +
    1/theta) for eta0 in (theta, 1).  In u = ln eta the left side is
    L(u) = 2r*cosh(|v|u) + 2*cosh(u), decreasing on (ln theta, 0), and
    ln L is convex there (a log-sum-exp of lines in u), so Newton on
    ln L(u) - ln((1-r)*(theta + 1/theta)) from u = ln theta, where it is
    positive, climbs to the root without overshoot.  In the log the steep
    r*eta^-|v| side is nearly a line, which Newton crosses in one step; on
    L itself it takes about one step per unit of |v|*|u|.  The root maps
    back through h0 = ln((1 - eta0*theta)/(eta0 - theta)).
    """
    with mpmath.workdps(25):
        theta, v, r = mpmath.mpf(prob.theta), abs(mpmath.mpf(prob.v)), mpmath.mpf(prob.r)
        log_target = mpmath.log((1 - r) * (theta + 1 / theta))
        u = mpmath.log(theta)
        for _ in range(50):
            lhs = 2 * r * mpmath.cosh(v * u) + 2 * mpmath.cosh(u)
            slope = 2 * r * v * mpmath.sinh(v * u) + 2 * mpmath.sinh(u)
            step = (log_target - mpmath.log(lhs)) * lhs / slope  # >= 0 up to rounding
            u += step
            if not step > mpmath.mpf(10) ** -22 * abs(u):
                break
        else:
            raise AssertionError(f"no convergence for {prob}")
        eta0 = mpmath.exp(u)
        return float(mpmath.log((1 - eta0 * theta) / (eta0 - theta)))


def test_h0_matches_eta_equation_oracle():
    for prob in _random_root_problems(21, 200):
        h0 = _h0(prob)
        assert h0 == pytest.approx(_h0_eta_oracle(prob), rel=1e-12, abs=0.0), prob
        _, g, pad = _aux_terms(np.array([h0]), prob)
        assert abs(g[0]) <= pad[0], prob  # h0 is g's zero within its pad


def _w_derivs_mp(x, theta):
    """W'(x) and W''(x) at 50 digits, in closed form: W' = (1-theta^2)/c with
    c = 1+theta^2+2*theta*cosh x, and W'' = -2*theta*(1-theta^2)*sinh(x)/c^2."""
    c = 1 + theta * theta + 2 * theta * mpmath.cosh(x)
    return (1 - theta * theta) / c, -2 * theta * (1 - theta * theta) * mpmath.sinh(x) / (c * c)


def test_w_second_and_slope_prime_match_mpmath():
    # the Newton slope of the bend-point solve, against closed-form
    # derivatives at 50 digits (mpmath.diff is noisy near x = 0)
    rng = np.random.default_rng(8)
    problems = _random_root_problems(14, 30, v_max=1000.0)
    with mpmath.workdps(50):
        for theta in (1e-8, 0.02, THETA_09, 0.3, 0.9):
            t = mpmath.mpf(theta)
            for x in (1e-12, 1e-6, 1e-3, 0.5, 3.0, 40.0, 600.0):
                for xs in (x, -x):
                    ref = float(_w_derivs_mp(mpmath.mpf(xs), t)[1])
                    got = _w_prime(xs, math.exp(-x), theta, second=True)[1]
                    assert abs(got - ref) <= 4e-15 * abs(ref), (theta, xs)
        for prob in problems:
            t, v = mpmath.mpf(prob.theta), abs(mpmath.mpf(prob.v))
            for h in (1e-8, 1e-5, rng.uniform(0.0, 1.0), rng.uniform(1.0, 30.0), 1e3):
                hm = mpmath.mpf(h)
                w_h, w2_h = _w_derivs_mp(hm, t)
                x = v * mpmath.log((mpmath.exp(hm) + t) / (1 + t * mpmath.exp(hm)))
                w_x, w2_x = _w_derivs_mp(x, t)
                ref = float(w2_x * v * w_h * w_h + w_x * w2_h)
                got = _aux_terms(np.array([h]), prob, prime=True)[3][0]
                assert got <= 0.0
                assert abs(got - ref) <= 1e-14 * (1.0 + float(x)) * abs(ref), (prob, h, got, ref)


def _mixed_batch():
    """200 problems, claim-U-style, with failing rows mixed in."""
    rows = [(p.theta, p.v, p.r) for p in _random_root_problems(22, 180)]
    for i, (theta, v) in enumerate([(0.1, 1.05), (0.02, 1.5), (0.3, 2.0), (0.5, 50.0)] * 5):
        rho_sq = ((1 - theta) / (1 + theta)) ** 2
        # r = rho^2 (no bend point), and a root far beyond h = 1e4
        rows.insert(9 * i + 3, (theta, v, rho_sq) if i % 2 else (theta, v, 1e-6 * rho_sq))
    return rows


def test_batched_solve_equals_one_row_solves():
    rows = _mixed_batch()
    h0, h, reason = _solve_roots(*zip(*rows))
    assert len(rows) == 200 and 0 < sum(map(bool, reason)) < 200
    for i, row in enumerate(rows):
        one_h0, one_h, (one_reason,) = _solve_roots(*([x] for x in row))
        assert one_reason == reason[i]
        assert np.array_equal([one_h0[0], one_h[0]], [h0[i], h[i]], equal_nan=True), row


@pytest.mark.parametrize("theta, v", [(0.1, 1.05), (0.02, 1.5), (0.3, 2.0), (0.5, 50.0)])
def test_no_bend_point_at_rho_squared(theta, v):
    # at r = rho^2 exactly g(0) = rho^2 - r is within its pad of 0: no bend
    # point and no root, where an eta-equation bisection reported a root
    # near h = 1e-7 for the first two
    rho = (1 - theta) / (1 + theta)
    prob = RootProblem(theta, v, rho * rho)
    h0, _, (reason,) = _solve_roots([theta], [v], [rho * rho])
    assert math.isnan(h0[0]) and reason.startswith("no bend point")
    with pytest.raises(NoRootError, match="no bend point"):
        solve_root_z(prob)
    # just inside the regime the root still solves, past the bend point
    prob = RootProblem(theta, v, rho * rho * (1 - 1e-12))
    h = math.log(solve_root_z(prob))
    assert h > _h0(prob)
    assert abs(aux_phi_h(h, prob)) <= 1e-10


def test_root_beyond_search_range_raises():
    # r*v small enough that W(v*W(h)) saturates before the root: the root
    # sits near ln(1/theta)/(r*v) = 6e4, past the last point searched
    prob = RootProblem(0.3, 2.0, 1e-5)
    assert _h0(prob) > 0.0
    with pytest.raises(NoRootError, match="up to h = 1e4"):
        solve_root_z(prob)


def test_count_roots_scan_guards_resolution():
    prob = RootProblem(THETA_09, 2.0, 0.5)
    with pytest.raises(InputDomainError):
        count_roots_scan(prob, 10_000)
    # and from above
    with pytest.raises(InputDomainError, match="1e6"):
        count_roots_scan(prob, 1_000_001)


# The brute-force oracle of count_roots_scan: the signs of aux_phi_h on every
# point of one cached, read-only grid, evaluated in chunks of 2^14 points and
# carrying the last nonzero sign across chunk edges.  aux_phi_h is looked up
# on the module at call time, so a test can plant values in it.
_SCAN_CHUNK = 1 << 14


@functools.lru_cache(maxsize=3)
def _scan_grid(n):
    h = np.geomspace(1e-8, 1e4, n)
    h.flags.writeable = False
    return h


def _brute_force_count(prob, n=1_000_000):
    h = _scan_grid(n)
    count = 0
    last = 0.0  # last nonzero sign seen so far; 0 before the first
    for start in range(0, n, _SCAN_CHUNK):
        signs = np.sign(stationary.aux_phi_h(h[start : start + _SCAN_CHUNK], prob))
        signs = signs[signs != 0.0]
        if signs.size:
            count += int(np.count_nonzero(signs[1:] != signs[:-1]))
            count += int(last * signs[0] < 0.0)
            last = signs[-1]
    return count


def _brute_force_pairs(prob, n):
    """The oracle's sign changes as the (h, f) pairs `_scan_sign_changes` returns."""
    h = _scan_grid(n)
    f = np.concatenate([stationary.aux_phi_h(h[k : k + _SCAN_CHUNK], prob) for k in range(0, n, _SCAN_CHUNK)])
    h, f = h[f != 0.0], f[f != 0.0]
    at = np.flatnonzero(np.sign(f[1:]) != np.sign(f[:-1]))
    return np.stack([h[at], h[at + 1]]), np.stack([f[at], f[at + 1]])


# (theta, v) of the problems at r = rho^2*(1 - 1e-12), three sign changes at n = 1e6
_NEAR_RHO_SQUARED = [(0.1, 1.05), (0.1, -3.0), (0.5, 50.0), (0.9, -3.0), (0.9, 50.0)]


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_scan_sign_changes_are_the_whole_grid_pairs(n):
    # the roots command's noise note reads these pairs, not just their count
    near = [RootProblem(t, v, ((1 - t) / (1 + t)) ** 2 * (1 - 1e-12)) for t, v in _NEAR_RHO_SQUARED]
    for prob in _random_root_problems(n + 1, 3, v_max=1000.0) + near:
        got, want = _scan_sign_changes(prob, n), _brute_force_pairs(prob, n)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), prob


@pytest.mark.parametrize("n", [100_000, 100_001, 1_000_000])
def test_count_roots_scan_matches_whole_grid(n):
    for prob in _random_root_problems(n, 3):
        assert count_roots_scan(prob, n) == _brute_force_count(prob, n) == 1


# The root is built inside the grid cell that ends at index `cell`: two
# cells on an oracle chunk edge, and the last cell of the grid, which sits
# in a partial final chunk.  Index 2^14 itself lies below h = 1e-6 for every
# n the scan accepts; there r = W(v*W(h))/(v*h) is within rounding of rho^2
# and the sign of aux_phi_h is noise, so the edge cells are later ones.
@pytest.mark.parametrize(
    "n, cell", [(100_001, 4 * _SCAN_CHUNK), (1_000_000, 40 * _SCAN_CHUNK), (100_001, 100_000)]
)
@pytest.mark.parametrize("theta, v", [(0.3, 2.0), (THETA_09, -5.0), (0.05, 1000.0)])
def test_count_roots_scan_root_in_chosen_cell(n, cell, theta, v):
    grid = np.geomspace(1e-8, 1e4, n)
    h_b = math.sqrt(grid[cell - 1] * grid[cell])
    r = float(_log_w_of_h(v * float(_log_w_of_h(h_b, theta)), theta)) / (v * h_b)
    prob = RootProblem(theta, v, r)
    left, right = aux_phi_h(grid[cell - 1 : cell + 1], prob)
    assert left * right < 0.0
    assert count_roots_scan(prob, n) == _brute_force_count(prob, n) == 1


@pytest.mark.parametrize("after, expected", [(-1.0, 1), (1.0, 0)])
@pytest.mark.parametrize(
    "zero_span",
    [(_SCAN_CHUNK - 1, _SCAN_CHUNK + 1), (_SCAN_CHUNK - 1, 2 * _SCAN_CHUNK + 1)],
    ids=["edge", "whole-chunk"],
)
def test_count_roots_scan_skips_zeros_at_chunk_edge(monkeypatch, zero_span, after, expected):
    # the oracle's chunking: sign +1, then exact zeros on grid indices
    # [first, end) straddling a chunk edge, then `after`: "+,0,-" is one
    # root and "+,0,+" none
    n = 100_000
    grid = np.geomspace(1e-8, 1e4, n)
    first, end = zero_span
    lo, hi = grid[first], grid[end - 1]
    fake = lambda h, prob: np.where(h < lo, 1.0, np.where(h > hi, after, 0.0))
    monkeypatch.setattr(stationary, "aux_phi_h", fake)
    assert _brute_force_count(RootProblem(THETA_09, 2.0, 0.5), n) == expected


@pytest.mark.parametrize("theta, v", _NEAR_RHO_SQUARED)
def test_count_roots_scan_reproduces_float_noise_near_rho_squared(theta, v):
    # at r = rho^2*(1 - 1e-12) the root sits near h = 1e-6, where aux_phi_h
    # moves by less than its rounding per grid cell: the brute-force scan
    # counts 3 sign changes, and the certified count reports the same 3
    rho = (1 - theta) / (1 + theta)
    prob = RootProblem(theta, v, rho * rho * (1 - 1e-12))
    assert count_roots_scan(prob) == _brute_force_count(prob) == 3


def test_count_roots_scan_sees_two_close_roots(monkeypatch):
    # no root problem has two roots, so plant f = c - (h - 1)^2 with its
    # exact slope g = f'/v (decreasing, as the certificate assumes) in the
    # one evaluator, which aux_phi_h and so the brute-force oracle read too:
    # both roots lie about two grid cells from h = 1, inside one seed range
    # whose ends are both negative, and neither the monotone nor the
    # Lipschitz bound may skip that range
    prob = RootProblem(THETA_09, 2.0, 0.5)
    fake = lambda h, prob: (2.5e-9 - (h - 1.0) ** 2, -2.0 * (h - 1.0) / prob.v, np.zeros_like(h))
    monkeypatch.setattr(stationary, "_aux_terms", fake)
    assert count_roots_scan(prob) == _brute_force_count(prob) == 2


def test_scan_cuts_strictly_inside_every_split_range():
    # the scan splits every kept range with j - i > 1, wherever it sits.  The
    # cuts are grid indices in [i, j), nondecreasing; past _SCAN_BLOCK they
    # are distinct and strictly inside (i, j), and up to it they hit every
    # index strictly inside (i, j), so the next round holds single cells
    # (a repeated index is one point evaluated twice, bit for bit the same)
    width = np.arange(2, 4001)
    for i in (np.zeros(width.size), 999_999.0 - width, (width * 7919) % 500_000):
        i = i.astype(float)
        cuts = _scan_cuts(i, i + width)
        assert cuts.shape == (width.size, _SCAN_BLOCK - 1)
        assert np.array_equal(cuts, np.floor(cuts))
        assert np.all(np.diff(cuts, axis=1) >= 0.0)
        assert np.all(cuts[:, 0] >= i) and np.all(cuts[:, -1] < i + width)
        wide = width > _SCAN_BLOCK
        assert np.all(np.diff(cuts[wide], axis=1) > 0.0) and np.all(cuts[wide, 0] > i[wide])
        for row in np.flatnonzero(~wide):
            inside = np.arange(i[row] + 1, i[row] + width[row])
            assert np.all(np.isin(inside, cuts[row])), (i[row], width[row])


def _near_rho_squared_sweep():
    problems = []
    for theta in (0.02, 0.1, 0.3, 0.5, 0.9):
        rho_sq = ((1 - theta) / (1 + theta)) ** 2
        for v in (1.05, -3.0, 40.0, -1000.0):
            for gap in (1e-4, 1e-8, 1e-10, 1e-12):
                problems.append(RootProblem(theta, v, rho_sq * (1 - gap)))
    return problems


def test_count_roots_scan_work_guard(monkeypatch):
    # one evaluator call for the seeds, then one per batched cut round: seed
    # ranges of n/256 points reach single cells within three rounds
    # (measured: at most 1,397 points over these, repeated cuts included)
    sizes = []

    def counting(h, prob, prime=False):
        sizes.append(np.size(h))
        return _aux_terms(h, prob, prime)

    monkeypatch.setattr(stationary, "_aux_terms", counting)
    for n in (100_000, 1_000_000):
        for prob in _random_root_problems(31, 40, v_max=1000.0) + _near_rho_squared_sweep():
            sizes.clear()
            count_roots_scan(prob, n)
            assert len(sizes) <= 3 + 1, (prob, n, sizes)
            assert sum(sizes) <= 1500, (prob, n, sizes)


def test_count_roots_scan_near_rho_squared_matches_whole_grid():
    for prob in _near_rho_squared_sweep()[::3]:
        assert count_roots_scan(prob, 100_000) == _brute_force_count(prob, 100_000), prob


@pytest.mark.parametrize("r", [1e-300, 1e-310, 5e-324])
def test_subnormal_r_reports_no_sign_change(r):
    # (1-theta)^2/r overflows below about 1e-308: the bend point must still be
    # the finite zero of g (h0 ~ ln(1/r)), with the same reason as at 1e-300,
    # and no RuntimeWarning (an error under this suite's filter)
    (h0,), (h,), (reason,) = _solve_roots([0.5], [2.0], [r])
    assert math.isfinite(h0) and math.isnan(h)
    assert reason == _FAILURES[2]
    prob = RootProblem(0.5, 2.0, r)
    _, g, _ = _aux_terms(np.array([h0 - 1.0, h0 + 1.0]), prob)
    assert g[0] > 0.0 > g[1]


@pytest.mark.parametrize("n", [100_000, 100_001, 1_000_000])
def test_scan_points_bit_equal_to_geomspace(n):
    grid = np.geomspace(1e-8, 1e4, n)
    assert np.all(np.diff(grid) > 0.0)
    assert np.array_equal(_scan_points(np.arange(n), n), grid)
    # a few points at a time, as the certified scan asks for them
    k = np.sort(np.random.default_rng(n).choice(n, 300, replace=False))
    for part in (k[:1], k[1:7], k[7:]):
        assert np.array_equal(_scan_points(part.astype(float), n), grid[part])


def test_aux_phi_h_float_pad_matches_mpmath():
    # the pad count_roots_scan relies on: |error| <= _F_PAD*eps*(min(ln(1/theta),
    # rho^2*|v|*h) + r*|v|*h) on the scan's h range, measured in those eps
    # units; a quarter of the draws put r within 10^-k of rho^2 and h below 1
    rng = np.random.default_rng(5)
    worst = 0.0
    with mpmath.workdps(50):
        for i in range(4000):
            theta = rng.uniform(0.02, 0.9)
            v = math.copysign(math.exp(rng.uniform(math.log(1.05), math.log(1000.0))), rng.choice([-1.0, 1.0]))
            rho = (1.0 - theta) / (1.0 + theta)
            if i < 3000:
                prob = RootProblem(theta, v, rho * rho * rng.uniform(0.0, 1.0))
                h = 10.0 ** rng.uniform(-8.0, 4.0)
            else:
                prob = RootProblem(theta, v, rho * rho * (1.0 - 10.0 ** -rng.uniform(1.0, 12.0)))
                h = 10.0 ** rng.uniform(-8.0, 0.0)
            err = abs(aux_phi_h(h, prob) - float(_aux_mp(h, prob)))
            units = min(math.log(1.0 / theta), rho * rho * abs(v) * h) + prob.r * abs(v) * h
            worst = max(worst, err / (_EPS * units))
    assert worst <= 4.0, worst  # measured 2.56; _F_PAD leaves a margin of 8


def test_aux_slope_matches_mpmath_derivative():
    # g = aux_phi_h'/v in closed form, against a 50-digit numerical
    # derivative of aux_phi_h/v, within the pad _aux_terms reports
    rng = np.random.default_rng(6)
    problems = _random_root_problems(12, 30, v_max=1000.0)
    problems += [RootProblem(t, v, ((1 - t) / (1 + t)) ** 2 * (1 - 1e-12)) for t, v in ((0.1, 1.05), (0.9, 50.0))]
    with mpmath.workdps(50):
        for prob in problems:
            for h in (1e-8, 1e-5, rng.uniform(0.0, 1.0), rng.uniform(1.0, 30.0), 1e3):
                _, g, pad = _aux_terms(np.array([h]), prob)
                ref = mpmath.diff(lambda t: _aux_mp(t, prob), mpmath.mpf(h)) / mpmath.mpf(prob.v)
                assert abs(g[0] - float(ref)) <= pad[0], (prob, h, g[0], float(ref), pad[0])


def test_aux_slope_never_increases_along_the_grid():
    # g decreases on h > 0; its computed values may rise by an ulp between
    # neighbouring points, never by more than the two pads
    h = np.geomspace(1e-8, 1e4, 1_000_000)
    for prob in _random_root_problems(13, 3) + [RootProblem(0.5, 50.0, (1 / 3) ** 2 * (1 - 1e-12))]:
        _, g, pad = _aux_terms(h, prob)
        assert np.all(g[1:] - pad[1:] <= g[:-1] + pad[:-1]), prob


@given(
    st.floats(min_value=0.05, max_value=0.8),
    st.floats(min_value=1.1, max_value=20.0),
    st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=60, deadline=None)
def test_root_residual_property(theta, v, rfrac):
    rho = (1 - theta) / (1 + theta)
    prob = RootProblem(theta, v, rfrac * rho * rho)
    z = solve_root_z(prob)
    assert z > 1.0
    assert abs(aux_phi_h(math.log(z), prob)) <= 1e-10


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_forward_reconstruction_frozen():
    qp = QParam(2.0, 1.5)
    st_pt = stationary_point(qp, RHO)
    assert st_pt.s == pytest.approx(FWD_ST[0], abs=1e-12)
    assert st_pt.t == pytest.approx(FWD_ST[1], abs=1e-12)
    assert max(st_pt.residual_x, st_pt.residual_y) <= 1e-8
    cells = np.array(dataclasses.astuple(st_pt.coupling))
    np.testing.assert_allclose(
        cells,
        [0.994826177, 7.40752314e-4, 3.49390192e-3, 9.39168946e-4],
        rtol=1e-6,
    )
    assert cells.sum() == pytest.approx(1.0, abs=1e-14)


def test_reverse_and_mixed_frozen():
    rev = stationary_point(QParam(0.3, 0.5), RHO)
    assert (rev.s, rev.t) == pytest.approx(REV_ST, abs=1e-12)
    mix = stationary_point(QParam(0.8, -2.0), RHO)
    assert (mix.s, mix.t) == pytest.approx(MIX_ST, abs=1e-12)


# (p, q) in none of the forward, reverse and mixed regimes; the last three
# have r in the root range (0, rho^2]
NO_REGIME = [(2.0, 0.5), (0.5, 2.0), (1.5, -0.6), (0.5, 0.0), (-0.5, 0.5), (0.0, 0.5)]


def test_stationary_point_rejects_wrong_regime():
    for p, q in NO_REGIME:
        with pytest.raises(InputDomainError, match="none of the forward, reverse and mixed"):
            stationary_point(QParam(p, q), RHO)


def test_reconstruction_marginal_deficits_consistent():
    # (s, t) are the d2 coordinates of the coupling's marginals
    qp = QParam(2.0, 1.5)
    st_pt = stationary_point(qp, RHO)
    a = st_pt.coupling.q10 + st_pt.coupling.q11
    b = st_pt.coupling.q01 + st_pt.coupling.q11
    assert d2(a) == pytest.approx(st_pt.s, abs=1e-12)
    assert d2(b) == pytest.approx(st_pt.t, abs=1e-12)


def test_forward_stationarity_gradient():
    # the reconstructed point is a stationary point of the Lagrangian
    # g = phi_tilde - s/p - t/q in marginal coordinates
    qp = QParam(2.0, 1.5)
    pt = stationary_point(qp, RHO)

    def g(s, t):
        a, b = _ab_from_st(s, t)
        return phi_tilde_ab(a, b, RHO) - s / qp.p - t / qp.q

    def _ab_from_st(s, t):
        from dsbs_envelopes import d2_inv

        return d2_inv(s), d2_inv(t)

    eps = 1e-5
    gs = (g(pt.s + eps, pt.t) - g(pt.s - eps, pt.t)) / (2 * eps)
    gt = (g(pt.s, pt.t + eps) - g(pt.s, pt.t - eps)) / (2 * eps)
    assert abs(gs) <= 1e-4
    assert abs(gt) <= 1e-4


def test_hypercontractive_regime_boundary():
    assert hypercontractive_regime(QParam(2.0, 2.0), RHO)  # r = 1 > 0.81
    assert not hypercontractive_regime(QParam(2.0, 1.5), RHO)  # r = 0.5
    assert not hypercontractive_regime(QParam(1.9, 1.9), RHO)  # r = 0.81 exactly


# ---------------------------------------------------------------------------
# saddle extrema
# ---------------------------------------------------------------------------


def test_gamma_forward_corner_in_hyper_regime():
    qp = QParam(2.0, 2.0)
    ext = gamma_extremum(qp, RHO, n=101)
    assert ext.a == pytest.approx(0.5, abs=1e-6)
    assert ext.b == pytest.approx(0.5, abs=1e-6)
    assert ext.s == pytest.approx(0.0, abs=1e-9)
    assert ext.value == pytest.approx(0.0, abs=1e-9)


def test_gamma_forward_interior_below_hyper():
    qp = QParam(2.0, 1.5)
    ext = gamma_extremum(qp, RHO, n=201)
    # below the critical product the corner is not optimal
    assert ext.value < -1e-4
    pt = stationary_point(qp, RHO)
    lag = phi_tilde_ab(
        *_ab_of(pt), RHO
    ) - pt.s / qp.p - pt.t / qp.q
    assert ext.value <= lag + 1e-6


def _ab_of(pt):
    from dsbs_envelopes import d2_inv

    return d2_inv(pt.s), d2_inv(pt.t)


def test_gamma_mixed_matches_stationary_value():
    # the sweep and the root-equation route must land on the same point and
    # value, for every table row; (s, t) are compared because the reverse
    # row sweeps b in [1/2, 1], and the value is taken at the coupling's
    # marginals
    for qp in (QParam(0.8, -2.0), QParam(0.9, -5.0), QParam(2.0, 1.5), QParam(0.3, 0.5)):
        ext = gamma_extremum(qp, RHO, n=201)
        pt = stationary_point(qp, RHO)
        assert ext.s == pytest.approx(pt.s, abs=1e-7)
        assert ext.t == pytest.approx(pt.t, abs=1e-7)
        c = pt.coupling
        a, b = c.q10 + c.q11, c.q01 + c.q11
        lagrangian = dd2_value(a, b, RHO) - pt.s / qp.p - pt.t / qp.q
        assert ext.value == pytest.approx(lagrangian, abs=1e-6)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_gamma_never_worse_than_its_grid(rho):
    # the refinement may only improve on the n-grid optimum; the grid is
    # built here as one full meshgrid, reduced by a plain min / max
    params = DsbsParams(rho)
    n = _H_GAMMA_N
    for pairs, surface, lo_b, sign in (
        (_H_FORWARD, phi_tilde_ab, 0.0, 1.0),
        (_H_REVERSE, dd2_value, 0.5, -1.0),
    ):
        a, b = np.meshgrid(
            np.linspace(0.0, 0.5, n), np.linspace(lo_b, lo_b + 0.5, n), indexing="ij"
        )
        for p, q in pairs:
            qp = QParam(p, q)
            grid = surface(a, b, params) - qp.lam * d2(a) - qp.mu * d2(b)
            grid_opt = float(np.min(sign * grid))
            ext = gamma_extremum(qp, params, n=n)
            assert sign * ext.value <= grid_opt, (p, q)


def test_gamma_rejects_pq_in_no_regime():
    for p, q in NO_REGIME:
        with pytest.raises(InputDomainError, match="none of the forward, reverse and mixed"):
            gamma_extremum(QParam(p, q), RHO, n=101)


@pytest.mark.parametrize("n", [100, 1002, 10**6])
def test_gamma_rejects_grid_size_out_of_range(monkeypatch, n):
    # an n-by-n grid is built whole, so an oversized n must fail as a
    # DsbsError before any array exists, never as a MemoryError; the
    # lockstep sweeps of several settings check it first as well
    def no_allocation(*args, **kwargs):
        raise AssertionError("gamma_extremum allocated before validating n")

    monkeypatch.setattr(stationary.np, "linspace", no_allocation)
    with pytest.raises(InputDomainError, match=r"n must be in \[101, 1001\]"):
        gamma_extremum(QParam(2.0, 2.0), RHO, n=n)
    with pytest.raises(InputDomainError, match=r"n must be in \[101, 1001\]"):
        _gamma_extrema([QParam(2.0, 2.0), QParam(0.05, 0.1), QParam(0.8, -2.0)], RHO, n)


def _gamma_extremum_oracle(qp, params, n):
    """(value, a, b, s, t) of one sweep run on its own: the reference for `_gamma_extrema`.

    The surface is evaluated for this setting alone, on its full grid and
    on each of its refinement windows, with lam and mu as floats.
    """
    (lo_b, hi_b), outer, inner, surface = stationary._PROBLEMS[stationary._posed_case(qp)]
    lam, mu = qp.lam, qp.mu

    def step(axis_a, axis_b):
        a, b = axis_a[:, None], axis_b[None, :]
        grid = surface(a, b, params) - lam * d2(a) - mu * d2(b)
        j = np.argmin(inner * grid, axis=1)
        val_row = grid[np.arange(axis_a.size), j]
        i = int(np.argmin(outer * val_row))
        return axis_a[i], axis_b[j[i]], val_row[i]

    a, b, value = step(np.linspace(0.0, 0.5, n), np.linspace(lo_b, hi_b, n))
    offsets = np.linspace(-2.0, 2.0, stationary._WINDOW_K)
    cell = 0.5 / (n - 1)
    while cell >= 1e-10:
        a, b, value = step(
            np.clip(a + cell * offsets, 0.0, 0.5), np.clip(b + cell * offsets, lo_b, hi_b)
        )
        cell *= 4.0 / (stationary._WINDOW_K - 1)
    a, b = float(a), float(b)
    return float(value), a, b, float(d2(a)), float(d2(b))


_MIXED = ((0.8, -2.0), (0.9, -5.0), (0.5, -0.5), (0.3, -1.0), (0.95, -10.0))


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("n", [101, 201])
@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_lockstep_sweeps_match_the_per_setting_oracle(rho, n):
    # one surface table per regime and one surface call per pass for all of
    # a regime's windows change no bit of any setting's answer, whatever the
    # order of the settings; the one-row view agrees as well
    params = DsbsParams(rho)
    pairs = [pair for trio in zip(_H_FORWARD, _H_REVERSE, _MIXED) for pair in trio]
    qps = [QParam(p, q) for p, q in pairs]
    expected = [_gamma_extremum_oracle(qp, params, n) for qp in qps]
    extrema = _gamma_extrema(qps, params, n)
    assert len(extrema) == len(qps)
    for qp, ext, want in zip(qps, extrema, expected):
        assert _bits(dataclasses.astuple(ext)) == _bits(want), (qp.p, qp.q)
        one = gamma_extremum(qp, params, n=n)
        assert _bits(dataclasses.astuple(one)) == _bits(want), (qp.p, qp.q)
