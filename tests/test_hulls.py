"""Grid hulls and curvature certificates on synthetic functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from dsbs_envelopes import (
    DsbsParams,
    GridFn,
    InputDomainError,
    check_lagrangian_gap,
    check_midpoint_concave,
    check_midpoint_convex,
    check_monotone,
    check_slope_bounds,
    lower_convex_envelope,
)
from dsbs_envelopes import envelopes, hulls
from dsbs_envelopes.verify import _C_Q_CONCAVE, _C_Q_CONVEX, _T3_Q


# ---------------------------------------------------------------------------
# the hull's oracle: a double discrete Legendre transform (biconjugate),
# sharing no code with the geometric route
# ---------------------------------------------------------------------------


def _legendre_slopes(f: GridFn, n_slopes: int) -> tuple:
    """The biconjugate's slope grid: per axis, n_slopes over the forward-difference range."""
    h = 1.0 / (f.n - 1)

    def slope_axis(diffs: np.ndarray) -> np.ndarray:
        lo, hi = float(np.min(diffs)), float(np.max(diffs))
        if hi - lo < 1e-12:
            lo, hi = lo - 1.0, hi + 1.0
        return np.linspace(lo, hi, n_slopes)

    return slope_axis(np.diff(f.values, axis=0) / h), slope_axis(np.diff(f.values, axis=1) / h)


def _legendre_envelope_2d(f: GridFn, n_slopes: int) -> np.ndarray:
    """Approximate 2-D biconjugate over a dense factorized slope grid.

    Slopes per axis span the forward-difference range.  Restricting the
    slope set can only lower the plane maximum, so the result lower-bounds
    the true discrete envelope, with a shortfall of order
    slope-spacing = (quotient range)/(n_slopes-1).
    """
    v = f.values
    x = np.linspace(0.0, 1.0, f.n)
    n = v.shape[0]
    sx, sy = _legendre_slopes(f, n_slopes)
    # conj[a, b] = max_{i,j} sx_a x_i + sy_b x_j - v_ij, factorized per axis
    # and chunked to keep the broadcast temporaries small.
    inner = np.empty((n_slopes, n))  # inner[b, i] = max_j sy_b x_j - v[i, j]
    for b0 in range(0, n_slopes, 64):
        b1 = min(b0 + 64, n_slopes)
        inner[b0:b1] = np.max(sy[b0:b1, None, None] * x[None, None, :] - v[None, :, :], axis=2)
    conj = np.empty((n_slopes, n_slopes))
    for a in range(n_slopes):
        conj[a] = np.max(sx[a] * x[None, :] + inner, axis=1)
    # env[i, j] = max_{a,b} sx_a x_i + sy_b x_j - conj[a, b], same trick back.
    back = np.empty((n, n_slopes))  # back[i, b] = max_a sx_a x_i - conj[a, b]
    for i0 in range(0, n, 16):
        i1 = min(i0 + 16, n)
        back[i0:i1] = np.max(sx[None, :, None] * x[i0:i1, None, None] - conj[None, :, :], axis=1)
    env = np.empty_like(v)
    for i in range(n):
        env[i] = np.max(back[i][:, None] + sy[:, None] * x[None, :], axis=0)
    return np.minimum(env, v)


def _grid(fn, n=101):
    x = np.linspace(0.0, 1.0, n)
    return GridFn(fn(x))


def _grid2(fn, n=41):
    x = np.linspace(0.0, 1.0, n)
    return GridFn(fn(x[:, None], x[None, :]))


def test_gridfn_validation():
    with pytest.raises(InputDomainError):
        GridFn(np.zeros((4, 5)))
    with pytest.raises(InputDomainError):
        GridFn(np.array([1.0, 2.0]))
    with pytest.raises(InputDomainError):
        GridFn(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(InputDomainError):
        GridFn(np.zeros((3, 3, 3)))


def test_convex_function_is_its_own_envelope():
    f = _grid2(lambda x, y: (x - 0.3) ** 2 + (y - 0.6) ** 2)
    env = lower_convex_envelope(f)
    np.testing.assert_allclose(env.values, f.values, atol=1e-12)


def test_double_well_bridged():
    # w has two minima at x = 0.2 and 0.8; the hull must bridge them
    # linearly, and the separable bowl in y stays as it is
    f = _grid2(lambda x, y: ((x - 0.2) * (x - 0.8)) ** 2 + (y - 0.5) ** 2)
    env = lower_convex_envelope(f)
    assert np.all(env.values <= f.values + 1e-12)
    axis = np.linspace(0.0, 1.0, f.n)
    i = np.argmin(np.abs(axis - 0.5))
    np.testing.assert_allclose(env.values[i], (axis - 0.5) ** 2, atol=1e-12)  # on the bridge
    assert _midpoint_oracle_2d(env.values)[0] <= 1e-9


def test_envelopes_reject_1d_grid():
    # the hull is built on 2-D grids only; a 1-D grid is refused
    with pytest.raises(InputDomainError, match="2-D"):
        lower_convex_envelope(_grid(lambda x: (x - 0.3) ** 2))


def test_legendre_2d_lower_bounds_geometric_hull():
    # the finite slope family gives a slightly slack hull, never a tighter one
    f = _grid2(lambda x, y: (x - 0.5) ** 2 * (y - 0.5) ** 2)
    geo = lower_convex_envelope(f)
    alg = _legendre_envelope_2d(f, n_slopes=257)
    assert np.all(alg <= geo.values + 1e-9)
    assert np.max(geo.values - alg) <= 5e-3


def test_envelope_idempotent_2d():
    f = _grid2(lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y), n=33)
    env = lower_convex_envelope(f)
    again = lower_convex_envelope(env)
    assert np.max(np.abs(env.values - again.values)) <= 1e-10


def test_affine_grid_is_its_own_envelope():
    # coplanar graph points: qhull refuses them, and an affine function is
    # returned unchanged as its own envelope
    f = _grid2(lambda x, y: 0.25 + 2.0 * x - 3.0 * y, n=11)
    axis = np.linspace(0.0, 1.0, f.n)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    with pytest.raises(QhullError):
        ConvexHull(np.column_stack([x.ravel(), y.ravel(), f.values.ravel()]))
    assert np.array_equal(lower_convex_envelope(f).values, f.values)


def test_midpoint_convex_accepts_and_rejects():
    good = check_midpoint_convex(_grid(lambda x: x**2))
    assert good.worst_violation <= 1e-9

    # a bump on a linear base: no curvature slack to hide in, so the
    # midpoint defect is the bump height itself
    vals = np.linspace(0.0, 1.0, 101).copy()
    vals[50] += 1e-6
    bad = check_midpoint_convex(GridFn(vals))
    assert bad.worst_violation == pytest.approx(1e-6, rel=1e-2)
    assert bad.witness is not None


def test_midpoint_convex_2d_full_enumeration():
    # the 2-D enumeration is the tests' oracle for the Lagrangian certificate;
    # the public midpoint certifier takes curves only
    assert _midpoint_oracle_2d(_grid2(lambda x, y: x**2 + y**2 + x * y, n=21).values)[0] <= 1e-9
    # saddle is not convex and the full sweep must find it
    assert _midpoint_oracle_2d(_grid2(lambda x, y: x * y - x**2 - y**2, n=21).values)[0] > 1e-9
    with pytest.raises(InputDomainError, match="1-D"):
        check_midpoint_convex(_grid2(lambda x, y: x + y, n=5))


def _midpoint_oracle_2d(v: np.ndarray) -> tuple:
    """The full 2-D midpoint enumeration as a plain slicing loop.

    One (di, dj) offset at a time in key order, first wins: the oracle of
    the Lagrangian certificate and of the geometric hull, which the public
    midpoint certifier, taking curves only, cannot serve.
    """
    n = v.shape[0]
    worst, witness, n_pairs = -np.inf, None, 0
    half = (n - 1) // 2
    for di in range(0, half + 1):
        for dj in range(1 if di == 0 else -half, half + 1):
            adj = abs(dj)
            mid = v[di : n - di, adj : n - adj]
            left = v[0 : n - 2 * di, adj - dj : n - adj - dj]
            right = v[2 * di : n, adj + dj : n - adj + dj]
            viol = mid - 0.5 * (left + right)
            n_pairs += viol.size
            flat = int(np.argmax(viol))
            if viol.flat[flat] > worst:
                worst = float(viol.flat[flat])
                i, j = np.unravel_index(flat, viol.shape)
                witness = ((int(i), int(j + adj - dj)), (int(i + 2 * di), int(j + adj + dj)))
    return worst, witness, n_pairs


def _midpoint_oracle_1d(v: np.ndarray) -> tuple:
    """The 1-D midpoint enumeration as a loop over the half gap d, first wins."""
    n = v.size
    worst, witness, n_pairs = -np.inf, None, 0
    for d in range(1, (n - 1) // 2 + 1):
        viol = v[d : n - d] - 0.5 * (v[: n - 2 * d] + v[2 * d :])
        n_pairs += viol.size
        i = int(np.argmax(viol))
        if viol[i] > worst:
            worst = float(viol[i])
            witness = (i, i + 2 * d)
    return worst, witness, n_pairs


def _assert_same_report(rep, oracle, name):
    worst, witness, n_pairs = oracle
    assert np.float64(rep.worst_violation).tobytes() == np.float64(worst).tobytes(), name
    assert (rep.witness, rep.n_pairs) == (witness, n_pairs), name


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 101, 501])
def test_midpoint_1d_matches_loop_oracle(n):
    rng = np.random.default_rng(n)
    curves = {
        "random": rng.normal(size=n),
        "affine": 3.0 * np.arange(n) - 1.0,
        "small-int": rng.integers(0, 3, size=n).astype(float),
        "zeros": np.zeros(n),
    }
    if n >= 101:
        # the curves that claims T3 and C certify, each as it is and negated
        axis = np.linspace(0.0, 1.0, n)
        for rho in (0.5, 0.9):
            phi_q = envelopes._q_opt(axis, _T3_Q + _C_Q_CONVEX, DsbsParams(rho), kind="phi")[0]
            psi_q = envelopes._q_opt(axis, _C_Q_CONCAVE, DsbsParams(rho), kind="psi")[0]
            for k, curve in enumerate((*phi_q, *psi_q)):
                curves[rho, k], curves[rho, k, "negated"] = curve.copy(), -curve
    for name, v in curves.items():
        v.flags.writeable = False  # the certifier must only read its input
        _assert_same_report(check_midpoint_convex(GridFn(v)), _midpoint_oracle_1d(v), name)


def test_midpoint_concave_goes_through_convex(monkeypatch):
    # the traced check_midpoint_convex counts (calls, pairs) include concavity checks
    calls = []
    convex = hulls.check_midpoint_convex

    def spy(f):
        calls.append(f.values.shape)
        return convex(f)

    monkeypatch.setattr(hulls, "check_midpoint_convex", spy)
    rep = check_midpoint_concave(_grid(lambda x: -(x**2), n=9))
    assert calls == [(9,)] and rep.worst_violation <= 1e-9


@pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True])
@pytest.mark.parametrize("n", [5, 203])
def test_midpoint_bad_seed_rejected(seed, n):
    # the midpoint certifiers enumerate every pair and draw nothing, so they
    # take no seed: any seed, good or bad, is refused rather than ignored
    for check in (check_midpoint_convex, check_midpoint_concave):
        with pytest.raises(TypeError, match="seed"):
            check(GridFn(np.zeros(n)), seed=seed)


@pytest.mark.parametrize("bound", [math.nan, math.inf, "1", None])
def test_slope_bounds_bad_bound_rejected(bound):
    with pytest.raises(InputDomainError):
        check_slope_bounds(_grid(lambda x: x), axis=0, bound=bound, sense="le")


@pytest.mark.parametrize(
    "values",
    [
        ["0", "1", "2"],
        np.array(["0.5", "x", "1"]),
        np.array([1.0, 2.0 + 1.0j, 3.0]),
        [[1.0, 2.0, 3.0], [1.0, 2.0]],  # ragged
    ],
)
def test_gridfn_rejects_non_real_values(values):
    with pytest.raises(InputDomainError):
        GridFn(values)


def test_midpoint_concave_mirrors_convex():
    rep = check_midpoint_concave(_grid(lambda x: -((x - 0.4) ** 2)))
    assert rep.worst_violation <= 1e-9


@given(st.integers(min_value=3, max_value=40))
@settings(max_examples=30, deadline=None)
def test_envelope_below_and_convex(n):
    rng = np.random.default_rng(n)
    f = GridFn(rng.uniform(0.0, 1.0, (n, n)))
    env = lower_convex_envelope(f)
    assert np.all(env.values <= f.values + 1e-12)
    assert _midpoint_oracle_2d(env.values)[0] <= 1e-9


def test_slope_bounds_conventions():
    # f(x) = x/2 has all quotients 1/2: passes <= 1, fails >= 1 by 1/2
    f = _grid(lambda x: 0.5 * x)
    le = check_slope_bounds(f, axis=0, bound=1.0, sense="le")
    assert le.worst_violation == pytest.approx(-0.5, abs=1e-12)
    ge = check_slope_bounds(f, axis=0, bound=1.0, sense="ge")
    assert ge.worst_violation == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(InputDomainError):
        check_slope_bounds(f, axis=1, bound=1.0, sense="le")
    with pytest.raises(InputDomainError):
        check_slope_bounds(f, axis=0, bound=1.0, sense="between")


def test_slope_bounds_2d_axis_selection():
    f = _grid2(lambda x, y: 2.0 * x + 0.25 * y, n=11)
    assert check_slope_bounds(f, axis=0, bound=1.0, sense="ge").worst_violation <= 1e-8
    assert check_slope_bounds(f, axis=1, bound=1.0, sense="le").worst_violation <= 1e-8
    assert check_slope_bounds(f, axis=0, bound=1.0, sense="le").worst_violation > 1e-8


def test_monotone_check():
    good = check_monotone(_grid(lambda x: x**3))
    assert good.worst_violation <= 1e-10
    vals = np.linspace(0.0, 1.0, 50) ** 2
    vals[20] = vals[19] - 1e-8
    bad = check_monotone(GridFn(vals))
    assert bad.worst_violation == pytest.approx(1e-8, rel=1e-6)
    assert bad.witness[0] == 0  # axis of the drop


# ---------------------------------------------------------------------------
# the Lagrangian certificate
# ---------------------------------------------------------------------------


def _plain_lower_hull(y: np.ndarray) -> list:
    """Andrew's monotone chain on one curve, a point at a time, collinear points dropped."""
    hull = []
    for j in range(y.size):
        while len(hull) >= 2 and (y[hull[-1]] - y[hull[-2]]) * (j - hull[-2]) >= (y[j] - y[hull[-2]]) * (
            hull[-1] - hull[-2]
        ):
            hull.pop()
        hull.append(j)
    return hull


def _hull_prefix(padded: np.ndarray, n: int) -> np.ndarray:
    """A row of the `_lower_hulls` array up to its first n - 1: the row's hull."""
    return padded[: np.argmax(padded == n - 1) + 1]


def _hull_rows(n):
    """Integer rows, so every cross product is exact: ties, collinear runs, and the extremes."""
    rng = np.random.default_rng(n)
    return np.concatenate([
        rng.integers(0, 4, size=(20, n)),  # many collinear and tied points
        rng.integers(-50, 50, size=(20, n)),
        np.zeros((1, n)),
        (np.arange(n) - n // 3)[None, :] ** 2,  # convex: every point a vertex
        -((np.arange(n) - n // 3)[None, :] ** 2),  # concave: only the ends
    ]).astype(float)


@pytest.mark.parametrize("n", [3, 4, 9, 40])
def test_lockstep_hulls_match_the_monotone_chain(n):
    # integer values keep every cross product exact, so the vertex sets must agree
    v = _hull_rows(n)
    got = hulls._lower_hulls(v)
    assert [_hull_prefix(h, n).tolist() for h in got] == [_plain_lower_hull(row) for row in v]


@pytest.mark.parametrize("n", [3, 4, 9, 40])
def test_lower_hulls_pad_to_the_longest_hull_with_the_last_column(n):
    # one int array: each row's hull, then n - 1 up to the longest hull's width
    for v in (_hull_rows(n), _hull_rows(n)[-1:], np.zeros((3, n))):
        got = hulls._lower_hulls(v)
        chains = [_plain_lower_hull(row) for row in v]
        assert got.dtype.kind == "i" and got.shape == (v.shape[0], max(map(len, chains)))
        for row, chain in zip(got, chains):
            assert row[: len(chain)].tolist() == chain
            assert np.all(row[len(chain) :] == n - 1)


def _exact(n, f, fx, fy):
    x = np.linspace(0.0, 1.0, n)
    s, t = np.meshgrid(x, x, indexing="ij")
    return GridFn(f(s, t)), np.stack([fx(s, t), fy(s, t)])


CONVEX_CASES = {
    "exp": (
        lambda s, t: np.exp(s + 2 * t),
        lambda s, t: np.exp(s + 2 * t),
        lambda s, t: 2 * np.exp(s + 2 * t),
    ),
    "bowl": (
        lambda s, t: (s - 0.3) ** 2 + (t - 0.6) ** 2 + s * t,
        lambda s, t: 2 * (s - 0.3) + t,
        lambda s, t: 2 * (t - 0.6) + s,
    ),
    "affine": (
        lambda s, t: 0.25 + 2.0 * s - 3.0 * t,
        lambda s, t: np.full_like(s, 2.0),
        lambda s, t: np.full_like(s, -3.0),
    ),
}


@pytest.mark.parametrize("name", CONVEX_CASES)
@pytest.mark.parametrize("n", [3, 4, 41, 101])
def test_lagrangian_gap_of_convex_functions_with_exact_gradients(name, n):
    # within one rounding of the size of its terms: f and the two slopes
    # (exp reaches e^3 with slopes up to 2e^3, and measures 1.4e-14)
    f, g = _exact(n, *CONVEX_CASES[name])
    scale = np.abs(f.values).max() + np.abs(g).max(axis=(1, 2)).sum()
    rep = check_lagrangian_gap(f, g)
    assert abs(rep.worst_violation) <= np.finfo(float).eps * scale
    assert rep.n_pairs == (n - 2) ** 2 * n * n + 4 * (n - 2) * n


def test_lagrangian_gap_matches_the_brute_force_conjugate():
    # f* as the plain max over every lattice point, per point; the edges
    # along their own line
    rng = np.random.default_rng(4)
    for n in (3, 5, 12):
        v = rng.normal(size=(n, n))
        g = 3.0 * rng.normal(size=(2, n, n))
        x = np.linspace(0.0, 1.0, n)
        want = np.full((n, n), -np.inf)
        for i in range(n):
            for j in range(n):
                if i in (0, n - 1) and j in (0, n - 1):
                    continue
                if i in (0, n - 1):
                    want[i, j] = v[i, j] - g[1, i, j] * x[j] + np.max(g[1, i, j] * x - v[i])
                elif j in (0, n - 1):
                    want[i, j] = v[i, j] - g[0, i, j] * x[i] + np.max(g[0, i, j] * x - v[:, j])
                else:
                    conj = np.max(g[0, i, j] * x[:, None] + g[1, i, j] * x[None, :] - v)
                    want[i, j] = v[i, j] - g[0, i, j] * x[i] - g[1, i, j] * x[j] + conj
        got = hulls._lagrangian_gaps(v, g)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def test_lagrangian_gap_bounds_the_envelope_gap_for_any_slope():
    # the double well is not convex; at every point the gap must cover f
    # minus the qhull envelope whatever the slope, and f minus the Legendre
    # biconjugate when the slope lies on that biconjugate's own slope grid
    f = _grid2(lambda x, y: ((x - 0.2) * (x - 0.8)) ** 2 + (y - 0.5) ** 2)
    n = f.n
    corners = np.zeros((n, n), dtype=bool)
    corners[[0, 0, -1, -1], [0, -1, 0, -1]] = True
    above_hull = np.where(corners, -np.inf, f.values - lower_convex_envelope(f).values)
    above_legendre = np.where(corners, -np.inf, f.values - _legendre_envelope_2d(f, 65))
    assert above_hull.max() > 1e-3  # the bridge between the wells
    sx, sy = _legendre_slopes(f, 65)
    rng = np.random.default_rng(8)
    for _ in range(3):
        g = rng.normal(scale=2.0, size=(2, n, n))
        assert np.all(hulls._lagrangian_gaps(f.values, g) >= above_hull - 1e-12)
        g = np.stack([rng.choice(sx, size=(n, n)), rng.choice(sy, size=(n, n))])
        assert np.all(hulls._lagrangian_gaps(f.values, g) >= above_legendre - 1e-12)


def test_lagrangian_gap_checks_each_edge_along_the_edge():
    # a bump on an edge point is caught there, with the tangential slope;
    # a bump on a corner, an extreme point, breaks no convexity
    f, g = _exact(21, *CONVEX_CASES["bowl"])
    for where in ((0, 7), (20, 7), (7, 0), (7, 20)):
        v = f.values.copy()
        v[where] += 0.01
        rep = check_lagrangian_gap(GridFn(v), g)
        # less the bowl's rise to the neighbouring point, 2 * 0.05^2 / 2
        assert rep.witness == where and rep.worst_violation >= 0.0075 - 1e-12
    v = f.values.copy()
    v[0, 0] += 0.01
    assert check_lagrangian_gap(GridFn(v), g).worst_violation <= 1e-14
    # the normal slope on an edge is never read
    g_edge = g.copy()
    g_edge[0, [0, -1], :] = np.inf
    g_edge[1, :, [0, -1]] = np.nan
    assert check_lagrangian_gap(f, g_edge).worst_violation <= 1e-14


def test_lagrangian_gap_ties_and_non_finite_slopes():
    # all gaps 0: the first non-corner point in row-major order
    zeros = GridFn(np.zeros((5, 5)))
    rep = check_lagrangian_gap(zeros, np.zeros((2, 5, 5)))
    assert (rep.worst_violation, rep.witness) == (0.0, (0, 1))
    # a non-finite slope off the corners fails closed, silently
    for bad in (np.nan, np.inf, -np.inf):
        for where in ((0, 2, 2), (1, 0, 2), (0, 3, 0)):
            g = np.zeros((2, 5, 5))
            g[where] = bad
            rep = check_lagrangian_gap(zeros, g)
            assert np.isnan(rep.worst_violation) and rep.witness == where[1:]


def test_lagrangian_gap_rejects_bad_shapes():
    with pytest.raises(InputDomainError, match="2-D"):
        check_lagrangian_gap(_grid(lambda x: x**2), np.zeros((2, 101, 101)))
    with pytest.raises(InputDomainError, match="shape"):
        check_lagrangian_gap(GridFn(np.zeros((5, 5))), np.zeros((2, 5, 4)))
    with pytest.raises(InputDomainError, match="reals"):
        check_lagrangian_gap(GridFn(np.zeros((3, 3))), np.full((2, 3, 3), "1"))
    with pytest.raises(InputDomainError, match="shape"):  # ragged
        check_lagrangian_gap(GridFn(np.zeros((3, 3))), [[1], [2, 3]])


def test_lagrangian_gap_catches_gross_violation_above_grid_201():
    # every point of a large grid is certified, nothing is sampled
    f, g = _exact(301, *CONVEX_CASES["bowl"])
    v = f.values.copy()
    v[150, 150] += 0.5
    rep = check_lagrangian_gap(GridFn(v), g)
    assert rep.witness == (150, 150) and rep.worst_violation >= 0.49


# ---------------------------------------------------------------------------
# the certificate on exactly symmetric input: one triangle of queries
# ---------------------------------------------------------------------------


def _reference_conjugate(v, x, row_hulls, lam, mu):
    """`_conjugate_2d` as one searchsorted and two repeats per row, all in the loop."""
    order = np.argsort(mu, kind="stable")
    lam, mu = lam[order], mu[order]
    best = np.full(mu.size, -np.inf)
    for i, padded in enumerate(row_hulls):
        hull = _hull_prefix(padded, v.shape[1])
        slopes = np.maximum.accumulate(np.diff(v[i, hull]) / np.diff(x[hull]))
        runs = np.diff(np.searchsorted(mu, slopes, side="right"), prepend=0, append=mu.size)
        best = np.maximum(best, mu * np.repeat(x[hull], runs) - np.repeat(v[i, hull], runs) + lam * x[i])
    out = np.empty(mu.size)
    out[order] = best
    return out


def _all_query_gaps(v, g):
    """The interior gaps with every interior point queried, by the reference conjugate."""
    x = np.linspace(0.0, 1.0, v.shape[0])
    lam, mu = g[0, 1:-1, 1:-1], g[1, 1:-1, 1:-1]
    with np.errstate(invalid="ignore"):
        fstar = _reference_conjugate(v, x, hulls._lower_hulls(v), lam.ravel(), mu.ravel()).reshape(lam.shape)
        return v[1:-1, 1:-1] - lam * x[1:-1, None] - mu * x[None, 1:-1] + fstar


def _query_spy(monkeypatch) -> list:
    """The query count of every `_conjugate_2d` call, in call order."""
    counts = []
    real = hulls._conjugate_2d

    def spy(v, x, row_hulls, lam, mu):
        counts.append(lam.size)
        return real(v, x, row_hulls, lam, mu)

    monkeypatch.setattr(hulls, "_conjugate_2d", spy)
    return counts


def _symmetric_cases(n=41):
    """Exactly symmetric values with transposed slopes: a bowl, phi_tilde and -psi at rho 0.9."""
    bowl = (
        lambda s, t: (s - 0.4) ** 2 + (t - 0.4) ** 2 + s * t,
        lambda s, t: 2 * (s - 0.4) + t,
        lambda s, t: 2 * (t - 0.4) + s,
    )
    f, g = _exact(n, *bowl)
    yield "bowl", f.values, g
    axis = np.linspace(0.0, 1.0, n)
    params = DsbsParams(0.9)
    for kind, grid, sign in (("phi_tilde", envelopes.phi_tilde_grid, 1.0), ("psi", envelopes.psi_grid, -1.0)):
        yield kind, sign * grid(axis, axis, params), sign * envelopes._slope_field(axis, params, kind=kind)


def test_conjugate_matches_the_per_row_loop_bit_for_bit():
    # the edge slopes, their running max and the runs of every row are
    # formed before the row loop; hulls of every length, one-row calls too
    rng = np.random.default_rng(35)
    for n in (3, 5, 17, 60):
        x = np.linspace(0.0, 1.0, n)
        for v in (rng.normal(size=(n, n)), rng.normal(size=(n, n)).cumsum(axis=1) ** 2, rng.normal(size=(1, n))):
            row_hulls = hulls._lower_hulls(v)
            lam, mu = 3.0 * rng.normal(size=(2, 2 * n))
            want = _reference_conjugate(v, x, row_hulls, lam, mu)
            assert hulls._conjugate_2d(v, x, row_hulls, lam, mu).tobytes() == want.tobytes(), n


def test_symmetric_input_queries_one_triangle(monkeypatch):
    # the gap at (j, i) is the one at (i, j) up to rounding: the points
    # i <= j are queried, bit for bit as among all queries, and mirrored;
    # the four edges keep their own 1-D queries.  The phi_tilde slopes are
    # not transposes at the (0, 0) corner, which the check skips
    counts = _query_spy(monkeypatch)
    n = 41
    for name, v, g in _symmetric_cases(n):
        counts.clear()
        got = hulls._lagrangian_gaps(v, g)
        assert counts == [(n - 2) * (n - 1) // 2] + [n - 2] * 4, name
        assert np.array_equal(got, got.T), name
        want = _all_query_gaps(v, g)
        upper = np.triu_indices(n - 2)
        assert got[1:-1, 1:-1][upper].tobytes() == want[upper].tobytes(), name
        scale = np.abs(v).max() + np.abs(g[:, 1:-1, 1:-1]).max(axis=(1, 2)).sum()
        assert np.abs(got[1:-1, 1:-1] - want).max() <= np.finfo(float).eps * scale, name


def test_symmetric_tie_picks_the_row_major_first_witness(monkeypatch):
    # a bump at (5, 12) and its mirror (12, 5): equal gaps, and the witness
    # is the first in row-major order
    counts = _query_spy(monkeypatch)
    _, v, g = next(_symmetric_cases())
    v = v.copy()
    v[5, 12] += 0.01
    v[12, 5] += 0.01
    rep = check_lagrangian_gap(GridFn(v), g)
    assert counts[0] == 39 * 40 // 2
    assert rep.witness == (5, 12) and rep.worst_violation >= 0.005


@pytest.mark.parametrize("breach", ["bumped off-diagonal value", "NaN slope", "slopes not transposed"])
def test_asymmetric_input_queries_every_point(monkeypatch, breach):
    # any break of the exact symmetry falls back to every interior query,
    # which gives the per-row loop's gaps bit for bit
    counts = _query_spy(monkeypatch)
    n = 41
    for name, v, g in _symmetric_cases(n):
        v, g = v.copy(), g.copy()
        if breach == "bumped off-diagonal value":
            v[5, 12] += 1e-3
        elif breach == "NaN slope":
            g[0, 7, 9] = np.nan
        else:
            g[1, 7, 9] += 1e-12
        counts.clear()
        got = hulls._lagrangian_gaps(v, g)
        assert counts == [(n - 2) ** 2] + [n - 2] * 4, name
        np.testing.assert_array_equal(got[1:-1, 1:-1], _all_query_gaps(v, g), err_msg=name)
