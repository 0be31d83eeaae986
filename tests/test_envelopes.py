"""Surface slices, monotone rearrangement, and the slope-indexed families."""

import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsbs_envelopes import (
    DsbsParams,
    GridFn,
    InputDomainError,
    QParam,
    check_lagrangian_gap,
    check_monotone,
    d2,
    d2_inv,
    phi,
    phi_grid,
    phi_q_full,
    phi_tilde,
    phi_tilde_ab,
    phi_tilde_grid,
    psi,
    psi_grid,
    psi_q_full,
)
from dsbs_envelopes import envelopes
from dsbs_envelopes.binary import _mirror
from dsbs_envelopes.envelopes import _phi_tilde_oracle_lattice
from dsbs_envelopes.mre import dd2_value
from test_binary import _typed_fields
from test_hulls import _midpoint_oracle_2d
from test_mre import _dd2_mp

RHO = DsbsParams(0.9)

# mpmath references (mp.dps = 50): phi = dd2 at the d2-inverses, psi at the
# reflected second coordinate.
PHI_03_05 = 0.52070936245468219
PSI_03_05 = 2.8858309015063137

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_frozen_surface_values():
    assert phi(0.3, 0.5, RHO) == pytest.approx(PHI_03_05, abs=1e-13)
    assert psi(0.3, 0.5, RHO) == pytest.approx(PSI_03_05, abs=1e-13)


def test_surface_corners():
    assert phi(0.0, 0.0, RHO) == pytest.approx(0.0, abs=1e-12)
    assert phi(1.0, 1.0, RHO) == pytest.approx(2 - math.log2(1.9), abs=1e-12)
    assert psi(1.0, 1.0, RHO) == pytest.approx(2 - math.log2(0.1), abs=1e-12)


@given(units, units)
@settings(max_examples=200, deadline=None)
def test_phi_symmetric(s, t):
    assert phi(s, t, RHO) == pytest.approx(phi(t, s, RHO), abs=1e-12)


def test_grids_match_pointwise():
    s = np.linspace(0.0, 1.0, 17)
    t = np.linspace(0.0, 1.0, 13)
    pg = phi_grid(s, t, RHO)
    sg = psi_grid(s, t, RHO)
    assert pg.shape == (17, 13)
    for i in (0, 8, 16):
        for j in (0, 6, 12):
            assert pg[i, j] == pytest.approx(phi(s[i], t[j], RHO), abs=1e-14)
            assert sg[i, j] == pytest.approx(psi(s[i], t[j], RHO), abs=1e-14)


GRIDS = {"phi_grid": (phi_grid, "s_vals", "t_vals"), "psi_grid": (psi_grid, "s_vals", "t_vals")}
GRIDS["phi_tilde_grid"] = (phi_tilde_grid, "alpha_vals", "beta_vals")


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("first, second, bad", [
    (np.full((2, 2), 0.3), np.linspace(0.0, 1.0, 4), 0),
    (np.linspace(0.0, 1.0, 4), np.full((3, 1), 0.3), 1),
    (np.full((1, 1), 0.3), np.full((1, 1), 0.3), 0),
])
def test_grid_evaluators_reject_two_dimensional_axes(name, first, second, bad):
    # a (2, 2) axis used to fail with a bare numpy broadcast error, a (3, 1)
    # one with a misleading broadcast message, and (1, 1) axes returned a
    # 1 x 1 grid
    grid, *axis_names = GRIDS[name]
    with pytest.raises(InputDomainError, match=rf"^{axis_names[bad]} must be a scalar or 1-D, got shape"):
        grid(first, second, RHO)


@pytest.mark.parametrize("rho", [1e-4, 0.5, 0.9, 0.999998])
def test_grids_on_equal_axes_are_exactly_symmetric(rho):
    # the kernel is bitwise symmetric, so a grid on equal axes equals its
    # transpose bit for bit: this underpins the one-triangle query of the
    # Lagrangian certificate of T1 and T2 (`hulls._lagrangian_gaps`).  One
    # more t point makes the axes unequal and leaves the square unchanged
    params = DsbsParams(rho)
    for n in (101, 501):
        axis = np.linspace(0.0, 1.0, n)
        for grid, *_ in GRIDS.values():
            full = grid(axis, np.append(axis, 0.5), params)[:, :-1]
            assert np.array_equal(full, full.T), (grid.__name__, n)
            assert np.array_equal(grid(axis, axis, params), full), (grid.__name__, n)


@pytest.mark.parametrize("rho", [1e-4, 0.9, 0.999998])
def test_row_slices_match_the_whole_grid_fill_bit_for_bit(monkeypatch, rho):
    # row slices of 7 rows (the last one ragged) and one slice of the whole
    # grid give the same cells, on equal and on unequal axes
    params = DsbsParams(rho)
    axis = np.linspace(0.0, 1.0, 61)
    for s_vals, t_vals in ((axis, axis), (axis, axis[:-1]), (axis[:-1], axis)):
        for grid, *_ in GRIDS.values():
            whole = grid(s_vals, t_vals, params)
            with monkeypatch.context() as m:
                m.setattr(envelopes, "_BLOCK_ELEMS", 7 * t_vals.size)
                sliced = grid(s_vals, t_vals, params)
            assert sliced.tobytes() == whole.tobytes(), (grid.__name__, s_vals.size, t_vals.size)


# ---------------------------------------------------------------------------
# monotone rearrangement
# ---------------------------------------------------------------------------


def _in_s0(alpha, beta):
    """The branch mask of S0 at deficits (alpha, beta), through the d2_inv biases."""
    return envelopes._flat(np.asarray(d2_inv(alpha)), np.asarray(d2_inv(beta)), RHO.crossover)


def test_phi_tilde_piecewise_branches():
    # beta-plane: alpha = 0 forces the value beta exactly; the transposed
    # region is S0 with its arguments swapped
    assert phi_tilde(0.0, 0.7, RHO) == 0.7
    assert _in_s0(0.7, 0.0) and not _in_s0(0.0, 0.7)
    # alpha-plane by symmetry
    assert phi_tilde(0.7, 0.0, RHO) == 0.7
    # interior point: strictly above both flat values
    assert not _in_s0(0.7, 0.7)
    assert phi_tilde(0.7, 0.7, RHO) == pytest.approx(0.7418130313508429, abs=1e-13)


def test_phi_tilde_branches_follow_in_s0_on_lattice():
    # the shared kernel: alpha on S0, beta on its transpose, phi elsewhere
    axis = np.linspace(0.0, 1.0, 101)
    alpha, beta = np.meshgrid(axis, axis, indexing="ij")
    values = phi_tilde(alpha, beta, RHO)
    flat_alpha = _in_s0(alpha, beta)
    flat_beta = _in_s0(beta, alpha) & ~flat_alpha
    interior = ~(flat_alpha | flat_beta)
    assert flat_alpha.any() and flat_beta.any() and interior.any()
    assert np.array_equal(values[flat_alpha], alpha[flat_alpha])
    assert np.array_equal(values[flat_beta], beta[flat_beta])
    assert np.array_equal(values[interior], phi(alpha, beta, RHO)[interior])
    assert np.array_equal(phi_tilde_grid(axis, axis, RHO), values)


@given(units, units)
@settings(max_examples=300, deadline=None)
def test_phi_tilde_below_phi(s, t):
    assert phi_tilde(s, t, RHO) <= phi(s, t, RHO) + 1e-12


@given(units, units)
@settings(max_examples=300, deadline=None)
def test_phi_tilde_dominates_coordinates(s, t):
    # a nondecreasing minorant of phi can never drop below max(s, t) because
    # phi(s, 0) = s along the axes
    assert phi_tilde(s, t, RHO) >= max(s, t) - 1e-12


def test_phi_tilde_grid_matches_scalar():
    vals = np.linspace(0.0, 1.0, 21)
    grid = phi_tilde_grid(vals, vals, RHO)
    for i in (0, 7, 20):
        for j in (3, 11, 20):
            assert grid[i, j] == pytest.approx(phi_tilde(vals[i], vals[j], RHO), abs=1e-14)


def test_phi_tilde_ab_consistent_with_deficit_coords():
    a, b = 0.21, 0.34
    assert phi_tilde_ab(a, b, RHO) == pytest.approx(phi_tilde(d2(a), d2(b), RHO), abs=1e-12)


def test_phi_tilde_oracle_agrees_with_piecewise():
    # dual route: minimum of phi over dominating arguments on a 2001^2
    # master grid, compared with the piecewise form on every lattice point
    for rho in (0.5, 0.9):
        params = DsbsParams(rho)
        axis, env = _phi_tilde_oracle_lattice(params, 2001, 20)
        assert axis.shape == (101,)
        assert np.max(np.abs(env - phi_tilde_grid(axis, axis, params))) <= 2e-5


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_psi_and_negative_q_family_nondecreasing(rho):
    # psi and phi_q for q < 0 are their own upper envelopes (the maximum
    # over smaller arguments) because they are nondecreasing: on a 2001-point
    # master grid every forward step rises, by far more than float noise
    params = DsbsParams(rho)
    axis = np.linspace(0.0, 1.0, 2001)
    curves = envelopes._q_opt(axis, (-2.0, -10.0), params, kind="phi")[0]
    for values in (psi_grid(axis, axis, params), *curves):
        rep = check_monotone(GridFn(values))
        assert rep.worst_violation < -1e-4, rep


def test_psi_tilde_lattice_oracle_gap():
    # brute-force upper envelope of psi (maximum over every master grid point
    # with s' <= s and t' <= t), read on the stride-20 lattice, is psi itself
    grid = np.linspace(0.0, 1.0, 2001)
    direct = psi_grid(grid, grid, RHO)
    env = np.maximum.accumulate(np.maximum.accumulate(direct, axis=0), axis=1)
    lattice = slice(None, None, 20)
    assert grid[lattice].shape == (101,)
    assert np.max(np.abs(env - direct)[lattice, lattice]) <= 1e-5


def test_psi_q_tilde_lattice_gap():
    # the running maximum of the q = -2 curve over smaller s is the curve
    grid = np.linspace(0.0, 1.0, 2001)
    curves = envelopes._q_opt(grid, (-2.0,), RHO, kind="phi")[0]
    env = np.maximum.accumulate(curves, axis=1)
    lattice = slice(None, None, 20)
    assert grid[lattice].shape == (101,)
    assert np.max(np.abs(env - curves)[:, lattice]) <= 1e-6


# ---------------------------------------------------------------------------
# slope-indexed families
# ---------------------------------------------------------------------------


def test_qparam_accepts_numpy_scalars():
    for p, q in ((np.int64(2), 1.5), (np.float32(0.3), np.float32(-2.5)), (2, np.int32(3))):
        assert _typed_fields(QParam(p, q)) == _typed_fields(QParam(float(p), float(q)))
    with pytest.raises(InputDomainError, match="finite real"):
        QParam(True, 2.0)


def test_qparam_algebra():
    qp = QParam(2.0, 1.5)
    assert qp.r == pytest.approx(0.5)
    assert qp.u == pytest.approx(1.0)  # 1/(p-1)
    assert qp.v == pytest.approx(2.0)  # 1/(q-1)
    assert qp.lam == pytest.approx(0.5)
    assert qp.mu == pytest.approx(1 / 1.5)
    qp2 = QParam.from_q(2.0)
    assert qp2.q_conj == pytest.approx(2.0)
    assert QParam.from_q(1.0).q_conj == math.inf
    assert QParam.from_q(0.5).q_conj == pytest.approx(-1.0)
    # boundary exponents store reciprocals of zero as inf instead of raising
    degenerate = QParam(1.0, 1.0)
    assert degenerate.u == math.inf and degenerate.v == math.inf


def test_phi_q_scalar_and_argmin():
    qp = QParam.from_q(2.0)
    value, t_opt = phi_q_full(0.5, qp, RHO)
    assert value == pytest.approx(phi_q_full(np.array([0.5]), qp, RHO)[0][0], abs=0.0)
    # the minimizer is interior here and the value is phi(s, t*) - t*/q
    assert 0.0 < t_opt < 1.0
    assert value == pytest.approx(phi(0.5, t_opt, RHO) - t_opt / 2.0, abs=1e-9)


def test_phi_q_envelope_property():
    # phi_q(s) <= phi(s, t) - t/q for every t; equality at the minimizer
    qp = QParam.from_q(-2.0)
    for s in (0.1, 0.5, 0.9):
        v = phi_q_full(s, qp, RHO)[0]
        for t in np.linspace(0.0, 1.0, 41):
            assert v <= phi(s, t, RHO) - t / -2.0 + 1e-10


def test_psi_q_envelope_property():
    qp = QParam.from_q(0.5)
    for s in (0.1, 0.5, 0.9):
        v = psi_q_full(s, qp, RHO)[0]
        for t in np.linspace(0.0, 1.0, 41):
            assert v >= psi(s, t, RHO) - t / 0.5 - 1e-10


def test_phi_q_at_vanishing_slope_weight():
    # as q -> inf the -t/q penalty vanishes and phi_q(s) -> min_t phi(s, t)
    value, t_opt = phi_q_full(0.4, QParam.from_q(1e12), RHO)
    t = np.linspace(0.0, 1.0, 4001)
    bare_min = float(np.min(phi(0.4, t, RHO)))
    assert value == pytest.approx(bare_min, abs=1e-7)
    assert phi(0.4, t_opt, RHO) == pytest.approx(bare_min, abs=1e-7)


def test_phi_q_tilde_matches_phi_q_for_convex_q():
    # for q >= 1 the curve is nondecreasing, so its envelope (the minimum
    # over dominating arguments, a reversed running minimum) is the curve
    curve = phi_q_full(np.linspace(0.0, 1.0, 2001), QParam.from_q(2.0), RHO)[0]
    env = np.minimum.accumulate(curve[::-1])[::-1]
    assert np.max(np.abs(env - curve)) <= 1e-6


@pytest.mark.parametrize(
    "kind, qs", [("phi", (-0.5, -2.0, -10.0)), ("phi", (1.0, 2.0, 10.0)), ("psi", (0.25, 0.5, 0.75))]
)
def test_q_family_rows_match_one_q_calls(monkeypatch, kind, qs):
    # Every q of a call shares the block ends of the bound search (or the
    # single point's table) and keeps its own refinement, so a batched row
    # is the one-q answer bit for bit, also when the points and the kept
    # blocks cross chunk edges: an element budget of 1500 takes 7 points per
    # chunk of block ends and 38 blocks per chunk of kept cells, against one
    # chunk of each at the default budget.
    one_q = phi_q_full if kind == "phi" else psi_q_full
    s = np.linspace(0.0, 1.0, 23)
    ref = [one_q(s, QParam.from_q(q), RHO) for q in qs]
    points = {"scalar": 0.37, "1-element": np.array([0.37])}
    ref_points = {
        name: [one_q(point, QParam.from_q(q), RHO) for q in qs] for name, point in points.items()
    }
    monkeypatch.setattr(envelopes, "_BLOCK_ELEMS", 1500)
    values, t_opt = envelopes._q_opt(s, qs, RHO, kind=kind)
    assert values.shape == t_opt.shape == (len(qs), s.size)
    for k, (v_ref, t_ref) in enumerate(ref):
        assert np.array_equal(values[k], v_ref)
        assert np.array_equal(t_opt[k], t_ref)
    for name, point in points.items():
        values, t_opt = envelopes._q_opt(point, qs, RHO, kind=kind)
        assert values.shape == t_opt.shape == (len(qs), 1), name
        for k, (v_ref, t_ref) in enumerate(ref_points[name]):
            assert np.array_equal(values[k], np.atleast_1d(v_ref)), name
            assert np.array_equal(t_opt[k], np.atleast_1d(t_ref)), name
    assert isinstance(ref_points["scalar"][0][0], float)
    assert ref_points["1-element"][0][0].shape == (1,)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_q_opt_peak_memory_stays_within_the_element_budget():
    # The element budget sizes the chunks of the bound search (the block-end
    # arrays of a chunk of points, and the kept cells with the kernel's
    # temporaries), so a 501-point family of three q values peaks at a few
    # of those chunks, not at 501 x 2001 tables (measured 2.2 MB for each).
    # The q = 1 row and the psi rows take the bound search.
    envelopes._seed_grid()  # built once per process, outside a call's working set
    s = np.linspace(0.0, 1.0, 501)
    for kind, qs in (("phi", (-2.0, -10.0, 1.0)), ("psi", (0.25, 0.5, 0.75))):
        peak = _traced_peak(lambda: envelopes._q_opt(s, qs, DsbsParams(0.9), kind=kind))
        assert peak <= 4_000_000, kind


def test_convex_q_opt_peaks_well_below_the_table_budget():
    # a family of q < 0 only builds no table: its binary search holds a few
    # arrays of one entry per row (measured 0.52 MB)
    envelopes._seed_grid()
    s = np.linspace(0.0, 1.0, 501)
    peak = _traced_peak(lambda: envelopes._q_opt(s, (-2.0, -10.0), DsbsParams(0.9), kind="phi"))
    assert peak <= 750_000


def test_convex_search_takes_at_most_eleven_rounds(monkeypatch):
    # the binary search halves every row's gap of 2001 seed points per
    # round, and only rows still open call the slope: ceil(log2 2001) = 11.
    # It reads the slope's sign only, so it never asks for the curvature
    calls = []
    slope = envelopes._q_slope

    def spy(a, x, q, source, sign, **kwargs):
        calls.append((np.size(x), kwargs))
        return slope(a, x, q, source, sign, **kwargs)

    monkeypatch.setattr(envelopes, "_q_slope", spy)
    a = np.asarray(d2_inv(np.linspace(0.0, 1.0, 501)))
    envelopes._convex_grid_argmin(a, np.full(501, -2.0), DsbsParams(0.9))
    assert 0 < len(calls) <= 11
    assert all(0 < size <= 501 and kwargs == {"curvature": False} for size, kwargs in calls)


_CONVEX_QS = (-1e-3, -0.5, -2.0, -10.0, -1e3)


@pytest.mark.parametrize("rho", [1e-4, 0.01, 0.5, 0.9, 0.99, 0.9999, 0.999998])
def test_convex_bracket_finds_the_table_argmin(rho):
    # phi's objective is convex in b for q < 0, so the binary search lands
    # on the seeding table's argmin (the first on a tie) and reads the
    # table's value bit for bit, at every point of the verify axes: fast
    # verify's 101 and 501 points at every rho, and full verify's 2001
    # points of L3 at two
    axes = (101, 501, 2001) if rho in (0.9, 0.999998) else (101, 501)
    params = DsbsParams(rho)
    x_grid, d2_grid = envelopes._seed_grid()
    for n in axes:
        a = np.asarray(d2_inv(np.linspace(0.0, 1.0, n)))
        table = envelopes._outer_eval(n, x_grid.size, lambda rows: dd2_value(a[rows, None], -x_grid[None, :], params))
        for q in _CONVEX_QS:
            scores = table - d2_grid / q
            want = np.argmin(scores, axis=1)
            idx, val = envelopes._convex_grid_argmin(a, np.full(n, q), params)
            assert np.array_equal(idx, want), (n, q, np.flatnonzero(idx != want))
            assert np.array_equal(val, scores[np.arange(n), want]), (n, q)


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.999998])
def test_convex_rows_match_the_table_route(rho):
    # a mixed call splits by row: its q < 0 rows take the binary search and
    # its q = 1 row the bound search, and every row comes out bit-identical
    # to the single-point table's, the b = 0 end cell included
    s = np.linspace(0.0, 1.0, 101)
    qs = (-2.0, -10.0, 1.0)
    values, t_opt = envelopes._q_opt(s, qs, DsbsParams(rho), kind="phi")
    for i in range(0, s.size, 10):
        point_values, point_t = envelopes._q_opt(s[i], qs, DsbsParams(rho), kind="phi")
        assert np.array_equal(values[:, i : i + 1], point_values), (i, values[:, i], point_values)
        assert np.array_equal(t_opt[:, i : i + 1], point_t), i


@pytest.mark.parametrize("rho", [1e-4, 0.5, 0.999998])
def test_convex_bracket_raises_no_warning(rho):
    # the search never evaluates the slope at b = 0, so no log 0 leaks,
    # from s = 0 (a = 1/2) to s = 1 (a = 0) and over six decades of q
    s = np.linspace(0.0, 1.0, 501)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, t_opt = envelopes._q_opt(s, _CONVEX_QS, DsbsParams(rho), kind="phi")
    assert np.all(np.isfinite(values)) and np.all((0.0 <= t_opt) & (t_opt <= 1.0))


_BOUND_QS = {"phi": (0.3, 1.0, 2.0, 10.0, 100.0), "psi": (-1.0, 0.05, 0.25, 0.75, 0.999, 3.0)}


@pytest.mark.parametrize("rho", [1.0001e-6, 0.5, 0.9, 0.999998])
def test_bound_search_finds_the_table_argmin(rho):
    # the bound search skips only blocks that cannot hold the table's
    # minimum, and scores the rest with the table's float operations: index
    # and value are the table's bit for bit, the first index on a tie, also
    # at s = 0 and s = 1, and an empty s gives rows of length 0
    x_grid, d2_grid = envelopes._seed_grid()
    for n in (0, 1, 2, 101, 501):
        s = np.array([1.0]) if n == 1 else np.linspace(0.0, 1.0, n)
        a = np.asarray(d2_inv(s))
        for kind, qs in _BOUND_QS.items():
            source, sign = (DsbsParams(rho), 1.0) if kind == "phi" else (_mirror(DsbsParams(rho)), -1.0)
            table = envelopes._outer_eval(
                n, x_grid.size, lambda rows: dd2_value(a[rows, None], -x_grid[None, :], source)
            )
            idx, val = envelopes._bound_grid_argmin(a, qs, source, sign)
            assert idx.shape == val.shape == (len(qs), n)
            for k, q in enumerate(qs):
                scores = table - d2_grid / q
                if kind == "psi":
                    scores = -scores
                want = np.argmin(scores, axis=1)
                assert np.array_equal(idx[k], want), (kind, n, q, np.flatnonzero(idx[k] != want))
                assert np.array_equal(val[k], scores[np.arange(n), want]), (kind, n, q)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_bound_search_scores_under_a_third_of_the_table(monkeypatch, rho):
    # the 101-point families of figure and claims T3 and C evaluate the
    # surface on at most a third of the 101 x 2001 table's cells, block ends
    # and refinement included (measured 13-17 %)
    real = envelopes.dd2_value
    elems = []

    def spy(a, b, params):
        elems.append(np.broadcast(a, b).size)
        return real(a, b, params)

    monkeypatch.setattr(envelopes, "dd2_value", spy)
    s = np.linspace(0.0, 1.0, 101)
    for kind, qs in (("phi", (1.0, 2.0, 10.0)), ("psi", (0.25, 0.5, 0.75))):
        elems.clear()
        envelopes._q_opt(s, qs, DsbsParams(rho), kind=kind)
        assert 0 < sum(elems) <= 101 * envelopes._T_GRID_N // 3, (kind, sum(elems))


def _q_family_mp(kind, s, q, rho, t_near):
    """40-digit (value, argmin t) of the q-family at s, on the seed-grid cells around t_near.

    The optimum is the root of the objective's numerical derivative in b
    (mpmath's own differencing, not the closed-form slope), with a solved
    from d2(a) = s (a = 0 at s = 1, where d2 has no finite slope) and
    t = d2(b*).  The root is bracketed by the two grid cells on either side
    of the grid point nearest t_near (b = 1e-30 stands in for the b = 0
    end, where d2 has no finite slope), and a bracketing solver keeps every
    step inside: a secant start at the grid point of a sharp optimum could
    step far off and fail to converge.
    """
    def d2_mp(x):
        return 1 + (x * mpmath.log(x) + (1 - x) * mpmath.log(1 - x)) / mpmath.log(2)

    k = round(t_near * (envelopes._T_GRID_N - 1))
    cells = [min(max(j, 0), envelopes._T_GRID_N - 1) / (envelopes._T_GRID_N - 1) for j in (k - 1, k + 1)]
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        a = mpmath.mpf(0) if s == 1 else mpmath.findroot(lambda x: d2_mp(x) - s, mpmath.mpf(d2_inv(float(s))))

        def objective(b):
            return _dd2_mp(a, b if kind == "phi" else 1 - b, rho) - d2_mp(b) / q

        bracket = [max(mpmath.mpf(d2_inv(t)), mpmath.mpf("1e-30")) for t in cells]
        b = mpmath.findroot(lambda x: mpmath.diff(objective, x), bracket, solver="anderson")
        return objective(b), d2_mp(b)


@pytest.mark.parametrize(
    "kind, s, q, rho",
    [
        ("phi", 0.5, 2.0, 0.9),
        ("phi", 0.3, -2.0, 0.9),
        ("phi", 0.7, 10.0, 0.9),
        ("phi", 0.2, -0.5, 0.9),
        ("psi", 0.5, 0.25, 0.9),
        ("psi", 0.3, 0.5, 0.9),
        ("psi", 0.8, 0.75, 0.9),
        # the grid winner is t = 0.9995, next to b = 0 where the slope is NaN
        ("psi", 0.19069710262066564, 0.75, 0.9591042155889811),
        # the grid winner is the b = 0 end itself; the optimum lies in the last cell
        ("phi", 1.0, -10.0, 0.999998),
        # the grid point t = 0.1675 ties the Newton root's value within its
        # rounding; the root lies 7.5e-9 away in t
        ("phi", 0.8375, -100.0, 0.5),
        ("psi", 0.5285, 0.25, 0.9999),  # the same tie, 1.4e-8 off at the grid point
        # a tie beyond 8 ulps of the value 0.479 but within 8 ulps of 1; the
        # grid's t is 7.7e-12 off
        ("phi", 0.958, 2.0, 0.999998),
    ],
)
def test_q_family_argmin_against_mpmath(kind, s, q, rho):
    # the bound the _q_opt docstring states: the Newton refinement on the
    # closed-form slope puts t within 1e-13 of the exact argmin (golden
    # section stalled at 4e-10..2.3e-8 on these settings) and the value
    # within 1e-14
    one_q = phi_q_full if kind == "phi" else psi_q_full
    value, t_opt = one_q(s, QParam.from_q(q), DsbsParams(rho))
    value_ref, t_ref = _q_family_mp(kind, s, q, rho, t_opt)
    assert float(abs(t_opt - t_ref)) <= 1e-13
    assert float(abs(value - value_ref)) <= 1e-14


def test_q_family_oracle_brackets_a_sharp_optimum_from_its_grid_point():
    # phi at s 0.958, q 2, rho 0.999998 has a sharp optimum 7.7e-12 in t
    # from the grid point t = 0.958.  A secant search started at the grid
    # point stepped far off and raised ValueError; the bracket of the two
    # neighbouring cells finds the optimum from there, so a code that
    # returned the grid point fails the 1e-13 bound instead of erroring
    value, t_opt = phi_q_full(0.958, QParam.from_q(2.0), DsbsParams(0.999998))
    t_grid = round(t_opt * 2000) / 2000
    assert t_grid == 0.958
    value_ref, t_ref = _q_family_mp("phi", 0.958, 2.0, 0.999998, t_grid)
    assert float(abs(t_opt - t_ref)) <= 1e-13 < float(abs(t_grid - t_ref))
    assert float(abs(value - value_ref)) <= 1e-14


@pytest.mark.parametrize("one_q", [phi_q_full, psi_q_full])
@pytest.mark.parametrize("s", [np.full((2, 2), 0.3), [[0.3]]])
def test_q_family_rejects_multidimensional_s(one_q, s):
    # used to fail inside numpy broadcasting with a bare ValueError
    with pytest.raises(InputDomainError, match="1-D"):
        one_q(s, QParam.from_q(0.5), RHO)


def test_q_family_rejects_zero_q_and_keeps_its_seed_grid_read_only():
    with pytest.raises(InputDomainError):
        envelopes._q_opt(np.array([0.5]), (2.0, 0.0), RHO, kind="phi")
    with pytest.raises(InputDomainError):
        phi_q_full(0.5, QParam.from_q(0.0), RHO)
    x_grid, d2_grid = envelopes._seed_grid()
    assert envelopes._seed_grid()[0] is x_grid
    assert x_grid.shape == d2_grid.shape == (2001,)
    assert not x_grid.flags.writeable and not d2_grid.flags.writeable


@pytest.mark.parametrize(
    "rho, s, q",
    [(0.7654547163403725, 0.2463202533898854, -2.0), (0.6225223405473079, 0.15848905843730465, 1.0)],
)
def test_q_search_grid_only_seeds_the_answer(monkeypatch, rho, s, q):
    # d2_inv only seeds the q-family search: with every d2_inv result moved
    # by 1e-9, the argmin t must stay put and the value must be the exact
    # optimum at the moved point s' = d2(d2_inv(s)).  A grid that scored
    # cells with a different function of b than the refinement moved the
    # argmin of these two points by up to 5e-5.
    params, qp = DsbsParams(rho), QParam.from_q(q)
    exact = envelopes.d2_inv
    seed_grid = envelopes._seed_grid.__wrapped__
    _, t_ref = phi_q_full(s, qp, params)
    moved_s, values, argmins = [], [], []
    for shift in (0.0, -1e-9, 1e-9):
        def shifted(x, _shift=shift):
            out = np.clip(np.asarray(exact(x)) + _shift, 0.0, 0.5)
            return float(out) if out.ndim == 0 else out

        monkeypatch.setattr(envelopes, "d2_inv", shifted)
        # the seeding grid is built once per process: rebuild it from the moved d2_inv
        monkeypatch.setattr(envelopes, "_seed_grid", functools.lru_cache(maxsize=1)(seed_grid))
        value, t_opt = phi_q_full(s, qp, params)
        moved_s.append(d2(shifted(s)))
        values.append(value)
        argmins.append(t_opt)
    monkeypatch.setattr(envelopes, "d2_inv", exact)
    t = np.linspace(0.0, 1.0, 400_001)
    dense = np.min(phi(np.array(moved_s)[:, None], t[None, :], params) - t / q, axis=1)
    assert np.max(np.abs(np.array(argmins) - t_ref)) <= 1e-6
    assert np.max(np.abs(dense - np.array(values))) <= 1e-9


@pytest.mark.parametrize("kind", ["phi", "psi"])
@pytest.mark.parametrize("rho", [0.1, 0.9, 0.999])
@pytest.mark.parametrize("q", [1e-300, -1e-300])
def test_q_family_at_the_smallest_accepted_q_raises_no_warning(kind, q, rho):
    # d2/q stays finite down to |q| = 1e-300, for the sign that makes it
    # large (q > 0 for phi, q < 0 for psi) as well as the other
    s = np.linspace(0.0, 1.0, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, t_opt = envelopes._q_opt(s, (q,), DsbsParams(rho), kind=kind)
    assert np.all(np.isfinite(values)) and np.all((0.0 <= t_opt) & (t_opt <= 1.0))


@pytest.mark.parametrize("one_q", [phi_q_full, psi_q_full])
@pytest.mark.parametrize("q", [1e-305, -1e-305, 1e-320, -1e-320])
def test_q_family_rejects_q_below_the_reciprocal_floor(one_q, q):
    # 0 < |q| < 1e-300 overflowed in d2/q, with a warning, and printed -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputDomainError, match="must be nonzero"):
            one_q(0.5, QParam.from_q(q), DsbsParams(0.9))


# ---------------------------------------------------------------------------
# the slope field and the Lagrangian certificate of phi_tilde and psi
# ---------------------------------------------------------------------------

# (surface on the grid, its kind for the slope field, sign taking it to convex)
SURFACES = {"phi_tilde": (phi_tilde_grid, 1.0), "psi": (psi_grid, -1.0)}


def _convex_surface(kind, n, params):
    """The convex form of a surface on the n-point grid, with its slope field."""
    grid, sign = SURFACES[kind]
    axis = np.linspace(0.0, 1.0, n)
    return sign * grid(axis, axis, params), sign * envelopes._slope_field(axis, params, kind=kind)


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.9999])
@pytest.mark.parametrize("kind", SURFACES)
def test_slope_field_matches_central_differences(kind, rho):
    # every interior slope, and the tangential slope on every edge, against
    # central differences of the surface itself (steps of 1e-6, so a
    # relative 1e-5 leaves room for the curvature near s = 0)
    params = DsbsParams(rho)
    n, eps = 21, 1e-6
    axis = np.linspace(0.0, 1.0, n)
    slopes = envelopes._slope_field(axis, params, kind=kind)
    surface = phi_tilde if kind == "phi_tilde" else psi
    inner = axis[1:-1]
    for i, x in enumerate(axis):
        # d/dt along the row s = x, and d/ds along the column t = x
        dt = (surface(x, inner + eps, params) - surface(x, inner - eps, params)) / (2 * eps)
        ds = (surface(inner + eps, x, params) - surface(inner - eps, x, params)) / (2 * eps)
        np.testing.assert_allclose(slopes[1, i, 1:-1], dt, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(slopes[0, 1:-1, i], ds, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("n", [101, 201])
@pytest.mark.parametrize("rho", [0.5, 0.9, 0.99, 0.9999, 0.99999, 0.999998])
@pytest.mark.parametrize("kind", SURFACES)
def test_surfaces_pass_their_lagrangian_certificate(kind, rho, n):
    # measured: phi_tilde <= 5.6e-17, psi <= 3.6e-15; with q01 = b - p* in
    # the slope, phi_tilde read 3.4e-12 at rho 0.999998, grid 201
    values, slopes = _convex_surface(kind, n, DsbsParams(rho))
    assert check_lagrangian_gap(GridFn(values), slopes).worst_violation <= 1e-14


@pytest.mark.parametrize("rho", [0.5, 0.9])
@pytest.mark.parametrize("kind", SURFACES)
def test_midpoint_violation_within_the_lagrangian_gap(kind, rho):
    # a gap of g everywhere bounds every midpoint violation by g: checked
    # against the full 2-D midpoint enumeration, on the healthy surface and
    # with a planted dip, where both are far from 0
    values, slopes = _convex_surface(kind, 101, DsbsParams(rho))
    dipped = values.copy()
    dipped[50, 50] -= 0.05
    for v in (values, dipped):
        midpoint = _midpoint_oracle_2d(v)[0]
        assert midpoint <= check_lagrangian_gap(GridFn(v), slopes).worst_violation + 1e-15


@pytest.mark.parametrize("rho", [0.5, 0.9])
@pytest.mark.parametrize("kind", SURFACES)
def test_planted_faults_trip_the_lagrangian_certificate(kind, rho):
    # a bump (claims T1 and T2 plant 0.01), a dip of 0.05 and a wrong slope
    # at one point must each fail the 1e-9 midpoint tolerance
    values, slopes = _convex_surface(kind, 101, DsbsParams(rho))
    bumped, dipped, wrong = values.copy(), values.copy(), slopes.copy()
    bumped[50, 50] += 0.01
    dipped[50, 50] -= 0.05
    wrong[0, 30, 60] += 0.1
    cases = [(bumped, slopes, 0.009), (dipped, slopes, 0.049), (values, wrong, 1e-9)]
    for v, g, floor in cases:
        assert check_lagrangian_gap(GridFn(v), g).worst_violation > floor
