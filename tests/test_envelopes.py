"""Surface slices, monotone rearrangement, and the slope-indexed families."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsbs_envelopes import (
    DsbsParams,
    InputDomainError,
    QParam,
    d2,
    d2_inv,
    in_s0,
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
from dsbs_envelopes.envelopes import (
    _phi_tilde_oracle_lattice,
    _psi_q_tilde_lattice,
    _psi_tilde_oracle_lattice,
)
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


# ---------------------------------------------------------------------------
# monotone rearrangement
# ---------------------------------------------------------------------------


def test_phi_tilde_piecewise_branches():
    # beta-plane: alpha = 0 forces the value beta exactly; the transposed
    # region is in_s0 with its arguments swapped
    assert phi_tilde(0.0, 0.7, RHO) == 0.7
    assert in_s0(0.7, 0.0, RHO) and not in_s0(0.0, 0.7, RHO)
    # alpha-plane by symmetry
    assert phi_tilde(0.7, 0.0, RHO) == 0.7
    # interior point: strictly above both flat values
    assert not in_s0(0.7, 0.7, RHO)
    assert phi_tilde(0.7, 0.7, RHO) == pytest.approx(0.7418130313508429, abs=1e-13)


def test_phi_tilde_branches_follow_in_s0_on_lattice():
    # the shared kernel: alpha on S0, beta on its transpose, phi elsewhere
    axis = np.linspace(0.0, 1.0, 101)
    alpha, beta = np.meshgrid(axis, axis, indexing="ij")
    values = phi_tilde(alpha, beta, RHO)
    flat_alpha = in_s0(alpha, beta, RHO)
    flat_beta = in_s0(beta, alpha, RHO) & ~flat_alpha
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


def test_psi_tilde_oracle_is_psi():
    # the rearrangement leaves psi unchanged: at rho = 0.5 too, the running
    # maximum over dominated arguments reproduces psi on every lattice point
    params = DsbsParams(0.5)
    axis, env = _psi_tilde_oracle_lattice(params, master_n=2001, stride=20)
    assert np.max(np.abs(env - psi_grid(axis, axis, params))) <= 2e-5


def test_psi_tilde_lattice_oracle_gap():
    axis, env = _psi_tilde_oracle_lattice(RHO, master_n=2001, stride=20)
    assert axis.shape == (101,)
    direct = psi_grid(axis, axis, RHO)
    assert np.max(np.abs(env - direct)) <= 1e-5


# ---------------------------------------------------------------------------
# slope-indexed families
# ---------------------------------------------------------------------------


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


def test_psi_q_tilde_lattice_gap():
    axis, env, curve = _psi_q_tilde_lattice((-2.0,), RHO, master_n=2001, stride=20)
    assert axis.shape == (101,)
    assert np.max(np.abs(env - curve)) <= 1e-6


def test_psi_q_tilde_rejects_convex_range():
    with pytest.raises(InputDomainError):
        _psi_q_tilde_lattice((2.0,), RHO)
    # one q >= 0 anywhere in the family rejects the whole call
    with pytest.raises(InputDomainError):
        _psi_q_tilde_lattice((-2.0, 2.0), RHO)


@pytest.mark.parametrize(
    "kind, qs", [("phi", (-0.5, -2.0, -10.0)), ("phi", (1.0, 2.0, 10.0)), ("psi", (0.25, 0.5, 0.75))]
)
def test_q_family_rows_match_one_q_calls(monkeypatch, kind, qs):
    # One surface table per row chunk scores every q, and each q keeps its
    # own refinement, so a batched row is the one-q answer bit for bit, also
    # when the rows cross chunk edges (7-row chunks against one 256-row one).
    one_q = phi_q_full if kind == "phi" else psi_q_full
    s = np.linspace(0.0, 1.0, 23)
    ref = [one_q(s, QParam.from_q(q), RHO) for q in qs]
    points = {"scalar": 0.37, "1-element": np.array([0.37])}
    ref_points = {
        name: [one_q(point, QParam.from_q(q), RHO) for q in qs] for name, point in points.items()
    }
    monkeypatch.setattr(envelopes, "_CHUNK_ROWS", 7)
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


def _q_family_mp(kind, s, q, rho, b_start):
    """40-digit (value, argmin t) of the q-family at s, from a start b_start.

    The optimum is the root of the objective's numerical derivative in b
    (mpmath's own differencing, not the closed-form slope), with a solved
    from d2(a) = s and t = d2(b*).
    """
    def d2_mp(x):  # the secant steps of findroot may leave (0, 1) for a moment
        return 1 + (x * mpmath.log(x) + (1 - x) * mpmath.log(1 - x)) / mpmath.log(2)

    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        a = mpmath.findroot(lambda x: d2_mp(x) - s, mpmath.mpf(d2_inv(float(s))))

        def objective(b):
            return _dd2_mp(a, b if kind == "phi" else 1 - b, rho) - d2_mp(b) / q

        b = mpmath.findroot(lambda x: mpmath.diff(objective, x), mpmath.mpf(b_start))
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
    ],
)
def test_q_family_argmin_against_mpmath(kind, s, q, rho):
    # the bound the _q_opt docstring states: the Newton refinement on the
    # closed-form slope puts t within 1e-13 of the exact argmin (golden
    # section stalled at 4e-10..2.3e-8 on these settings) and the value
    # within 1e-14
    one_q = phi_q_full if kind == "phi" else psi_q_full
    value, t_opt = one_q(s, QParam.from_q(q), DsbsParams(rho))
    value_ref, t_ref = _q_family_mp(kind, s, q, rho, d2_inv(t_opt))
    assert float(abs(t_opt - t_ref)) <= 1e-13
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
