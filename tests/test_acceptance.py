"""Acceptance criteria, one test per criterion, in order.

Criteria 2-8, 10 and 12 are powered by two full certification runs (rho 0.9
and 0.5) shared through a module fixture; their runtime checks read the
per-claim timers recorded by those runs.  The remaining criteria measure
their own sweeps.  Each test records one printed pass/fail line via the
``acceptance`` fixture; the lines replay in the terminal summary.
"""

import csv
import math
import time

import numpy as np
import pytest

from dsbs_envelopes import (
    DsbsParams,
    GridFn,
    QParam,
    check_lagrangian_gap,
    check_midpoint_concave,
    check_midpoint_convex,
    d2_inv,
    dd2,
    p_star,
    phi_tilde,
    phi_tilde_grid,
    psi_grid,
    stationary_point,
    verify_all,
)
from dsbs_envelopes.cli import main as cli_main
from dsbs_envelopes.envelopes import _slope_field
from dsbs_envelopes.mre import _dd2_oracle_batch, dd2_value

RHO09 = DsbsParams(0.9)
RHO05 = DsbsParams(0.5)


@pytest.fixture(scope="module")
def reports():
    """Full-scale certification at rho = 0.9 and 0.5, computed once."""
    return {
        0.9: verify_all(RHO09, grid_n=201),
        0.5: verify_all(RHO05, grid_n=201),
    }


def _claim(reports, rho, claim_id):
    rep = reports[rho]
    claim = next(c for c in rep.claims if c.claim_id == claim_id)
    return claim, rep.runtimes_ms[claim_id]


def _claim_ok_both(reports, claim_id, budget_ms=None):
    """Claim passed at both rho values, within the runtime budget if given."""
    worst = -math.inf
    slowest = 0.0
    ok = True
    for rho in (0.5, 0.9):
        claim, ms = _claim(reports, rho, claim_id)
        ok = ok and claim.passed
        worst = max(worst, claim.worst_violation)
        slowest = max(slowest, ms)
    if budget_ms is not None:
        ok = ok and slowest <= budget_ms
    return ok, worst, slowest


def test_criterion_01(acceptance):
    # closed-form minimizer against the brute-force oracle, 1e4 pairs per rho
    rng = np.random.default_rng(2026)
    n = 10_000
    a = rng.uniform(0.0, 1.0, n)
    b = rng.uniform(0.0, 1.0, n)
    t0 = time.perf_counter()
    worst_p = worst_v = 0.0
    for rho in (0.1, 0.5, 0.9):
        params = DsbsParams(rho)
        p_o, v_o = _dd2_oracle_batch(a, b, params)
        worst_p = max(worst_p, float(np.max(np.abs(p_star(a, b, params) - p_o))))
        worst_v = max(worst_v, float(np.max(np.abs(dd2_value(a, b, params) - v_o))))
    elapsed = time.perf_counter() - t0
    ok = worst_p <= 1e-9 and worst_v <= 1e-9 and elapsed < 30.0
    acceptance.check(
        1, ok, f"max p gap {worst_p:.2e}, value gap {worst_v:.2e}, {elapsed:.1f} s"
    )


def test_criterion_02(acceptance, reports):
    ok, worst, ms = _claim_ok_both(reports, "T1", budget_ms=180_000)
    acceptance.check(2, ok, f"worst excess {worst:+.2e}, slowest {ms / 1e3:.1f} s")


def test_criterion_03(acceptance, reports):
    ok, worst, ms = _claim_ok_both(reports, "T2", budget_ms=180_000)
    acceptance.check(3, ok, f"worst excess {worst:+.2e}, slowest {ms / 1e3:.1f} s")


def test_criterion_04(acceptance, reports):
    ok, worst, _ = _claim_ok_both(reports, "T3")
    acceptance.check(4, ok, f"worst excess {worst:+.2e}")


def test_criterion_05(acceptance, reports):
    ok, worst, _ = _claim_ok_both(reports, "C")
    acceptance.check(5, ok, f"worst excess {worst:+.2e}")


def test_criterion_06(acceptance, reports):
    ok, worst, _ = _claim_ok_both(reports, "L1")
    acceptance.check(6, ok, f"worst excess {worst:+.2e}")


def test_criterion_07(acceptance, reports):
    ok, worst, _ = _claim_ok_both(reports, "L2")
    acceptance.check(7, ok, f"worst excess {worst:+.2e}")


def test_criterion_08(acceptance, reports):
    ok, worst, _ = _claim_ok_both(reports, "L3")
    acceptance.check(8, ok, f"worst excess {worst:+.2e}")


def test_criterion_09(acceptance):
    # envelope fixpoints with grid refinement, read off the Lagrangian
    # certificate: its gap bounds f - env from above, for phi_tilde and for
    # -psi with the slopes negated.  On an exactly convex grid both gaps sit
    # at rounding noise, so the refinement ratio only binds above a 1e-9 floor.
    gaps = {}
    for n in (201, 401):
        axis = np.linspace(0.0, 1.0, n)
        pt = GridFn(phi_tilde_grid(axis, axis, RHO09))
        ps = GridFn(-psi_grid(axis, axis, RHO09))
        gap_convex = check_lagrangian_gap(pt, _slope_field(axis, RHO09, kind="phi_tilde"))
        gap_concave = check_lagrangian_gap(ps, -_slope_field(axis, RHO09, kind="psi"))
        gaps[n] = max(gap_convex.worst_violation, gap_concave.worst_violation)
    ok = gaps[201] <= 2e-3 and gaps[401] <= max(0.6 * gaps[201], 1e-9)
    acceptance.check(9, ok, f"gap(201) {gaps[201]:.2e}, gap(401) {gaps[401]:.2e}")


def test_criterion_10(acceptance, reports):
    claim, ms = _claim(reports, 0.9, "U")
    ok = claim.passed and ms <= 120_000
    acceptance.check(
        10, ok, f"200 problems, excess {claim.worst_violation:+.2e}, {ms / 1e3:.1f} s"
    )


def test_criterion_11(acceptance):
    # forward-case stationarity: finite-difference gradient of the
    # Lagrangian vanishes at the reconstructed point
    rng = np.random.default_rng(424)
    rho_sq = 0.9 * 0.9
    worst_grad = 0.0
    worst_margin = 1.0
    for _ in range(20):
        p = 1.0 + math.exp(rng.uniform(math.log(0.2), math.log(2.0)))
        r_target = rng.uniform(0.3 * rho_sq, 0.95 * rho_sq)
        qp = QParam(p, 1.0 + r_target / (p - 1.0))
        pt = stationary_point(qp, RHO09)
        margin = min(pt.s, pt.t, 1.0 - pt.s, 1.0 - pt.t)
        worst_margin = min(worst_margin, margin)

        def g(s, t):
            return phi_tilde(s, t, RHO09) - s / qp.p - t / qp.q

        eps = 1e-5
        gs = (g(pt.s + eps, pt.t) - g(pt.s - eps, pt.t)) / (2 * eps)
        gt = (g(pt.s, pt.t + eps) - g(pt.s, pt.t - eps)) / (2 * eps)
        worst_grad = max(worst_grad, abs(gs), abs(gt))
    ok = worst_grad <= 1e-4 and worst_margin > 3e-5
    acceptance.check(
        11, ok, f"worst |grad| {worst_grad:.2e}, interior margin {worst_margin:.2e}"
    )


def test_criterion_12(acceptance, reports):
    ok, worst, _ = _claim_ok_both(reports, "H")
    acceptance.check(12, ok, f"10 settings per rho, worst excess {worst:+.2e}")


def test_criterion_13(acceptance):
    checks = [
        abs(dd2(0.5, 0.5, RHO09).value - 0.0),
        abs(dd2(0.0, 0.0, RHO09).value - (2 - math.log2(1.9))),
        abs(dd2(0.0, 1.0, RHO09).value - (2 - math.log2(0.1))),
        abs(p_star(0.5, 0.5, RHO09) - (1 + 0.9) / 4),
        abs(phi_tilde(0.0, 0.37, RHO09) - 0.37),
    ]
    worst = max(checks)
    acceptance.check(13, worst <= 1e-12, f"worst anchor gap {worst:.2e}")


def test_criterion_14(acceptance, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "fig1"
    code = cli_main(["figure", "--rho", "0.9", "--grid-n", "101", "--out", str(out)])
    assert code == 0

    def read_surface(name):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        vals = np.array([float(r[2]) for r in rows]).reshape(101, 101)
        return vals

    phi_vals = read_surface("phi.csv")
    tilde_vals = read_surface("phi_tilde.csv")
    dominated = bool(np.all(tilde_vals <= phi_vals + 1e-12))
    max_gap = float(np.max(phi_vals - tilde_vals))

    curves = {}
    with open(out / "q_family.csv", newline="") as fh:
        for q_conj, _s, value, family in list(csv.reader(fh))[1:]:
            curves.setdefault((family, q_conj), []).append(float(value))
    curve_ok = True
    for (family, q_conj), vals in curves.items():
        grid = GridFn(np.array(vals))
        conj = float(q_conj)
        if family == "phi_q" and (math.isinf(conj) or conj > 1.0):
            rep = check_midpoint_convex(grid)  # q >= 1
        elif family == "phi_q":
            rep = check_midpoint_concave(grid)  # q < 0
        else:
            rep = check_midpoint_concave(grid)  # psi_q, 0 < q < 1
        curve_ok = curve_ok and rep.worst_violation <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = dominated and max_gap > 0.01 and curve_ok and elapsed < 60.0
    acceptance.check(
        14, ok, f"max envelope gap {max_gap:.3f}, curves ok {curve_ok}, {elapsed:.1f} s"
    )
