"""Command-line contract: exit codes, formatting, file outputs."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dsbs_envelopes import (
    DsbsParams, QParam, RootProblem, d2_inv, p_star, phi, phi_q_full, phi_tilde, psi, stationary_point
)
from dsbs_envelopes.binary import _mirror
from dsbs_envelopes.cli import _build_parser, _extra_sign_changes, main
from dsbs_envelopes.mre import dd2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_dd2_bit_for_bit(capsys):
    code, out, _ = run_cli(capsys, "eval", "dd2", "--rho", "0.9", "--a", "0.3", "--b", "0.4")
    assert code == 0
    lines = out.strip().splitlines()
    res = dd2(0.3, 0.4, DsbsParams(0.9))
    assert lines[0] == f"{res.value:.12g}"
    assert lines[1] == f"p_star = {res.p_star:.12g}"


@pytest.mark.parametrize(
    "fn, rho, s, t",
    [("phi", 0.9, 0.3, 0.4), ("psi", 0.9, 0.3, 0.4), ("phi_tilde", 0.5, 0.2, 0.25), ("psi", 0.999998, 0.01, 0.9)],
)
def test_eval_surface_bit_for_bit(capsys, fn, rho, s, t):
    # the value is the library's, and p_star that of the optimal coupling at
    # the biases d2_inv(s), d2_inv(t); psi's is P(X=1, Y=1) in the labels of
    # Y, the mirror's cell (1, 0): a minus the mirror's p_star
    code, out, _ = run_cli(capsys, "eval", fn, "--rho", str(rho), "--s", str(s), "--t", str(t))
    assert code == 0
    params = DsbsParams(rho)
    a, b = d2_inv(s), d2_inv(t)
    value = {"phi": phi, "psi": psi, "phi_tilde": phi_tilde}[fn](s, t, params)
    want = [f"{value:.12g}"] + (["branch = interior"] if fn == "phi_tilde" else [])
    if fn == "psi":
        want.append(f"p_star = {a - p_star(a, b, _mirror(params)):.12g}")
    else:
        want.append(f"p_star = {p_star(a, b, params):.12g}")
    assert out.strip().splitlines() == want


def test_eval_phi_q_reports_argmin(capsys):
    code, out, _ = run_cli(capsys, "eval", "phi_q", "--rho", "0.9", "--s", "0.5", "--q", "2")
    assert code == 0
    lines = out.strip().splitlines()
    value, t_opt = phi_q_full(0.5, QParam.from_q(2.0), DsbsParams(0.9))
    assert lines[0] == f"{value:.12g}"
    assert lines[1] == f"argmin t = {t_opt:.12g}"


def test_eval_phi_tilde_flat_branch(capsys):
    code, out, _ = run_cli(capsys, "eval", "phi_tilde", "--rho", "0.9", "--s", "0", "--t", "0.7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0.7"
    assert lines[1] == "branch = beta-plane"


def test_eval_missing_coordinate(capsys):
    code, _, err = run_cli(capsys, "eval", "dd2", "--rho", "0.9", "--a", "0.3")
    assert code == 2
    assert "--b" in err


def test_eval_bad_rho(capsys):
    code, _, err = run_cli(capsys, "eval", "h2", "--rho", "1.5", "--a", "0.3")
    assert code == 2
    assert "rho" in err


def test_figure_outputs(tmp_path, capsys):
    out = tmp_path / "fig"
    code, stdout, _ = run_cli(
        capsys, "figure", "--rho", "0.9", "--grid-n", "51", "--out", str(out)
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["phi.csv", "phi_tilde.csv", "psi.csv", "q_family.csv"]
    with open(out / "phi.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "t", "value"]
    assert len(rows) == 1 + 51 * 51
    # row-major: first block sweeps t at s = 0
    assert float(rows[1][0]) == 0.0
    assert float(rows[2][1]) > 0.0
    with open(out / "q_family.csv", newline="") as fh:
        qrows = list(csv.reader(fh))
    assert qrows[0] == ["q_conj", "s", "value", "family"]
    conj_values = {r[0] for r in qrows[1:]}
    assert "inf" in conj_values  # q = 1 maps to an infinite conjugate
    families = {r[3] for r in qrows[1:]}
    assert families == {"phi_q", "psi_q"}


def test_figure_svg_flag(tmp_path, capsys):
    out = tmp_path / "fig"
    code, _, _ = run_cli(
        capsys, "figure", "--rho", "0.9", "--grid-n", "51", "--out", str(out), "--svg"
    )
    assert code == 0
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert svgs == ["phi.svg", "phi_tilde.svg", "psi.svg", "q_family.svg"]
    head = (out / "phi.svg").read_text()[:200]
    assert head.startswith("<svg")


def test_figure_grid_bounds(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "figure", "--rho", "0.9", "--grid-n", "5", "--out", str(tmp_path)
    )
    assert code == 2
    assert "grid_n" in err


def test_failed_writes_leave_no_temp_file(tmp_path, capsys):
    # a directory where an output file should go makes the final replace fail
    out = tmp_path / "fig"
    (out / "phi.csv").mkdir(parents=True)
    code, _, err = run_cli(
        capsys, "figure", "--rho", "0.9", "--grid-n", "51", "--out", str(out)
    )
    assert code == 3
    assert "i/o error" in err
    report = tmp_path / "rep"
    report.mkdir()
    code, _, err = run_cli(
        capsys, "verify", "--rho", "0.9", "--grid-n", "101", "--fast", "--out", str(report)
    )
    assert code == 3
    assert "i/o error" in err
    assert not list(tmp_path.rglob("*.tmp*"))


def test_verify_fast_report(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run_cli(
        capsys, "verify", "--rho", "0.9", "--grid-n", "101", "--fast", "--out", str(report)
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if " PASS " in ln or " FAIL " in ln]
    assert len(lines) == 12
    assert all(" PASS " in ln for ln in lines)
    doc = json.loads(report.read_text())
    assert len(doc["claims"]) == 12


def test_verify_fault_exit_code(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "--rho", "0.9", "--grid-n", "101", "--fast",
        "--inject-fault", "P", "--out", str(report),
    )
    assert code == 1
    assert any(ln.startswith("P") and " FAIL " in ln for ln in out.splitlines())
    doc = json.loads(report.read_text())
    failed = [c["id"] for c in doc["claims"] if not c["passed"]]
    assert failed == ["P"]


def test_verify_rejects_infinite_tolerance(capsys, tmp_path):
    # no tolerance can be loosened from the command line, so --tol midpoint=inf
    # can never print "T1 PASS" over a planted fault: it is an unknown argument
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main([
            "verify", "--rho", "0.9", "--fast", "--grid-n", "101",
            "--tol", "midpoint=inf", "--inject-fault", "T1", "--out", str(report),
        ])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --tol" in err
    assert not report.exists()


def test_verify_rejects_negative_seed(capsys, tmp_path):
    # used to die inside np.random.default_rng with a traceback and exit 1
    report = tmp_path / "r.json"
    code, out, err = run_cli(
        capsys, "verify", "--rho", "0.9", "--fast", "--grid-n", "101",
        "--seed", "-1", "--out", str(report),
    )
    assert code == 2
    assert "seed" in err
    assert out == ""
    assert not report.exists()


def test_roots_pq_form(capsys):
    code, out, _ = run_cli(capsys, "roots", "--rho", "0.9", "--p", "2", "--q", "1.5")
    assert code == 0
    assert "root regime" in out
    z_line = next(ln for ln in out.splitlines() if ln.startswith("z = "))
    z = float(z_line.split()[2])
    assert z == pytest.approx(14.985902196432242, rel=1e-10)
    assert "scan_count = 1" in out


def test_roots_pq_form_solves_the_stationary_point_problem(capsys):
    # reverse case with |u| > |v|: stationary_point solves the v-side, and
    # so must roots (choosing the u-side by magnitude printed z = 64.98...)
    code, out, _ = run_cli(
        capsys, "roots", "--rho", "0.9", "--p", "0.6", "--q", "0.3"
    )
    assert code == 0
    assert "z = 830.387718615 " in out
    assert "case: reverse   exponent side: v" in out
    z = stationary_point(QParam(0.6, 0.3), DsbsParams(0.9)).z
    z_line = next(ln for ln in out.splitlines() if ln.startswith("z = "))
    assert float(z_line.split()[2]) == pytest.approx(z, rel=1e-10)


def test_roots_pq_outside_every_regime(capsys):
    # r = 0.75 lies in the root range, but p < 0 < q < 1 is no case's regime
    code, out, err = run_cli(capsys, "roots", "--rho", "0.9", "--p", "-0.5", "--q", "0.5")
    assert code == 2
    assert "case: none" in out and "root regime" not in out
    assert "none of the forward, reverse and mixed regimes" in err
    # out of the root range the output stays informational
    code, out, _ = run_cli(capsys, "roots", "--rho", "0.9", "--p", "2", "--q", "0.5")
    assert code == 0
    assert "does not apply" in out


def test_roots_prints_zero_r_without_sign(capsys):
    # p = 1 makes r = (p-1)(q-1) zero; with q < 1 the product is -0.0
    code, out, _ = run_cli(capsys, "roots", "--rho", "0.9", "--p", "1", "--q", "0.5")
    assert code == 0
    header, regime = out.splitlines()
    assert header.endswith("   r = 0")
    assert regime.startswith("regime: r = 0 <= 0")


def test_roots_no_root_regime_informational(capsys):
    code, out, _ = run_cli(capsys, "roots", "--rho", "0.9", "--p", "2", "--q", "2")
    assert code == 0
    assert "no interior root" in out


def test_roots_requires_one_form(capsys):
    code, _, err = run_cli(capsys, "roots", "--rho", "0.9", "--p", "2", "--theta", "0.3")
    assert code == 2
    assert "either" in err


@pytest.mark.parametrize(
    "theta, v, r", [("0.5", "2", "nan"), ("0.5", "2", "inf"), ("0.5", "nan", "-1")]
)
def test_roots_theta_form_rejects_non_finite(capsys, theta, v, r):
    code, out, err = run_cli(capsys, "roots", "--theta", theta, "--v", v, "--r", r)
    assert code == 2
    assert out == ""
    assert "must be a finite real number" in err


def test_roots_rejects_subnormal_theta(capsys):
    # at theta = 1e-310 W's log1p argument overflowed and roots reported no
    # sign change; the smallest normal float still solves
    code, out, err = run_cli(capsys, "roots", "--theta", "1e-310", "--v", "3", "--r", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: need theta in [2.2250738585072014e-308, 1)")
    code, out, _ = run_cli(capsys, "roots", "--theta", "2.2250738585072014e-308", "--v", "3", "--r", "0.5")
    assert code == 0
    assert "h = 472.264279022" in out and "scan_count = 1" in out


def test_roots_theta_form_matches_pq(capsys):
    theta = (1 - 0.9) / (1 + 0.9)
    code, out, _ = run_cli(
        capsys, "roots", "--theta", str(theta), "--v", "2.0", "--r", "0.5"
    )
    assert code == 0
    h_line = next(ln for ln in out.splitlines() if ln.startswith("z = "))
    h = float(h_line.split()[-1])
    assert h == pytest.approx(math.log(14.985902196432242), rel=1e-10)


def test_roots_scans_a_fixed_grid(capsys):
    code, out, _ = run_cli(capsys, "roots", "--theta", "0.3", "--v", "2", "--r", "0.2")
    assert code == 0
    assert out.splitlines()[-1] == "scan_count = 1 (n = 1000000)"
    # the grid size is no option: --scan-n is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--theta", "0.3", "--v", "2", "--r", "0.2", "--scan-n", "100000"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --scan-n" in err


def test_roots_explains_extra_sign_changes(capsys):
    # at r = rho^2*(1 - 1e-12) the scan counts 3 sign changes, two of them
    # where aux_phi_h is within its float pad of 0 near the root; a count of
    # 1 prints no such line (test_roots_scans_a_fixed_grid)
    code, out, _ = run_cli(capsys, "roots", "--theta", "0.1", "--v", "1.05", "--r", "0.6694214876026363")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "scan_count = 3 (n = 1000000)",
        "every extra sign change lies where |f| is within the aux_phi_h float pad"
        " (float noise near h = 4.57e-06)",
    ]


def test_extra_sign_change_beyond_the_pad():
    # two planted changes with |f| = 1e-3: the one nearer the root h = 1 is
    # the root, the other is reported as no float noise
    prob = RootProblem(0.3, 2.0, 0.2)
    at_h = np.array([[1.0, 2.0], [1.01, 2.01]])
    at_f = np.array([[1e-3, -1e-3], [-1e-3, 1e-3]])
    assert _extra_sign_changes(prob, 1.005, at_h, at_f) == (
        "an extra sign change near h = 2 has |f| beyond the aux_phi_h float pad"
    )


@pytest.mark.parametrize("r", ["1e-300", "1e-310", "5e-324"])
def test_roots_subnormal_r(capsys, r):
    # (1-theta)^2/r overflowed for subnormal r, warned, and gave a wrong
    # reason; RuntimeWarnings are errors under this suite
    code, out, err = run_cli(capsys, "roots", "--theta", "0.5", "--v", "2", "--r", r)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "no root: no sign change of the root equation up to h = 1e4"


@pytest.mark.parametrize("fn, q", [("phi_q", "1e-320"), ("psi_q", "-1e-320")])
def test_eval_q_family_rejects_a_tiny_q(capsys, fn, q):
    # d2/q overflowed: a warning, then -inf, or a traceback under -W error
    code, out, err = run_cli(capsys, "eval", fn, "--rho", "0.9", "--s", "0.5", "--q", q)
    assert (code, out) == (2, "")
    assert err.count("error: ") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "template, exponent_form, plain_form",
    [
        ("eval phi_q --rho 0.9 --s 0.5 --q {}", "-1e1", "-10.0"),
        ("roots --theta 0.3 --v {} --r 0.2", "-3e0", "-3"),
        ("roots --rho 0.9 --p 0.5 --q {}", "-2e0", "-2"),
        ("eval phi_q --rho 0.9 --s 0.5 --q {}", "-inf", None),
    ],
)
def test_negative_values_in_exponent_form(capsys, template, exponent_form, plain_form):
    # argparse alone took only -123 and -1.5 for negative numbers, so a value
    # printed by repr, such as -1e-05, was read as an unknown option string
    argv = template.format(exponent_form).split()
    if plain_form is None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        return
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *template.format(plain_form).split()) == (0, out, "")


def test_repeated_calls_share_no_state(capsys):
    # one process, one parser: no call may see what an earlier one parsed
    dd2_argv = ["eval", "dd2", "--rho", "0.9", "--a", "0.3", "--b", "0.4"]
    code, first, _ = run_cli(capsys, *dd2_argv)
    assert code == 0
    code, _, err = run_cli(capsys, "eval", "dd2", "--rho", "0.9", "--a", "0.3")
    assert code == 2
    assert "--b" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--rho", "0.9", "--tol", "x=1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "roots", "--theta", "0.3", "--v", "2", "--r", "0.2")
    assert code == 0
    assert out.splitlines()[-1] == "scan_count = 1 (n = 1000000)"
    code, out, err = run_cli(capsys, "roots", "--rho", "0.9", "--p", "2", "--q", "1.5")
    assert code == 0
    assert "give either" not in err and "root regime" in out
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert run_cli(capsys, *dd2_argv) == (0, first, "")
    assert _build_parser() is _build_parser()


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "dsbs_envelopes.cli", "--version"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "0.1.0" in out.stdout
