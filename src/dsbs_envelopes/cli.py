"""Command-line front end: eval, figure, verify, roots.

Exit codes are fixed for CI use: 0 success (all claims pass), 1 claim
failure, 2 usage/config error, 3 I/O error.  Values are printed with 12
significant digits; every number comes straight from the library call,
and apart from that formatting only psi's p_star is relabelled to Y.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from ._svg import contour_plot, polyline_plot
from .binary import DsbsParams, _mirror, _prepare_prob, _require_finite_real, d2, d2_inv, h2
from .envelopes import (
    QParam,
    phi_grid,
    phi_q_full,
    phi_tilde_grid,
    psi_grid,
    psi_q_full,
    _flat,
    _q_opt,
)
from .errors import DsbsError, InputDomainError
from .mre import dd2
from .stationary import (
    RootProblem,
    _f_pad,
    _log_w_of_h,
    _posed_case,
    _regime_case,
    _root_side,
    _scan_sign_changes,
    _solve_roots,
    aux_phi_h,
    count_roots_scan,
)
from .verify import VerifyOptions, verify_all

_FIG_Q_PHI = (1.0, 2.0, 10.0, -0.5, -2.0, -10.0)
_FIG_Q_PSI = (0.25, 0.5, 0.75)
_ROOTS_SCAN_N = 1_000_000


def _g12(x: float) -> str:
    return f"{float(x):.12g}"


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _need(args, *names) -> list:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise InputDomainError(f"eval {args.fn} needs --" + ", --".join(missing))
    return [getattr(args, n) for n in names]


def cmd_eval(args) -> int:
    params = DsbsParams(args.rho)
    fn = args.fn
    lines: list
    if fn == "h2":
        (a,) = _need(args, "a")
        value, lines = h2(a), []
    elif fn == "d2":
        (a,) = _need(args, "a")
        value, lines = d2(a), []
    elif fn == "dd2":
        a, b = _need(args, "a", "b")
        res = dd2(a, b, params)
        value = res.value
        lines = [f"p_star = {_g12(res.p_star)}"]
    elif fn in ("phi", "psi", "phi_tilde"):
        # each bias is solved once; the value, the branch and p_star derive from it
        s, t = _need(args, "s", "t")
        s, t = _prepare_prob(s, "s"), _prepare_prob(t, "t")
        a, b = d2_inv(s), d2_inv(t)
        source = _mirror(params) if fn == "psi" else params
        c = params.crossover
        if fn == "phi_tilde" and _flat(a, b, c):
            value, lines = s, ["branch = alpha-plane"]
        elif fn == "phi_tilde" and _flat(b, a, c):
            value, lines = t, ["branch = beta-plane"]
        else:
            res = dd2(a, b, source)
            value, p = res.value, res.p_star
            lines = ["branch = interior"] if fn == "phi_tilde" else []
            # P(1,1) in the labels of Y, the mirror's cell (1,0) for psi
            lines.append(f"p_star = {_g12(a - p if fn == 'psi' else p)}")
    elif fn in ("phi_q", "psi_q"):
        s, q = _need(args, "s", "q")
        qp = QParam.from_q(q)
        if fn == "phi_q":
            value, t_opt = phi_q_full(s, qp, params)
            lines = [f"argmin t = {_g12(t_opt)}"]
        else:
            value, t_opt = psi_q_full(s, qp, params)
            lines = [f"argmax t = {_g12(t_opt)}"]
    else:  # pragma: no cover - argparse restricts choices
        raise InputDomainError(f"unknown function {fn!r}")
    print(_g12(value))
    for line in lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def _surface_csv(axis, grid) -> str:
    """The surface as ``s,t,value`` lines, s-major, every number with 12 significant digits.

    The text comes from one ``%`` template: each row's lines are one
    `str.join` over the `_g12` axis labels, with a ``%.12g`` slot for each
    value, and a single ``%`` over ``grid``'s `tolist` fills every slot in C.
    ``%.12g`` and ``format(v, ".12g")`` give the same text for every float,
    NaN, infinities and -0.0 included, so the file matches a per-cell
    formatter byte for byte.
    """
    labels = [_g12(x) for x in axis]
    template = ["s,t,value\n"]
    for s in labels:
        template += (s, ",", f",%.12g\n{s},".join(labels), ",%.12g\n")
    return "".join(template) % tuple(grid.ravel().tolist())


def _q_family_rows(axis, params):
    """The q-family CSV text and its curves ``(q_conj, q, values, family)``.

    Like `_surface_csv`, the text is one ``%`` template, a `str.join` per
    curve over the `_g12` labels of ``axis`` with a ``%.12g`` slot per
    value, filled by a single ``%`` over all curves' values; it matches
    formatting every field with `_g12` byte for byte.
    """
    curves = []
    for kind, qs in (("phi", _FIG_Q_PHI), ("psi", _FIG_Q_PSI)):
        for q, vals in zip(qs, _q_opt(axis, qs, params, kind=kind)[0]):
            curves.append((QParam.from_q(q).q_conj, q, vals, f"{kind}_q"))
    labels = [_g12(s) for s in axis]
    template = ["q_conj,s,value,family\n"]
    for q_conj, _q, _vals, family in curves:
        head = f"{_g12(q_conj)},"
        template += (head, f",%.12g,{family}\n{head}".join(labels), f",%.12g,{family}\n")
    values = np.concatenate([vals for _qc, _q, vals, _f in curves])
    return "".join(template) % tuple(values.tolist()), curves


def _contour_levels(grid) -> list:
    lo, hi = float(np.min(grid)), float(np.max(grid))
    return [lo + (hi - lo) * k / 9.0 for k in range(1, 9)]


def cmd_figure(args) -> int:
    params = DsbsParams(args.rho)
    if not 51 <= args.grid_n <= 2001:
        raise InputDomainError(f"grid_n={args.grid_n!r} outside [51, 2001]")
    axis = np.linspace(0.0, 1.0, args.grid_n)
    surfaces = {
        "phi": phi_grid(axis, axis, params),
        "phi_tilde": phi_tilde_grid(axis, axis, params),
        "psi": psi_grid(axis, axis, params),
    }
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, grid in surfaces.items():
            _write_atomic(os.path.join(args.out, f"{name}.csv"), _surface_csv(axis, grid))
        q_csv, q_curves = _q_family_rows(axis, params)
        _write_atomic(os.path.join(args.out, "q_family.csv"), q_csv)
        if args.svg:
            for name, grid in surfaces.items():
                svg = contour_plot(
                    axis, axis, grid, _contour_levels(grid),
                    title=f"{name} level sets (rho = {params.rho:g})",
                    xlabel="s", ylabel="t",
                )
                _write_atomic(os.path.join(args.out, f"{name}.svg"), svg)
            series = [
                (axis, vals, f"{family} q = {q:g}") for (_qc, q, vals, family) in q_curves
            ]
            svg = polyline_plot(
                series,
                title=f"slope-family envelopes (rho = {params.rho:g})",
                xlabel="s", ylabel="value",
            )
            _write_atomic(os.path.join(args.out, "q_family.svg"), svg)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    n_files = 4 + (4 if args.svg else 0)
    print(f"wrote {n_files} files to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    params = DsbsParams(args.rho)
    options = VerifyOptions(fast=args.fast)
    if args.seed is not None:
        options = replace(options, seed=args.seed)
    report = verify_all(
        params,
        grid_n=args.grid_n,
        inject_fault=args.inject_fault,
        options=options,
    )
    for claim in report.claims:
        status = "PASS" if claim.passed else "FAIL"
        runtime = report.runtimes_ms[claim.claim_id]
        print(
            f"{claim.claim_id:<3} {status} worst={claim.worst_violation:+.3e} "
            f"[{runtime:8.1f} ms] {claim.anchor}"
        )
    try:
        _write_atomic(args.out, json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(("all claims pass" if report.passed else "CLAIM FAILURE") + f"; report: {args.out}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


def cmd_roots(args) -> int:
    pq_form = args.p is not None or args.q is not None
    theta_form = args.theta is not None or args.v is not None or args.r is not None
    if pq_form == theta_form:
        raise InputDomainError("give either --p/--q (with --rho) or --theta/--v/--r")
    if pq_form:
        if args.p is None or args.q is None:
            raise InputDomainError("--p and --q must be given together")
        params = DsbsParams(args.rho)
        theta = params.theta
        qp = QParam(args.p, args.q)
        r = qp.r
        case = _regime_case(qp)
        if case is None:
            print(f"theta = {_g12(theta)}   case: none   r = {_g12(r)}")
        else:
            side, v = _root_side(qp, case)
            print(
                f"theta = {_g12(theta)}   case: {case}   exponent side: {side} = {_g12(v)}"
                f"   r = {_g12(r)}"
            )
    else:
        if args.theta is None or args.v is None or args.r is None:
            raise InputDomainError("--theta, --v and --r must be given together")
        theta, v, r = args.theta, args.v, args.r
        _require_finite_real(theta=theta, v=v, r=r)
        if not sys.float_info.min <= theta < 1.0 or abs(v) <= 1.0:
            raise InputDomainError(f"need theta in [{sys.float_info.min!r}, 1) and |v| > 1")
    rho = (1.0 - theta) / (1.0 + theta)
    rho_sq = rho * rho
    if r <= 0.0:
        print(f"regime: r = {_g12(r)} <= 0 — stationarity root machinery does not apply")
        return 0
    if r > rho_sq * (1.0 + 1e-12):
        print(f"regime: r = {_g12(r)} > rho^2 = {_g12(rho_sq)} — no interior root")
        return 0
    if pq_form:
        _posed_case(qp)  # raises where (p, q) lies in no regime
    print(f"regime: r = {_g12(r)} <= rho^2 = {_g12(rho_sq)} — root regime")
    prob = RootProblem(theta, v, r)
    (h0,), (h,), (reason,) = _solve_roots([theta], [v], [r])
    if reason:
        print(f"no root: {reason}")
        return 0
    print(f"eta0 = {_g12(math.exp(-_log_w_of_h(h0, theta)))}   h0 = {_g12(h0)}")
    print(f"z = {_g12(math.exp(h))}   h = {_g12(h)}")
    print(f"residual = {_g12(abs(float(aux_phi_h(h, prob))))}")
    count = count_roots_scan(prob, _ROOTS_SCAN_N)
    print(f"scan_count = {count} (n = {_ROOTS_SCAN_N})")
    if count > 1:
        print(_extra_sign_changes(prob, h, *_scan_sign_changes(prob, _ROOTS_SCAN_N)))
    return 0


def _extra_sign_changes(prob: RootProblem, h: float, at_h: np.ndarray, at_f: np.ndarray) -> str:
    """Whether the scan's sign changes other than the one nearest the root h are float noise.

    ``at_h`` and ``at_f`` hold h and f at both ends of each sign change
    (`_scan_sign_changes`, rerun only for a count above 1, so a count of 1
    costs one scan).  A change is noise where |f| at both its ends is
    within the `aux_phi_h` float pad there.
    """
    extra = np.arange(at_h.shape[1]) != np.argmin(np.abs(np.log(at_h).mean(axis=0) - math.log(h)))
    at_h, at_f = at_h[:, extra], at_f[:, extra]
    noise = np.all(np.abs(at_f) <= _f_pad(at_h, prob), axis=0)
    if noise.all():
        lo, hi = f"{at_h.min():.3g}", f"{at_h.max():.3g}"
        where = f"near h = {lo}" if lo == hi else f"for h in [{lo}, {hi}]"
        return f"every extra sign change lies where |f| is within the aux_phi_h float pad (float noise {where})"
    return f"an extra sign change near h = {at_h[0, ~noise][0]:.3g} has |f| beyond the aux_phi_h float pad"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-1e1`` as a value, not as an option.

    argparse alone takes only ``-123`` and ``-1.5`` for negative numbers, so
    ``--q -1e1`` (how Python prints small and large negatives) would fail
    with "expected one argument".  Here any negative float literal, its
    fraction and exponent optional, is a value; ``-inf`` and ``-h`` stay
    option strings.  Subparsers are built with the parent's class, so all
    five parsers share this.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


# built on the first main() call, not at import, and reused for every later
# call in the process: parse_args never mutates the parser and returns a fresh
# Namespace, and the cmd_* stored as defaults look up library names at call time
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dsbs-envelopes",
        description="Divergence-region envelopes of a symmetric binary pair.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument(
        "fn",
        choices=["h2", "d2", "dd2", "phi", "psi", "phi_q", "psi_q", "phi_tilde"],
    )
    p_eval.add_argument("--rho", type=float, required=True)
    for coord in ("a", "b", "s", "t", "q"):
        p_eval.add_argument(f"--{coord}", type=float)
    p_eval.set_defaults(run=cmd_eval)

    p_fig = sub.add_parser("figure", help="emit surface and q-family data files")
    p_fig.add_argument("--rho", type=float, required=True)
    p_fig.add_argument("--grid-n", type=int, default=101)
    p_fig.add_argument("--out", default=".")
    p_fig.add_argument("--svg", action="store_true", help="also write SVG plots")
    p_fig.set_defaults(run=cmd_figure)

    p_ver = sub.add_parser("verify", help="run the certification registry")
    p_ver.add_argument("--rho", type=float, required=True)
    p_ver.add_argument("--grid-n", type=int, default=201)
    p_ver.add_argument("--out", default="verify_report.json")
    p_ver.add_argument("--inject-fault", metavar="CLAIM")
    p_ver.add_argument("--fast", action="store_true", help="small sweep sizes (self-test scale)")
    p_ver.add_argument("--seed", type=int)
    p_ver.set_defaults(run=cmd_verify)

    p_roots = sub.add_parser("roots", help="explore the stationarity root equation")
    p_roots.add_argument("--rho", type=float, default=0.9)
    p_roots.add_argument("--p", type=float)
    p_roots.add_argument("--q", type=float)
    p_roots.add_argument("--theta", type=float)
    p_roots.add_argument("--v", type=float)
    p_roots.add_argument("--r", type=float)
    p_roots.set_defaults(run=cmd_roots)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except DsbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
