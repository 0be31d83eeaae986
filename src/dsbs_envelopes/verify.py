"""Certification registry: every structural claim checked as one report record.

Each claim gets an id, a human-readable anchor string, and a runner that
measures the worst violation as an *excess past its tolerance* — a claim
passes iff its excess is <= 0.  Failures are recorded, never raised, so a
report always completes.  Reports are deterministic: all sweeps use fixed
seeds, argmins break ties toward the first index, and runtimes live outside
the canonical byte representation.

Fault injection (`inject_fault="T1"` etc.) plants a counterexample into the
named claim's private copy of its data, as a self-test that each certifier
can actually catch what it claims to catch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .binary import DsbsParams
from .envelopes import (
    QParam,
    phi,
    phi_q_full,
    phi_tilde_grid,
    psi,
    psi_grid,
    psi_q_full,
    _psi_q_tilde_lattice,
    _psi_tilde_oracle_lattice,
)
from .errors import InputDomainError, NoRootError
from .hulls import (
    GridFn,
    check_midpoint_concave,
    check_midpoint_convex,
    check_monotone,
    check_slope_bounds,
    lower_convex_envelope,
    upper_concave_envelope,
)
from .mre import _dd2_oracle_batch, dd2_value, p_star
from .stationary import (
    RootProblem,
    aux_phi_h,
    count_roots_scan,
    gamma_extremum,
    hypercontractive_regime,
    solve_root_z,
)

__all__ = [
    "VerifyOptions",
    "ClaimResult",
    "VerificationReport",
    "CLAIM_IDS",
    "verify_all",
]

_T3_Q = (-0.5, -2.0, -10.0)
_C_Q_CONVEX = (1.0, 2.0, 10.0)
_C_Q_CONCAVE = (0.25, 0.5, 0.75)
_L_Q_NEG = (-2.0, -10.0)
_B_T = (0.2, 0.5, 0.8)
_B_PQ = ((1.5, 1.5), (3.0, 3.0))
_H_GAMMA_N = 101
_H_FORWARD = ((2.0, 2.0), (3.0, 1.5), (1.95, 1.9), (5.0, 1.21), (10.0, 1.1))
_H_REVERSE = ((0.05, 0.1), (0.05, 0.05), (0.02, 0.15), (0.1, 0.05), (0.03, 0.12))


@dataclass(frozen=True, slots=True)
class VerifyOptions:
    """Sweep sizes for the heavier claims; defaults match the acceptance run."""

    pstar_samples: int = 500
    root_problems: int = 200
    root_scan_n: int = 1_000_000
    curve_points: int = 501
    master_n: int = 2001
    lattice_n: int = 101
    mono_n: int = 501
    seed: int = 7

    def __post_init__(self) -> None:
        if min(self.pstar_samples, self.root_problems) < 1:
            raise InputDomainError("sample counts must be positive")
        if self.root_scan_n < 100_000:
            raise InputDomainError("root_scan_n must be at least 1e5")
        if self.curve_points < 51 or self.mono_n < 51:
            raise InputDomainError("curve_points and mono_n must be at least 51")
        if self.master_n < 101 or self.lattice_n < 3:
            raise InputDomainError("master_n must be >= 101 and lattice_n >= 3")
        if (self.master_n - 1) % (self.lattice_n - 1) != 0:
            raise InputDomainError("master_n - 1 must be a multiple of lattice_n - 1")

    @classmethod
    def small(cls) -> "VerifyOptions":
        """Cheap settings for fault-injection self-tests."""
        return cls(
            pstar_samples=40,
            root_problems=5,
            root_scan_n=100_000,
            curve_points=101,
            master_n=501,
            lattice_n=51,
            mono_n=101,
        )


@dataclass(frozen=True, slots=True)
class ClaimResult:
    claim_id: str
    anchor: str
    passed: bool
    worst_violation: float
    witness: dict


@dataclass(frozen=True, slots=True)
class VerificationReport:
    rho: float
    grid_n: int
    tolerances: dict
    claims: tuple
    runtimes_ms: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def _claim_dict(self, c: ClaimResult, with_runtime: bool) -> dict:
        d = {
            "id": c.claim_id,
            "anchor": c.anchor,
            "passed": c.passed,
            "worst_violation": c.worst_violation,
            "witness": c.witness,
        }
        if with_runtime:
            d["runtime_ms"] = self.runtimes_ms[c.claim_id]
        return d

    def _payload(self, with_runtime: bool) -> dict:
        return {
            "meta": {
                "rho": self.rho,
                "grid_n": self.grid_n,
                "tolerances": dict(sorted(self.tolerances.items())),
                "version": __version__,
            },
            "claims": [self._claim_dict(c, with_runtime) for c in self.claims],
        }

    def to_json_dict(self) -> dict:
        return self._payload(with_runtime=True)

    def canonical_bytes(self) -> bytes:
        """Byte-identical across runs with identical inputs: no runtimes."""
        payload = self._payload(with_runtime=False)
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def default_tolerances(grid_n: int) -> dict:
    return {
        "midpoint": 1e-9,
        "slope": 1e-8,
        "monotone": 1e-10,
        "psi_tilde_gap": 1e-5,
        "phi_q_env_gap": 1e-6,
        "envelope_fixpoint": 0.4 / grid_n,
        "pstar_gap": 1e-9,
        "root_residual": 1e-10,
        "stationarity_grad": 1e-4,
        "boundary_slope": 0.2,
    }


def _jsonify(obj):
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    return obj


class _Context:
    """Shared lattices and settings for one verification run."""

    def __init__(self, params, grid_n, tolerances, options, fault):
        self.params = params
        self.grid_n = grid_n
        self.tol = tolerances
        self.opts = options
        self.fault = fault
        self.axis = np.linspace(0.0, 1.0, grid_n)
        self._phi_tilde = None
        self._psi = None

    def phi_tilde_lattice(self) -> np.ndarray:
        if self._phi_tilde is None:
            self._phi_tilde = phi_tilde_grid(self.axis, self.axis, self.params)
        return self._phi_tilde

    def psi_lattice(self) -> np.ndarray:
        if self._psi is None:
            self._psi = psi_grid(self.axis, self.axis, self.params)
        return self._psi


def _from_report(ctx, cid: str, anchor: str, rep, extra: dict | None = None) -> ClaimResult:
    # Grid reports carry raw violations; claim records carry the excess past
    # tolerance, so that passed <=> worst_violation <= 0 uniformly.
    witness = {"where": _jsonify(rep.witness)}
    if extra:
        witness.update(_jsonify(extra))
    return ClaimResult(
        cid, anchor, bool(rep.passed), float(rep.worst_violation - rep.tol), witness
    )


def _claim_t1(ctx) -> ClaimResult:
    v = ctx.phi_tilde_lattice().copy()
    if ctx.fault == "T1":
        v[ctx.grid_n // 2, ctx.grid_n // 2] += 0.01
    rep = check_midpoint_convex(GridFn(v), ctx.tol["midpoint"], seed=ctx.opts.seed)
    return _from_report(ctx, "T1", _ANCHORS["T1"], rep, {"n_pairs": rep.n_pairs})


def _claim_t2(ctx) -> ClaimResult:
    v = ctx.psi_lattice().copy()
    if ctx.fault == "T2":
        v[ctx.grid_n // 2, ctx.grid_n // 2] -= 0.01
    rep = check_midpoint_concave(GridFn(v), ctx.tol["midpoint"], seed=ctx.opts.seed)
    return _from_report(ctx, "T2", _ANCHORS["T2"], rep, {"n_pairs": rep.n_pairs})


def _curve_family(ctx, q_list, kind: str, fault_first: float):
    """Worst midpoint-curvature excess across a family of q-slice curves."""
    axis = np.linspace(0.0, 1.0, ctx.opts.curve_points)
    worst = -math.inf
    worst_witness = {}
    all_pass = True
    for idx, q in enumerate(q_list):
        curve = (phi_q_full if kind != "psi" else psi_q_full)(axis, QParam.from_q(q), ctx.params)[0]
        if fault_first and idx == 0:
            curve = curve.copy()
            curve[len(curve) // 2] += fault_first
        if (kind == "phi_convex") or (kind == "phi" and q >= 1.0):
            rep = check_midpoint_convex(GridFn(curve), ctx.tol["midpoint"])
        else:
            rep = check_midpoint_concave(GridFn(curve), ctx.tol["midpoint"])
        all_pass &= rep.passed
        excess = rep.worst_violation - rep.tol
        if excess > worst:
            worst = excess
            worst_witness = {"q": q, "where": _jsonify(rep.witness)}
    return all_pass, worst, worst_witness


def _claim_t3(ctx) -> ClaimResult:
    fault = -0.01 if ctx.fault == "T3" else 0.0
    ok, worst, witness = _curve_family(ctx, _T3_Q, "phi", fault)
    return ClaimResult("T3", _ANCHORS["T3"], bool(ok), float(worst), witness)


def _claim_c(ctx) -> ClaimResult:
    fault = +0.01 if ctx.fault == "C" else 0.0
    ok1, worst1, wit1 = _curve_family(ctx, _C_Q_CONVEX, "phi_convex", fault)
    ok2, worst2, wit2 = _curve_family(ctx, _C_Q_CONCAVE, "psi", 0.0)
    worst, wit = (worst1, wit1) if worst1 >= worst2 else (worst2, wit2)
    wit = dict(wit)
    wit["family"] = "phi_q" if worst1 >= worst2 else "psi_q"
    return ClaimResult("C", _ANCHORS["C"], bool(ok1 and ok2), float(worst), wit)


def _claim_l1(ctx) -> ClaimResult:
    theta = GridFn(ctx.phi_tilde_lattice())
    theta_bar_vals = np.maximum.accumulate(
        np.maximum.accumulate(ctx.psi_lattice(), axis=0), axis=1
    )
    if ctx.fault == "L1":
        theta_bar_vals = theta_bar_vals.copy()
        m = ctx.grid_n // 2
        theta_bar_vals[m, m] = theta_bar_vals[m - 1, m]  # one flat step: quotient 0
    theta_bar = GridFn(theta_bar_vals)
    tol = ctx.tol["slope"]
    legs = []
    for ax in (0, 1):
        legs.append(("theta_le", ax, check_slope_bounds(theta, ax, 1.0, "le", tol)))
        legs.append(("theta_bar_ge", ax, check_slope_bounds(theta_bar, ax, 1.0, "ge", tol)))
    for q in _L_Q_NEG:
        curve = phi_q_full(ctx.axis, QParam.from_q(q), ctx.params)[0]
        env = GridFn(np.maximum.accumulate(curve))
        legs.append((f"theta_bar_q={q}", 0, check_slope_bounds(env, 0, 1.0, "ge", tol)))
    worst_leg = max(legs, key=lambda leg: leg[2].worst_violation)
    passed = all(leg[2].passed for leg in legs)
    rep = worst_leg[2]
    witness = {"leg": worst_leg[0], "axis": worst_leg[1], "where": _jsonify(rep.witness)}
    return ClaimResult(
        "L1", _ANCHORS["L1"], bool(passed), float(rep.worst_violation - rep.tol), witness
    )


def _lattice_stride(ctx) -> int:
    return (ctx.opts.master_n - 1) // (ctx.opts.lattice_n - 1)


def _claim_l2(ctx) -> ClaimResult:
    axis, env = _psi_tilde_oracle_lattice(
        ctx.params, master_n=ctx.opts.master_n, stride=_lattice_stride(ctx)
    )
    if ctx.fault == "L2":
        env = env + 2e-5
    direct = psi_grid(axis, axis, ctx.params)
    gaps = np.abs(env - direct)
    ij = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    gap_excess = float(gaps[ij]) - ctx.tol["psi_tilde_gap"]

    mono_axis = np.linspace(0.0, 1.0, ctx.opts.mono_n)
    mono = check_monotone(GridFn(psi_grid(mono_axis, mono_axis, ctx.params)), ctx.tol["monotone"])
    worst = max(gap_excess, mono.worst_violation - mono.tol)
    witness = {
        "oracle_gap_at": [float(axis[ij[0]]), float(axis[ij[1]])],
        "oracle_gap": float(gaps[ij]),
        "monotone": _jsonify(mono.witness),
    }
    return ClaimResult("L2", _ANCHORS["L2"], bool(worst <= 0.0), float(worst), witness)


def _claim_l3(ctx) -> ClaimResult:
    stride = _lattice_stride(ctx)
    worst = -math.inf
    witness = {}
    for q in _L_Q_NEG:
        qp = QParam.from_q(q)
        axis, env, curve = _psi_q_tilde_lattice(
            qp, ctx.params, master_n=ctx.opts.master_n, stride=stride
        )
        if ctx.fault == "L3":
            env = env + 2e-6
        gaps = np.abs(env - curve)
        i = int(np.argmax(gaps))
        excess = float(gaps[i]) - ctx.tol["phi_q_env_gap"]
        if excess > worst:
            worst = excess
            witness = {"q": q, "alpha": float(axis[i]), "gap": float(gaps[i])}
    return ClaimResult("L3", _ANCHORS["L3"], bool(worst <= 0.0), float(worst), witness)


def _claim_e(ctx) -> ClaimResult:
    tol = ctx.tol["envelope_fixpoint"]
    pt = ctx.phi_tilde_lattice().copy()
    if ctx.fault == "E":
        pt[ctx.grid_n // 2, ctx.grid_n // 2] -= 0.05
    lce = lower_convex_envelope(GridFn(pt)).values
    gap_phi = np.abs(lce - pt)
    ij = np.unravel_index(int(np.argmax(gap_phi)), gap_phi.shape)
    ps = ctx.psi_lattice()
    uce = upper_concave_envelope(GridFn(ps)).values
    gap_psi = np.abs(uce - ps)
    kl = np.unravel_index(int(np.argmax(gap_psi)), gap_psi.shape)
    worst = float(max(gap_phi[ij], gap_psi[kl])) - tol
    which = "phi_tilde" if gap_phi[ij] >= gap_psi[kl] else "psi"
    at = ij if which == "phi_tilde" else kl
    witness = {
        "surface": which,
        "s": float(ctx.axis[at[0]]),
        "t": float(ctx.axis[at[1]]),
        "gap": float(max(gap_phi[ij], gap_psi[kl])),
    }
    return ClaimResult("E", _ANCHORS["E"], bool(worst <= 0.0), worst, witness)


def _claim_p(ctx) -> ClaimResult:
    rng = np.random.default_rng(ctx.opts.seed)
    a = rng.uniform(0.0, 1.0, ctx.opts.pstar_samples)
    b = rng.uniform(0.0, 1.0, ctx.opts.pstar_samples)
    closed_p = p_star(a, b, ctx.params)
    closed_v = dd2_value(a, b, ctx.params)
    if ctx.fault == "P":
        closed_p = closed_p + 1e-6
    oracle_p, oracle_v = _dd2_oracle_batch(a, b, ctx.params)
    gap_p = np.abs(closed_p - oracle_p)
    gap_v = np.abs(closed_v - oracle_v)
    i = int(np.argmax(gap_p))
    j = int(np.argmax(gap_v))
    worst = float(max(gap_p[i], gap_v[j])) - ctx.tol["pstar_gap"]
    witness = {
        "argmin_gap": float(gap_p[i]),
        "value_gap": float(gap_v[j]),
        "at": [float(a[i]), float(b[i])],
    }
    return ClaimResult("P", _ANCHORS["P"], bool(worst <= 0.0), worst, witness)


def _root_problem_unchecked(theta: float, v: float, r: float) -> RootProblem:
    """A RootProblem that skips validation; used only to plant U's fault."""
    prob = object.__new__(RootProblem)
    object.__setattr__(prob, "theta", theta)
    object.__setattr__(prob, "v", v)
    object.__setattr__(prob, "r", r)
    object.__setattr__(prob, "rho", (1.0 - theta) / (1.0 + theta))
    return prob


def _claim_u(ctx) -> ClaimResult:
    rng = np.random.default_rng(ctx.opts.seed + 1)
    problems = []
    for _ in range(ctx.opts.root_problems):
        theta = rng.uniform(0.02, 0.9)
        v = math.copysign(
            math.exp(rng.uniform(math.log(1.05), math.log(50.0))), rng.choice([-1.0, 1.0])
        )
        rho = (1.0 - theta) / (1.0 + theta)
        r = rho * rho * rng.uniform(0.05, 0.95)
        problems.append(RootProblem(theta, v, r))
    if ctx.fault == "U":
        theta = 0.5
        rho = (1.0 - theta) / (1.0 + theta)
        problems.append(_root_problem_unchecked(theta, 2.0, 1.2 * rho * rho))
    worst = -math.inf
    witness = {}
    tol = ctx.tol["root_residual"]
    for prob in problems:
        try:
            z = solve_root_z(prob)
            residual = abs(float(aux_phi_h(math.log(z), prob)))
            count = count_roots_scan(prob, ctx.opts.root_scan_n)
        except NoRootError:
            residual, count = math.inf, 0
        excess = max(residual - tol, abs(count - 1) - 0.5)
        if excess > worst:
            worst = excess
            witness = {
                "theta": prob.theta,
                "v": prob.v,
                "r": prob.r,
                "residual": residual,
                "scan_count": count,
            }
    return ClaimResult("U", _ANCHORS["U"], bool(worst <= 0.0), float(worst), _jsonify(witness))


def _claim_h(ctx) -> ClaimResult:
    cell = 0.5 / (_H_GAMMA_N - 1)
    settings = [(p, q, "forward_min") for (p, q) in _H_FORWARD]
    settings += [(p, q, "reverse_max") for (p, q) in _H_REVERSE]
    if ctx.fault == "H":
        settings.append((1.2, 1.2, "forward_min"))
    worst = -math.inf
    witness = {}
    for p, q, problem in settings:
        qp = QParam(p, q)
        ext = gamma_extremum(qp, ctx.params, problem, n=_H_GAMMA_N)
        dist = max(abs(ext.a - 0.5), abs(ext.b - 0.5))
        excess = dist - cell
        if excess > worst:
            worst = excess
            witness = {
                "p": p,
                "q": q,
                "problem": problem,
                "a": ext.a,
                "b": ext.b,
                "value": ext.value,
                "hypercontractive": hypercontractive_regime(qp, ctx.params),
            }
    return ClaimResult("H", _ANCHORS["H"], bool(worst <= 0.0), float(worst), _jsonify(witness))


def _claim_b(ctx) -> ClaimResult:
    # The edge slope converges to 1 only logarithmically (the inner bias
    # enters through its own logarithm), so the certificate is a strictly
    # shrinking |Q-1| chain over four step sizes plus a calibrated absolute
    # bound at the finest step — not machine-level closeness.
    tol = ctx.tol["boundary_slope"]
    worst = -math.inf
    witness = {}
    for t in _B_T:
        base = float(psi(1.0, t, ctx.params))
        quotients = [
            (base - float(psi(1.0 - eps, t, ctx.params))) / eps
            for eps in (1e-4, 1e-5, 1e-6, 1e-7)
        ]
        if ctx.fault == "B" and t == _B_T[0]:
            quotients[-1] += 0.1
        gaps = [abs(qv - 1.0) for qv in quotients]
        chain_excess = max(nxt - cur for cur, nxt in zip(gaps, gaps[1:]))
        excess = max(gaps[-1] - tol, chain_excess)
        if excess > worst:
            worst = excess
            witness = {"check": "psi_slope", "t": t, "quotients": quotients}
    for p, q in _B_PQ:
        qp = QParam(p, q)
        for t in _B_T:
            g_edge = float(phi(1.0, t, ctx.params)) - 1.0 / p - t / q
            g_in = float(phi(1.0 - 1e-4, t, ctx.params)) - (1.0 - 1e-4) / p - t / q
            excess = g_in - g_edge
            if excess > worst:
                worst = excess
                witness = {"check": "edge_not_optimal", "p": p, "q": q, "t": t, "gap": g_edge - g_in}
    return ClaimResult("B", _ANCHORS["B"], bool(worst <= 0.0), float(worst), _jsonify(witness))


_ANCHORS = {
    "T1": "phi_tilde is midpoint-convex on the unit square",
    "T2": "psi is midpoint-concave on the unit square",
    "T3": "phi_q is concave for q in {-0.5, -2, -10}",
    "C": "phi_q is convex for q in {1, 2, 10}; psi_q is concave for q in {0.25, 0.5, 0.75}",
    "L1": "axis slopes: phi_tilde quotients <= 1; upper envelopes' quotients >= 1",
    "L2": "running-max oracle over the master grid reproduces psi; psi is nondecreasing",
    "L3": "running-max envelope of the q<0 slice family equals the family itself",
    "E": "phi_tilde is a fixed point of the lower convex envelope; psi of the upper concave one",
    "P": "closed-form inner minimizer matches the brute-force argmin and value",
    "U": "the stationarity root equation has exactly one root beyond the bend point",
    "H": "above the critical exponent product the Lagrangian optimizer sits at the corner",
    "B": "the slope of psi at the s=1 edge tends to 1, and that edge is never optimal for p>1",
}

_RUNNERS = {
    "T1": _claim_t1,
    "T2": _claim_t2,
    "T3": _claim_t3,
    "C": _claim_c,
    "L1": _claim_l1,
    "L2": _claim_l2,
    "L3": _claim_l3,
    "E": _claim_e,
    "P": _claim_p,
    "U": _claim_u,
    "H": _claim_h,
    "B": _claim_b,
}

CLAIM_IDS = tuple(_RUNNERS)


def _merge_tolerances(tols: dict | None, grid_n: int) -> dict:
    merged = default_tolerances(grid_n)
    if tols:
        unknown = set(tols) - set(merged)
        if unknown:
            raise InputDomainError(f"unknown tolerance keys: {sorted(unknown)}")
        for key, val in tols.items():
            val = float(val)
            if not val > 0.0:
                raise InputDomainError(f"tolerance {key} must be positive")
            merged[key] = val
    return merged


def verify_all(
    params: DsbsParams,
    grid_n: int = 201,
    tols: dict | None = None,
    inject_fault: str | None = None,
    options: VerifyOptions | None = None,
) -> VerificationReport:
    """Run every claim in the registry and assemble the report in fixed order."""
    if not 51 <= grid_n <= 1001:
        raise InputDomainError("grid_n must be in [51, 1001]")
    if inject_fault is not None and inject_fault not in _RUNNERS:
        raise InputDomainError(f"unknown claim id {inject_fault!r}; known: {sorted(_RUNNERS)}")
    opts = options if options is not None else VerifyOptions()
    tolerances = _merge_tolerances(tols, grid_n)
    ctx = _Context(params, grid_n, tolerances, opts, inject_fault)
    claims = []
    runtimes = {}
    for cid in CLAIM_IDS:
        start = time.perf_counter()
        claims.append(_RUNNERS[cid](ctx))
        runtimes[cid] = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        rho=params.rho,
        grid_n=grid_n,
        tolerances=tolerances,
        claims=tuple(claims),
        runtimes_ms=runtimes,
    )
