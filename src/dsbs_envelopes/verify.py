"""Certification registry: every structural claim checked as one report record.

Each claim has an id, a human-readable anchor string and a runner.  A runner
is a generator of *legs*: ``(excess, witness)`` pairs, where ``excess`` is a
measured violation minus its tolerance and ``witness`` says where it was
measured.  One reducer keeps the first leg with the largest excess, ranking
a NaN excess as +inf, and a claim passes iff that worst excess is <= 0; so a
value that fails to compute can only fail its claim.  A runner that raises a
:class:`DsbsError` records its claim as failed, with ``worst_violation = inf``
and the error as witness.  Failures are recorded, never raised, so a report
always completes.  Reports are deterministic: all sweeps use fixed seeds,
argmins and the reducer break ties toward the first index, and runtimes live
outside the canonical byte representation.

Fault injection (`inject_fault="T1"` etc.) plants a counterexample into the
named claim's private copy of its data, as a self-test that each certifier
can actually catch what it claims to catch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from .binary import DsbsParams, _mirror, _require_int, d2_inv
from .envelopes import (
    QParam,
    phi,
    phi_tilde_grid,
    psi_grid,
    _q_opt,
    _s_slope,
    _slope_field,
)
from .errors import DsbsError, InputDomainError
from .hulls import (
    GridFn,
    check_lagrangian_gap,
    check_midpoint_concave,
    check_midpoint_convex,
    check_monotone,
    check_slope_bounds,
)
from .mre import _dd2_oracle_batch, dd2_value, p_star
from .stationary import (
    RootProblem,
    _gamma_extrema,
    _solve_roots,
    aux_phi_h,
    count_roots_scan,
    hypercontractive_regime,
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
    """Which fixed sweep-size row to run, and the seed of the seeded sweeps.

    ``fast=False`` is the acceptance run; ``fast=True`` is the small
    self-test row (``verify --fast``).  The rows themselves are fixed.
    """

    fast: bool = False
    seed: int = 7

    def __post_init__(self) -> None:
        if not isinstance(self.fast, bool):
            raise InputDomainError(f"fast={self.fast!r} must be a bool")
        # np.random.default_rng would reject a bad seed only mid-run
        _require_int(seed=self.seed)
        if self.seed < 0:
            raise InputDomainError(f"seed={self.seed!r} must be non-negative")

    @classmethod
    def small(cls) -> "VerifyOptions":
        """Cheap settings for fault-injection self-tests."""
        return cls(fast=True)


class _Sizes(NamedTuple):
    pstar_samples: int
    root_problems: int
    curve_points: int
    master_n: int  # the L2 psi grid and the L3 curves


# The sweep sizes of the heavier claims, indexed by VerifyOptions.fast.
_SIZES = {
    False: _Sizes(500, 200, 501, 2001),
    True: _Sizes(40, 5, 101, 501),
}


@dataclass(frozen=True, slots=True)
class ClaimResult:
    claim_id: str
    anchor: str
    worst_violation: float
    witness: dict

    @property
    def passed(self) -> bool:
        """The claim holds iff its worst excess past tolerance is <= 0."""
        return self.worst_violation <= 0.0


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
        return _jsonify({
            "meta": {
                "rho": self.rho,
                "grid_n": self.grid_n,
                "tolerances": dict(sorted(self.tolerances.items())),
                "version": __version__,
            },
            "claims": [self._claim_dict(c, with_runtime) for c in self.claims],
        })

    def to_json_dict(self) -> dict:
        return self._payload(with_runtime=True)

    def canonical_bytes(self) -> bytes:
        """Byte-identical across runs with identical inputs: no runtimes."""
        payload = self._payload(with_runtime=False)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def default_tolerances() -> dict:
    """The claims' tolerances, fixed float or oracle bounds, listed under ``meta.tolerances``.

    Two bounds sit inline in their claims: H's one cell, ``0.5/(_H_GAMMA_N - 1)``,
    and U's root count (exactly one, so a count off by one exceeds 0.5).
    """
    return {
        # float bound: three values within 1e-14 each (q-family optima too); affine runs <= 1e-15.
        # T1/T2 judge a Lagrangian gap by it, which bounds every midpoint violation
        "midpoint": 1e-9,
        # float bound: two value errors of 1e-14 over a step >= 1/1000 move a quotient <= 2e-11;
        # B's edge residual |(dpsi/ds - 1) ln(1/a) - K| measured <= 4.7e-13, rho 1e-6 to 1 - 2e-6
        "slope": 1e-8,
        # float bound: a nondecreasing function's computed drop is at most two value errors
        "monotone": 1e-10,
        # float bound: the Lagrangian gap, f(x0) - g0·x0 + f*(g0), sums three values within
        # 1e-14 at most; measured <= 3.6e-15 for rho from 1e-4 to 1 - 2e-6 (grids 101, 201)
        "envelope_fixpoint": 1e-12,
        # oracle bound: the polished golden-section argmin; measured <= 7e-11 (value <= 2e-15)
        "pstar_gap": 1e-9,
        # float bound: a root's residual is aux_phi_h's few-ulp float error; measured <= 4e-15
        "root_residual": 1e-10,
    }


def _jsonify(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        # strict JSON has no inf/nan: write "inf", "-inf" or "nan" instead
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True, slots=True)
class _Context:
    """Settings, the two shared lattices and their certificates, and the shared q-families.

    ``families`` maps (kind, axis length) to the curves of that family by
    q, filled by `_family` at its first read; ``gaps`` maps a surface name
    to its Lagrangian-gap report, filled by `_surface_gap` at its first read.
    """

    params: DsbsParams
    tol: dict
    size: _Sizes
    seed: int
    fault: str | None
    axis: np.ndarray
    phi_tilde: np.ndarray
    psi: np.ndarray
    families: dict = field(default_factory=dict)
    gaps: dict = field(default_factory=dict)


def _family_reads(ctx) -> tuple:
    """(kind, axis length, q values) of every q-family curve set a claim reads."""
    return (
        ("phi", ctx.size.curve_points, _T3_Q + _C_Q_CONVEX),  # T3, C
        ("psi", ctx.size.curve_points, _C_Q_CONCAVE),  # C
        ("phi", len(ctx.axis), _L_Q_NEG),  # L1
        ("phi", ctx.size.master_n, _L_Q_NEG),  # L3
    )


def _family(ctx, kind: str, n: int, q_list) -> list:
    """The q-slice curves of ``kind`` on the n-point axis, one per q of ``q_list``.

    Every q that any claim reads on that axis comes from one `_q_opt` call,
    made by the first claim that asks; the curves are shared read-only, so
    a fault is planted only into a copy (`_plant`).
    """
    key = (kind, n)
    if key not in ctx.families:
        reads = (q for k, m, q_set in _family_reads(ctx) if (k, m) == key for q in q_set)
        qs = tuple(dict.fromkeys(reads))  # each q once, in first-read order
        curves = _q_opt(np.linspace(0.0, 1.0, n), qs, ctx.params, kind=kind)[0]
        ctx.families[key] = dict(zip(qs, curves))
    return [ctx.families[key][q] for q in q_list]


def _worst(legs) -> tuple[float, dict]:
    """The first leg with the largest excess; a NaN excess ranks as +inf."""
    ranked = ((math.inf if math.isnan(excess) else float(excess), w) for excess, w in legs)
    return max(ranked, key=lambda leg: leg[0])


def _leg(rep, tol: float, **witness) -> tuple:
    """A grid certifier's report as one leg: its excess past ``tol``."""
    return rep.worst_violation - tol, {"where": rep.witness, **witness}


def _plant(ctx, cid: str, values: np.ndarray, delta: float) -> np.ndarray:
    """``values``, with ``delta`` added at the centre when ``cid`` is the fault."""
    if ctx.fault != cid:
        return values
    values = values.copy()
    values[(len(values) // 2,) * values.ndim] += delta
    return values


def _surface_gap(ctx, surface: str, values: np.ndarray):
    """The Lagrangian-gap report of ``values``, the lattice of ``surface`` or a planted copy.

    The report on the shared lattice is computed once, by the first claim
    that asks (T1/T2 and E read the same certificate); a copy with a fault
    planted (`_plant`) gets its own.  psi is concave iff -psi, with the
    slopes negated, passes the convex certificate.
    """
    shared = values is getattr(ctx, surface)
    if shared and surface in ctx.gaps:
        return ctx.gaps[surface]
    slopes = _slope_field(ctx.axis, ctx.params, kind=surface)
    if surface == "psi":
        values, slopes = -values, -slopes
    rep = check_lagrangian_gap(GridFn(values), slopes)
    if shared:
        ctx.gaps[surface] = rep
    return rep


def _claim_t1(ctx):
    # a Lagrangian gap of at most the tolerance bounds every midpoint violation by it
    rep = _surface_gap(ctx, "phi_tilde", _plant(ctx, "T1", ctx.phi_tilde, 0.01))
    yield _leg(rep, ctx.tol["midpoint"], n_pairs=rep.n_pairs)


def _claim_t2(ctx):
    rep = _surface_gap(ctx, "psi", _plant(ctx, "T2", ctx.psi, -0.01))
    yield _leg(rep, ctx.tol["midpoint"], n_pairs=rep.n_pairs)


def _curve_family(ctx, kind, check, q_list, cid=None, delta=0.0, **witness):
    """Midpoint-curvature legs across a family of q-slice curves (`_family`).

    The fault for ``cid`` goes on the first curve.
    """
    curves = _family(ctx, kind, ctx.size.curve_points, q_list)
    for idx, (q, curve) in enumerate(zip(q_list, curves)):
        if idx == 0 and cid is not None:
            curve = _plant(ctx, cid, curve, delta)
        yield _leg(check(GridFn(curve)), ctx.tol["midpoint"], q=q, **witness)


def _claim_t3(ctx):
    yield from _curve_family(ctx, "phi", check_midpoint_concave, _T3_Q, "T3", -0.01)


def _claim_c(ctx):
    yield from _curve_family(
        ctx, "phi", check_midpoint_convex, _C_Q_CONVEX, "C", 0.01, family="phi_q"
    )
    yield from _curve_family(ctx, "psi", check_midpoint_concave, _C_Q_CONCAVE, family="psi_q")


def _claim_l1(ctx):
    # the upper envelopes of psi and the q < 0 curves are the functions themselves (L2, L3)
    theta = GridFn(ctx.phi_tilde)
    theta_bar_vals = ctx.psi
    if ctx.fault == "L1":
        m = len(ctx.axis) // 2
        theta_bar_vals = theta_bar_vals.copy()
        theta_bar_vals[m, m] = theta_bar_vals[m - 1, m]  # one flat step: quotient 0
    theta_bar = GridFn(theta_bar_vals)
    tol = ctx.tol["slope"]
    for ax in (0, 1):
        yield _leg(check_slope_bounds(theta, ax, 1.0, "le"), tol, leg="theta_le", axis=ax)
        yield _leg(check_slope_bounds(theta_bar, ax, 1.0, "ge"), tol, leg="theta_bar_ge", axis=ax)
    for q, curve in zip(_L_Q_NEG, _family(ctx, "phi", len(ctx.axis), _L_Q_NEG)):
        rep = check_slope_bounds(GridFn(curve), 0, 1.0, "ge")
        yield _leg(rep, tol, leg=f"theta_bar_q={q}", axis=0)


def _claim_l2(ctx):
    axis = np.linspace(0.0, 1.0, ctx.size.master_n)
    values = psi_grid(axis, axis, ctx.params)
    if ctx.fault == "L2":
        # a step down from the neighbour: at high rho psi rises by more than
        # 0.01 per step, so a fault added at the centre would not show
        m = len(axis) // 2
        values[m, m] = values[m - 1, m] - 0.01
    yield _leg(check_monotone(GridFn(values)), ctx.tol["monotone"])


def _claim_l3(ctx):
    for q, curve in zip(_L_Q_NEG, _family(ctx, "phi", ctx.size.master_n, _L_Q_NEG)):
        rep = check_monotone(GridFn(_plant(ctx, "L3", curve, -0.01)))
        yield _leg(rep, ctx.tol["monotone"], q=q)


def _claim_e(ctx):
    # the gap bounds how far f lies above its envelope: T1/T2's certificate, at a float bound
    planted = {"phi_tilde": _plant(ctx, "E", ctx.phi_tilde, -0.05), "psi": ctx.psi}
    for surface, values in planted.items():
        yield _leg(_surface_gap(ctx, surface, values), ctx.tol["envelope_fixpoint"], surface=surface)


def _claim_p(ctx):
    rng = np.random.default_rng(ctx.seed)
    a = rng.uniform(0.0, 1.0, ctx.size.pstar_samples)
    b = rng.uniform(0.0, 1.0, ctx.size.pstar_samples)
    closed_p = p_star(a, b, ctx.params)
    closed_v = dd2_value(a, b, ctx.params)
    if ctx.fault == "P":
        closed_p = closed_p + 1e-6
    oracle_p, oracle_v = _dd2_oracle_batch(a, b, ctx.params)
    gap_p = np.abs(closed_p - oracle_p)
    gap_v = np.abs(closed_v - oracle_v)
    i = int(np.argmax(gap_p))
    j = int(np.argmax(gap_v))
    witness = {"argmin_gap": gap_p[i], "value_gap": gap_v[j], "at": [a[i], b[i]]}
    yield gap_p[i] - ctx.tol["pstar_gap"], witness
    yield gap_v[j] - ctx.tol["pstar_gap"], witness


def _claim_u(ctx):
    rng = np.random.default_rng(ctx.seed + 1)
    rows = []
    for _ in range(ctx.size.root_problems):
        theta = rng.uniform(0.02, 0.9)
        v = math.copysign(
            math.exp(rng.uniform(math.log(1.05), math.log(50.0))), rng.choice([-1.0, 1.0])
        )
        rho = (1.0 - theta) / (1.0 + theta)
        rows.append((theta, v, rho * rho * rng.uniform(0.05, 0.95)))
    if ctx.fault == "U":
        theta = 0.5
        rho = (1.0 - theta) / (1.0 + theta)
        rows.append((theta, 2.0, 1.2 * rho * rho))  # r > rho^2: outside the root regime
    _, roots, reasons = _solve_roots(*zip(*rows))
    for (theta, v, r), h, reason in zip(rows, roots, reasons):
        if reason:
            residual, count = math.inf, 0
        else:
            prob = RootProblem(theta, v, r)
            residual = abs(float(aux_phi_h(h, prob)))
            count = count_roots_scan(prob)
        witness = dict(theta=theta, v=v, r=r, residual=residual, scan_count=count)
        yield residual - ctx.tol["root_residual"], witness
        yield abs(count - 1) - 0.5, witness


def _claim_h(ctx):
    cell = 0.5 / (_H_GAMMA_N - 1)
    # _gamma_extrema takes each sweep from (p, q); the labels name it in the witness
    settings = [(p, q, "forward_min") for (p, q) in _H_FORWARD]
    settings += [(p, q, "reverse_max") for (p, q) in _H_REVERSE]
    if ctx.fault == "H":  # r = rho^2/2, below the regime's rho^2 at every rho
        p_fault = 1.0 + ctx.params.rho / math.sqrt(2.0)
        settings.append((p_fault, p_fault, "forward_min"))
    qps = [QParam(p, q) for p, q, _ in settings]
    extrema = _gamma_extrema(qps, ctx.params, _H_GAMMA_N)
    for (p, q, problem), qp, ext in zip(settings, qps, extrema):
        witness = {"p": p, "q": q, "problem": problem, "a": ext.a, "b": ext.b, "value": ext.value}
        witness["hypercontractive"] = hypercontractive_regime(qp, ctx.params)
        yield abs(ext.a - 0.5) - cell, witness
        yield abs(ext.b - 0.5) - cell, witness


def _claim_b(ctx):
    # As the bias a = a(s) -> 0 at the s = 1 edge, psi's exact s-slope (`_s_slope` on the mirror,
    # as T2 reads it) is 1 + K/ln(1/a) + O(a ln(1/a)), K = ln(((k-1)(1-b) + 1)/sqrt(k)), b = b(t):
    # a finite K gives the limit 1.  The closed-form K shares no code with `_dd2_slope`.
    mirror, k = _mirror(ctx.params), ctx.params.k
    for t in _B_T:
        b = float(d2_inv(t))
        limit = math.log(((k - 1.0) * (1.0 - b) + 1.0) / math.sqrt(k))
        for a in (1e-12, 1e-16):
            slope = float(_s_slope(a, b, mirror))
            if ctx.fault == "B" and t == _B_T[0]:
                slope += 0.1
            witness = {"check": "psi_slope", "t": t, "a": a, "slope": slope, "K": limit}
            yield abs((slope - 1.0) * math.log(1.0 / a) - limit) - ctx.tol["slope"], witness
    for p, q in _B_PQ:
        for t in _B_T:
            g_edge = float(phi(1.0, t, ctx.params)) - 1.0 / p - t / q
            g_in = float(phi(1.0 - 1e-4, t, ctx.params)) - (1.0 - 1e-4) / p - t / q
            witness = {"check": "edge_not_optimal", "p": p, "q": q, "t": t, "gap": g_edge - g_in}
            yield g_in - g_edge, witness


# id -> (anchor, runner); the order here is the report order.
_CLAIMS = {
    "T1": ("phi_tilde is midpoint-convex on the unit square", _claim_t1),
    "T2": ("psi is midpoint-concave on the unit square", _claim_t2),
    "T3": ("phi_q is concave for q in {-0.5, -2, -10}", _claim_t3),
    "C": (
        "phi_q is convex for q in {1, 2, 10}; psi_q is concave for q in {0.25, 0.5, 0.75}",
        _claim_c,
    ),
    "L1": ("axis slopes: phi_tilde quotients <= 1; upper envelopes' quotients >= 1", _claim_l1),
    "L2": ("psi is nondecreasing on the master grid, so it is its own upper envelope", _claim_l2),
    "L3": (
        "phi_q for q in {-2, -10} is nondecreasing, so each curve is its own upper envelope",
        _claim_l3,
    ),
    "E": (
        "phi_tilde is a fixed point of the lower convex envelope; psi of the upper concave one",
        _claim_e,
    ),
    "P": ("closed-form inner minimizer matches the brute-force argmin and value", _claim_p),
    "U": ("the stationarity root equation has exactly one root beyond the bend point", _claim_u),
    "H": (
        "above the critical exponent product the Lagrangian optimizer sits at the corner",
        _claim_h,
    ),
    "B": (
        "the slope of psi at the s=1 edge tends to 1, and that edge is never optimal for p>1",
        _claim_b,
    ),
}

CLAIM_IDS = tuple(_CLAIMS)


def verify_all(
    params: DsbsParams,
    grid_n: int = 201,
    inject_fault: str | None = None,
    options: VerifyOptions | None = None,
) -> VerificationReport:
    """Run every claim in the registry and assemble the report in fixed order."""
    # a wrong type would otherwise fail mid-run with a bare AttributeError
    if not isinstance(params, DsbsParams):
        raise InputDomainError(f"params must be a DsbsParams, not {type(params).__name__}")
    if options is not None and not isinstance(options, VerifyOptions):
        raise InputDomainError(f"options must be a VerifyOptions, not {type(options).__name__}")
    _require_int(grid_n=grid_n)
    if not 51 <= grid_n <= 1001:
        raise InputDomainError("grid_n must be in [51, 1001]")
    if inject_fault is not None and inject_fault not in _CLAIMS:
        raise InputDomainError(f"unknown claim id {inject_fault!r}; known: {sorted(_CLAIMS)}")
    tolerances = default_tolerances()
    options = options if options is not None else VerifyOptions()
    axis = np.linspace(0.0, 1.0, grid_n)
    ctx = _Context(
        params=params,
        tol=tolerances,
        size=_SIZES[options.fast],
        seed=options.seed,
        fault=inject_fault,
        axis=axis,
        phi_tilde=phi_tilde_grid(axis, axis, params),
        psi=psi_grid(axis, axis, params),
    )
    claims = []
    runtimes = {}
    for cid, (anchor, runner) in _CLAIMS.items():
        start = time.perf_counter()
        try:
            worst, witness = _worst(runner(ctx))
        except DsbsError as exc:
            worst, witness = math.inf, {"error": f"{type(exc).__name__}: {exc}"}
        runtimes[cid] = (time.perf_counter() - start) * 1000.0
        claims.append(ClaimResult(cid, anchor, worst, _jsonify(witness)))
    return VerificationReport(
        rho=params.rho,
        grid_n=grid_n,
        tolerances=tolerances,
        claims=tuple(claims),
        runtimes_ms=runtimes,
    )
