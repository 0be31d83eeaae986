"""Claim registry: health, determinism, fault injection, serialization."""

import dataclasses
import inspect
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dsbs_envelopes import verify
from dsbs_envelopes import (
    CLAIM_IDS,
    DsbsParams,
    GridFn,
    InputDomainError,
    QParam,
    RootProblem,
    VerifyOptions,
    check_slope_bounds,
    count_roots_scan,
    default_tolerances,
    gamma_extremum,
    verify_all,
)

RHO = DsbsParams(0.9)
FAST = VerifyOptions.small()

REPORT_SCHEMA = {
    "type": "object",
    "required": ["meta", "claims"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["rho", "grid_n", "tolerances", "version"],
            "properties": {
                "rho": {"type": "number"},
                "grid_n": {"type": "integer"},
                "tolerances": {"type": "object"},
                "version": {"type": "string"},
            },
        },
        "claims": {
            "type": "array",
            "minItems": 12,
            "maxItems": 12,
            "items": {
                "type": "object",
                "required": ["id", "anchor", "passed", "worst_violation", "witness", "runtime_ms"],
                "properties": {
                    "id": {"type": "string"},
                    "anchor": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "worst_violation": {"type": "number"},
                    "runtime_ms": {"type": "number"},
                },
            },
        },
    },
}


@pytest.fixture(scope="module")
def healthy_report():
    return verify_all(RHO, grid_n=101, options=FAST)


def test_all_claims_pass_when_healthy(healthy_report):
    assert healthy_report.passed
    assert [c.claim_id for c in healthy_report.claims] == list(CLAIM_IDS)
    for claim in healthy_report.claims:
        assert claim.passed, f"{claim.claim_id}: {claim.worst_violation}"
        assert claim.worst_violation <= 0.0
        assert claim.anchor


def test_runtimes_recorded_separately(healthy_report):
    assert set(healthy_report.runtimes_ms) == set(CLAIM_IDS)
    assert all(ms >= 0.0 for ms in healthy_report.runtimes_ms.values())


def test_canonical_bytes_deterministic(healthy_report):
    again = verify_all(RHO, grid_n=101, options=FAST)
    assert healthy_report.canonical_bytes() == again.canonical_bytes()
    # runtimes differ run to run yet never reach the canonical form
    slower = {cid: ms + 1000.0 for cid, ms in healthy_report.runtimes_ms.items()}
    retimed = dataclasses.replace(healthy_report, runtimes_ms=slower)
    assert retimed.canonical_bytes() == healthy_report.canonical_bytes()
    assert [c["runtime_ms"] for c in retimed.to_json_dict()["claims"]] == [
        slower[cid] for cid in CLAIM_IDS
    ]
    assert b"runtime" not in healthy_report.canonical_bytes()


def test_json_round_trip_and_schema(healthy_report):
    doc = healthy_report.to_json_dict()
    jsonschema.validate(doc, REPORT_SCHEMA)
    rehydrated = json.loads(json.dumps(doc))
    assert rehydrated == doc
    assert doc["meta"]["grid_n"] == 101
    assert doc["meta"]["rho"] == 0.9


# the claims that fail on healthy code at each rho: H's fixed forward
# settings stop being hypercontractive from rho = 0.93 (ROADMAP item 1).
# Mending it must update this table.
FAILING_AT_RHO = {
    1e-4: [], 0.01: [], 0.5: [], 0.9: [], 0.99: ["H"], 0.9999: ["H"], 0.999998: ["H"],
}


@pytest.mark.parametrize("rho", list(FAILING_AT_RHO))
def test_surface_claims_hold_at_every_rho(rho):
    report = verify_all(DsbsParams(rho), grid_n=101, options=FAST)
    failed = [c.claim_id for c in report.claims if not c.passed]
    assert failed == FAILING_AT_RHO[rho], [(c.claim_id, c.worst_violation) for c in report.claims]


@pytest.mark.parametrize("rho", [1e-4, 0.999998])
def test_every_fault_trips_its_claim_at_the_ends_of_the_rho_range(rho):
    # each planted fault shows on top of the claims that fail on healthy
    # code: B's against its exact edge slope, L2's as a negative edge slope,
    # whatever the size of psi's own steps, and H's at r = rho^2/2, outside
    # the regime however small rho is
    for fault in CLAIM_IDS:
        report = verify_all(DsbsParams(rho), grid_n=101, options=FAST, inject_fault=fault)
        failed = {c.claim_id for c in report.claims if not c.passed}
        assert failed == {*FAILING_AT_RHO[rho], fault}, (fault, failed)


def test_fault_injection_trips_exactly_one_claim():
    for params in (RHO, DsbsParams(0.5)):
        for fault in CLAIM_IDS:
            report = verify_all(params, grid_n=101, options=FAST, inject_fault=fault)
            failed = [c.claim_id for c in report.claims if not c.passed]
            assert failed == [fault], f"fault {fault} tripped {failed} at rho {params.rho}"
            assert not report.passed


def _nan_arrays(out):
    return tuple(np.full_like(x, np.nan) for x in out)


def _nan_extrema(extrema):
    return [dataclasses.replace(e, value=math.nan, a=math.nan, b=math.nan) for e in extrema]


def _nan_array(x):
    return np.full_like(x, np.nan)


def _nan_roots(out):
    h0, h, reason = out
    return h0, np.full_like(h, np.nan), reason


# (verify global, a claim that reads it, its result turned to NaN); the test
# id is the global's name, with the claim appended for its second reader
NAN_SOURCES = [
    ("_gamma_extrema", "H", _nan_extrema),
    ("_solve_roots", "U", _nan_roots),
    ("_s_slope", "B", _nan_array),
    ("p_star", "P", _nan_array),
    ("_q_opt", "T3", _nan_arrays),
    ("_q_opt", "L3", _nan_arrays),
    ("psi_grid", "L2", _nan_array),
    ("_slope_field", "T1", _nan_array),
    ("_s_slope", "L2", _nan_array),
]
NAN_IDS = [
    f"{name}-{cid}" if any(name == seen for seen, _, _ in NAN_SOURCES[:k]) else name
    for k, (name, cid, _) in enumerate(NAN_SOURCES)
]


@pytest.mark.parametrize(
    "grid_n, options, calls",
    [
        (101, FAST, {("phi", 101): 6, ("psi", 101): 3, ("phi", 501): 2}),
        (
            201,
            VerifyOptions(),
            {("phi", 501): 6, ("psi", 501): 3, ("phi", 201): 2, ("phi", 2001): 2},
        ),
    ],
    ids=["small-101", "default-201"],
)
def test_one_q_opt_call_per_family(monkeypatch, grid_n, options, calls):
    # T3, C, L1 and L3 share one _q_opt call per (kind, axis length), over
    # the union of the q values they read on that axis: {(kind, n): len(qs)}
    seen = []
    real = verify._q_opt

    def spy(s, qs, params, *, kind):
        seen.append(((kind, np.size(s)), len(qs)))
        return real(s, qs, params, kind=kind)

    monkeypatch.setattr(verify, "_q_opt", spy)
    report = verify_all(RHO, grid_n=grid_n, options=options)
    assert report.passed
    assert len(seen) == len(calls) and dict(seen) == calls


@pytest.mark.parametrize("fault, calls", [(None, 2), ("T1", 3), ("E", 3)])
def test_one_certificate_per_surface(monkeypatch, fault, calls):
    # T1/T2 and E read one Lagrangian certificate per surface; a planted
    # copy gets its own, so a fault never reaches the shared report
    seen = []
    real = verify.check_lagrangian_gap

    def spy(f, slopes):
        seen.append(f.values.shape)
        return real(f, slopes)

    monkeypatch.setattr(verify, "check_lagrangian_gap", spy)
    report = verify_all(RHO, grid_n=101, options=FAST, inject_fault=fault)
    assert [c.claim_id for c in report.claims if not c.passed] == ([fault] if fault else [])
    assert seen == [(101, 101)] * calls


def _plant_edge_slope(out):
    out = out.copy()
    out[out.size // 2] = -0.01
    return out


def _plant_psi_step(out):
    # the two last master columns get a drop in their step; the square
    # shared lattice gets a step down from its neighbour at the centre
    out = out.copy()
    m = out.shape[1] // 2
    if out.shape[0] == 2:
        out[1, m] = out[0, m] - 0.01
    else:
        out[m, m] = out[m - 1, m] - 0.01
    return out


@pytest.mark.parametrize("rho", [1e-4, 0.9])
@pytest.mark.parametrize(
    "name, plant, leg, where",
    [
        ("_s_slope", _plant_edge_slope, "edge_slope", (501,)),
        ("psi_grid", _plant_psi_step, "last_step", (2, 501)),
        ("psi_grid", _plant_psi_step, "lattice", (101, 101)),
    ],
    ids=["edge_slope", "last_step", "lattice"],
)
def test_each_l2_leg_trips_on_its_own_input(monkeypatch, rho, name, plant, leg, where):
    # each leg alone sees its fault, planted only into the output of shape
    # ``where``: dropping a leg from L2 fails its case here
    real = getattr(verify, name)

    def planted(*args, **kw):
        out = real(*args, **kw)
        return plant(out) if np.shape(out) == where else out

    monkeypatch.setattr(verify, name, planted)
    report = verify_all(DsbsParams(rho), grid_n=101, options=FAST)
    claim = next(c for c in report.claims if c.claim_id == "L2")
    assert not claim.passed
    assert claim.witness["leg"] == leg
    assert 0.0099 < claim.worst_violation < 0.0101


@pytest.mark.parametrize(
    "grid_n, options, shapes",
    [(101, FAST, [(101, 101), (2, 501)]), (201, VerifyOptions(), [(201, 201), (2, 2001)])],
    ids=["small-101", "default-201"],
)
def test_l2_fills_no_master_table(monkeypatch, grid_n, options, shapes):
    # L2 reads psi's edge slope along the master axis and psi on the two last
    # master columns: the only square psi table is the shared lattice
    seen = []
    real = verify.psi_grid

    def spy(s_vals, t_vals, params):
        out = real(s_vals, t_vals, params)
        seen.append(out.shape)
        return out

    monkeypatch.setattr(verify, "psi_grid", spy)
    assert verify_all(RHO, grid_n=grid_n, options=options).passed
    assert seen == shapes


def _reject_constant(token):
    raise AssertionError(f"non-finite token {token} in report JSON")


@pytest.mark.parametrize("name, cid, to_nan", NAN_SOURCES, ids=NAN_IDS)
def test_nan_fails_closed(monkeypatch, name, cid, to_nan):
    # A value that fails to compute must fail its claim, never pass it; a
    # raised DsbsError (GridFn refuses NaN) fails the claim, not the run.
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args, **kw: to_nan(real(*args, **kw)))
    report = verify_all(RHO, grid_n=101, options=FAST)
    assert [c.claim_id for c in report.claims] == list(CLAIM_IDS)
    claim = next(c for c in report.claims if c.claim_id == cid)
    assert not claim.passed
    assert claim.worst_violation == math.inf
    # both serialized forms stay strict JSON: no Infinity or NaN tokens
    for text in (report.canonical_bytes(), json.dumps(report.to_json_dict())):
        doc = json.loads(text, parse_constant=_reject_constant)
        assert next(c for c in doc["claims"] if c["id"] == cid)["worst_violation"] == "inf"


def test_unknown_fault_rejected():
    # an unknown id, and an object that is no claim id at all, unhashable or not
    for fault in ("Z9", 5, ["T1"], ("T1",)):
        with pytest.raises(InputDomainError, match="unknown claim id"):
            verify_all(RHO, grid_n=101, options=FAST, inject_fault=fault)


def test_tolerances_are_fixed():
    # no caller can loosen a claim: every threshold is fixed in verify
    assert "tols" not in inspect.signature(verify_all).parameters


def test_report_lists_the_default_tolerances(healthy_report):
    grid_201 = verify_all(RHO, grid_n=201, options=FAST)
    for report in (healthy_report, grid_201):
        assert report.to_json_dict()["meta"]["tolerances"] == default_tolerances()


@pytest.mark.parametrize("as_bool", [False, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "call, size",
    [
        (lambda n: verify_all(RHO, n, options=FAST), 101.5),
        (lambda n: gamma_extremum(QParam(2.0, 2.0), RHO, n=n), 101.5),
        (lambda n: count_roots_scan(RootProblem(0.3, 2.0, 0.2), n), 1e5),
        (lambda n: check_slope_bounds(GridFn(np.linspace(0.0, 1.0, 5)), n, 1.0, "le"), 0.5),
    ],
    ids=["verify_all", "gamma_extremum", "count_roots_scan", "check_slope_bounds"],
)
def test_non_integer_sizes_rejected(call, size, as_bool):
    # numpy would fail a float or bool size with a bare TypeError, or take a bool as 0/1
    with pytest.raises(InputDomainError, match="must be an int"):
        call(True if as_bool else size)


def test_argument_types_rejected(monkeypatch):
    # refused before any grid is built, not mid-run with a bare AttributeError
    monkeypatch.setattr(verify, "phi_tilde_grid", lambda *args: pytest.fail("grid built"))
    for kwargs in ({"params": 0.9}, {"params": RHO, "options": True}, {"params": RHO, "options": {}}):
        with pytest.raises(InputDomainError, match=next(reversed(kwargs))):
            verify_all(grid_n=101, **kwargs)


def test_grid_bounds_enforced():
    with pytest.raises(InputDomainError):
        verify_all(RHO, grid_n=31, options=FAST)
    with pytest.raises(InputDomainError):
        verify_all(RHO, grid_n=1201, options=FAST)


def test_default_tolerances_are_fixed_floats():
    # one table for every grid: no entry depends on the grid size
    assert not inspect.signature(default_tolerances).parameters
    tols = default_tolerances()
    assert sorted(tols) == [
        "envelope_fixpoint", "midpoint", "monotone",
        "pstar_gap", "root_residual", "slope",
    ]
    assert all(type(v) is float and 0.0 < v < 1.0 for v in tols.values())
    assert tols["envelope_fixpoint"] == 1e-12
    assert tols["midpoint"] == 1e-9


def test_readme_sweep_table_matches_sizes():
    # README's sweep-size table documents the code's sizes, row by row and
    # column by column, so neither can change without the other
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| row |"))
    rows = {}
    for line in lines[start + 2 :]:  # past the header and its separator
        if not line.startswith("|"):
            break
        label, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[label] = tuple(int(cell) for cell in cells)
    assert rows == {
        "full (default)": tuple(verify._SIZES[False]),
        "`--fast`": tuple(verify._SIZES[True]),
    }


def test_options_validation():
    # np.random.default_rng would reject a bad seed only mid-run
    for kwargs in ({"seed": 7.5}, {"seed": True}, {"seed": -1}, {"fast": "yes"}, {"fast": 1}):
        with pytest.raises(InputDomainError, match=next(iter(kwargs))):
            VerifyOptions(**kwargs)
    # two fields pick one of the fixed size rows and the seed
    assert VerifyOptions.small() == VerifyOptions(fast=True)
    assert dataclasses.replace(VerifyOptions.small(), seed=3) == VerifyOptions(fast=True, seed=3)
    assert [f.name for f in dataclasses.fields(VerifyOptions)] == ["fast", "seed"]
