"""Every exported name resolves, so a stale ``__all__`` entry fails here, and malformed input fails closed."""

import importlib
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dsbs_envelopes as de

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ["", ".binary", ".mre", ".envelopes", ".hulls", ".stationary", ".verify", ".errors"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module("dsbs_envelopes" + module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_traced_names_resolve(monkeypatch):
    # perfbench's tracer wraps each TARGETS name, "layer.function", by
    # getattr on the layer's package module, so a traced name deleted from
    # the package fails the benchmark's traced runs with AttributeError.
    # The file is loaded read-only: no bytecode is written beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name in tracer.TARGETS:
        layer, func = name.split(".")
        if not hasattr(importlib.import_module(f"{tracer.PACKAGE}.{tracer.LAYERS[layer]}"), func):
            missing.append(name)
    assert tracer.TARGETS and missing == [], (
        f"traced names missing from the package: {missing}; drop their tracer rows and "
        "BENCHMARK.json metrics first (ROADMAP item 2)"
    )


# ---------------------------------------------------------------------------
# malformed input fails closed
# ---------------------------------------------------------------------------

RHO = de.DsbsParams(0.9)
SQUARE = np.zeros((3, 3))

# every evaluator that validates a probability or a real array, the bad value in that argument
EVALUATORS = {
    "h2": de.h2,
    "d2": de.d2,
    "d2_inv": de.d2_inv,
    "bconv": lambda x: de.bconv(0.2, x),
    "p_star": lambda x: de.p_star(x, 0.2, RHO),
    "dd2": lambda x: de.dd2(0.3, x, RHO),
    "phi": lambda x: de.phi(x, 0.2, RHO),
    "psi": lambda x: de.psi(0.2, x, RHO),
    "phi_tilde": lambda x: de.phi_tilde(x, 0.2, RHO),
    "phi_tilde_ab": lambda x: de.phi_tilde_ab(0.2, x, RHO),
    "phi_grid": lambda x: de.phi_grid(x, [0.5], RHO),
    "psi_grid": lambda x: de.psi_grid([0.5], x, RHO),
    "phi_tilde_grid": lambda x: de.phi_tilde_grid(x, [0.5], RHO),
    "phi_q_full": lambda x: de.phi_q_full(x, de.QParam.from_q(2.0), RHO),
    "psi_q_full": lambda x: de.psi_q_full(x, de.QParam.from_q(0.5), RHO),
    "aux_phi_h": lambda x: de.aux_phi_h(x, de.RootProblem(0.3, 2.0, 0.2)),
    "GridFn": de.GridFn,
    "check_lagrangian_gap": lambda x: de.check_lagrangian_gap(de.GridFn(SQUARE), x),
}

MALFORMED = {
    "ragged list": [[0.1], [0.2, 0.3]],
    "string": "abc",
    "complex scalar": 1 + 2j,
    "complex array": np.array([0.1 + 1j, 0.2]),
    "None": None,
}


@pytest.mark.parametrize("bad", MALFORMED)
@pytest.mark.parametrize("name", EVALUATORS)
def test_malformed_input_raises_input_domain_error(name, bad):
    # never numpy's bare ValueError or TypeError, and never a complex value
    # cast to its real part with only a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(de.InputDomainError):
            EVALUATORS[name](MALFORMED[bad])


@pytest.mark.parametrize("evaluator", [de.phi_q_full, de.psi_q_full])
def test_q_family_evaluators_take_a_qparam(evaluator):
    with pytest.raises(de.InputDomainError, match="qp must be a QParam, not float"):
        evaluator(0.5, 2.0, RHO)


# ---------------------------------------------------------------------------
# every public callable fails closed on NaN and on a wrong structured parameter
# ---------------------------------------------------------------------------

QP = de.QParam(2.0, 1.5)
PROB = de.RootProblem(0.3, 2.0, 0.2)
CURVE = de.GridFn(np.zeros(3))
SURFACE = de.GridFn(SQUARE)

# every public callable of every module: a valid call, positional arguments in order
PUBLIC_CALLS = {
    "Coupling2x2": (0.25, 0.25, 0.25, 0.25),
    "DsbsParams": (0.9,),
    "GridFn": (SQUARE,),
    "QParam": (2.0, 1.5),
    "RootProblem": (0.3, 2.0, 0.2),
    "VerifyOptions": (True, 7),
    "aux_phi_h": (0.5, PROB),
    "bconv": (0.2, 0.3),
    "check_lagrangian_gap": (SURFACE, np.zeros((2, 3, 3))),
    "check_midpoint_concave": (CURVE,),
    "check_midpoint_convex": (CURVE,),
    "check_monotone": (SURFACE,),
    "check_slope_bounds": (CURVE, 0, 1.0, "le"),
    "count_roots_scan": (PROB, 100_000),
    "d2": (0.3,),
    "d2_inv": (0.3,),
    "dd2": (0.3, 0.4, RHO),
    "dd2_value": (0.3, 0.4, RHO),
    "default_tolerances": (),
    "gamma_extremum": (QP, RHO, 101),
    "h2": (0.3,),
    "hypercontractive_regime": (QP, RHO),
    "lower_convex_envelope": (SURFACE,),
    "p_star": (0.3, 0.4, RHO),
    "phi": (0.3, 0.4, RHO),
    "phi_grid": ([0.1, 0.2], [0.3], RHO),
    "phi_q_full": (0.5, de.QParam.from_q(2.0), RHO),
    "phi_tilde": (0.2, 0.3, RHO),
    "phi_tilde_ab": (0.2, 0.3, RHO),
    "phi_tilde_grid": ([0.1, 0.2], [0.3], RHO),
    "psi": (0.3, 0.4, RHO),
    "psi_grid": ([0.1, 0.2], [0.3], RHO),
    "psi_q_full": (0.5, de.QParam.from_q(0.5), RHO),
    "solve_root_z": (PROB,),
    "stationary_point": (QP, RHO),
    "verify_all": (RHO, 51, None, de.VerifyOptions.small()),
}
# the public callables that take no input: result records and errors, built by the package
OUTPUT_TYPES = {
    "ClaimResult", "ConvexityReport", "GammaExtremum", "MreResult", "StationaryPoint",
    "VerificationReport", "DsbsError", "InconsistencyError", "InputDomainError", "NoRootError",
}
STRUCTURED = (de.DsbsParams, de.QParam, de.RootProblem, de.GridFn, de.VerifyOptions)
# wrong objects for a structured parameter: each one not of the expected type is tried
WRONG_OBJECTS = {"float": 0.9, "str": "x", "QParam": de.QParam(2.0, 2.0), "DsbsParams": RHO}


def _public_callables() -> dict:
    found = {}
    for module in MODULES:
        mod = importlib.import_module("dsbs_envelopes" + module)
        found.update({name: getattr(mod, name) for name in mod.__all__ if callable(getattr(mod, name))})
    return found


def _bad_calls():
    """(id, name, arguments) with NaN in each position, or a wrong object for a structured one."""
    for name, args in PUBLIC_CALLS.items():
        for k, good in enumerate(args):
            yield f"{name}-{k}-nan", name, args[:k] + (float("nan"),) + args[k + 1 :]
            if isinstance(good, STRUCTURED):
                for label, wrong in WRONG_OBJECTS.items():
                    if not isinstance(wrong, type(good)):
                        yield f"{name}-{k}-{label}", name, args[:k] + (wrong,) + args[k + 1 :]


BAD_CALLS = list(_bad_calls())


def test_every_public_callable_has_a_row():
    # a new public name must get a row here, or be declared an output type
    assert set(_public_callables()) == set(PUBLIC_CALLS) | OUTPUT_TYPES
    assert not set(PUBLIC_CALLS) & OUTPUT_TYPES


@pytest.mark.parametrize("name", PUBLIC_CALLS)
def test_public_call_rows_are_valid(name):
    # a row that raised on its own would pass the bad-input test for the wrong reason
    _public_callables()[name](*PUBLIC_CALLS[name])


@pytest.mark.parametrize("name, args", [case[1:] for case in BAD_CALLS], ids=[c[0] for c in BAD_CALLS])
def test_nan_or_wrong_structured_parameter_raises_dsbs_error(name, args):
    # never a bare AttributeError from a wrong object, and never a NaN result
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(de.DsbsError):
            _public_callables()[name](*args)
