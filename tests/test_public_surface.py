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
