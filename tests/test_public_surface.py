"""Every exported name resolves, so a stale ``__all__`` entry fails here."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
