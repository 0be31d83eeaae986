"""Every exported name resolves, so a stale ``__all__`` entry fails here."""

import importlib

import pytest

MODULES = ["", ".binary", ".mre", ".envelopes", ".hulls", ".stationary", ".verify", ".errors"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module("dsbs_envelopes" + module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
