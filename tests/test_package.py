import importlib

import pytest

import xcflow


@pytest.mark.parametrize("module", ["claims", "cli", "diagnostics", "flow", "geometry"])
def test_submodule_exports_reachable(module):
    sub = importlib.import_module(f"xcflow.{module}")
    for name in sub.__all__:
        assert getattr(xcflow, name) is getattr(sub, name)
        assert name in xcflow.__all__
