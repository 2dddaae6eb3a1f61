import importlib
import os
import subprocess
import sys

import pytest

import xcflow


@pytest.mark.parametrize("module", ["claims", "cli", "diagnostics", "flow", "geometry"])
def test_submodule_exports_reachable(module):
    sub = importlib.import_module(f"xcflow.{module}")
    for name in sub.__all__:
        assert getattr(xcflow, name) is getattr(sub, name)
        assert name in xcflow.__all__


def test_package_does_not_import_sympy():
    # sympy is a test dependency only (tests/metric_oracle.py)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, xcflow.cli; sys.exit('sympy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
