import importlib
import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_run_and_check_do_not_import_array(tmp_path):
    # the series table is packed rows in a bytearray; the array module would only add
    # to the peak RSS of `xcf run` and `xcf check`
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    config = tmp_path / "cfg.txt"
    config.write_text(f"bundle = torus\nt_end = 0.1\noutput.dir = {tmp_path / 'out'}\n")
    series = tmp_path / "out" / "series.csv"
    code = ("import sys; from xcflow.cli import main; "
            f"main(['run', '--config', {str(config)!r}]); "
            f"main(['check', '--series', {str(series)!r}, '--kind', 'torus']); "
            "sys.exit('array' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0
    assert series.exists()


def test_python_m_xcflow_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "xcflow", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: xcf ")


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps these names by string; a renamed or removed
    # one would read as `missing:` in a traced run (tracer.py imports only the stdlib)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module}.{attr}"


@pytest.mark.parametrize("error", [
    xcflow.StepFailureError(0.5, 1e-3, "positivity lost at an internal stage"),
    # names its field and node, as a step's positivity check makes it
    pytest.param(xcflow.flow._failure(np.array([[1.0, 1.0], [1.0, -1.0]]), 0.5, 1e-3,
                                      "positivity lost"), id="StepFailureError-field-node"),
    xcflow.NumericOverflowError("df/dt", 3, 0.25),
    xcflow.NumericOverflowError("record field E2", None, 0.0),
    xcflow.NumericOverflowError("integral", None),
    xcflow.SlopeConditionError(0.3, 0.25),
    xcflow.ConfigError("bad", 3),
    xcflow.FieldError("sinusoid profiles need base > amplitude", "profile.amplitude", "profile.base"),
    xcflow.NotApplicableError("epsilon sweep applies to torus runs only"),
    xcflow.InsufficientDataError("need at least two records"),
], ids=lambda error: type(error).__name__)
def test_errors_survive_pickling(error):
    # a forked record process sends its error back to `xcf run` pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
