import ast
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


def imported_names(tree):
    """(name, line) of each name that a module's imports bind, less __future__ and star
    imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno)
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno)
                        for alias in node.names if alias.name != "*")


def exported_names(tree):
    """The string entries of a module's `__all__` list."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name) and target.id == "__all__"
            for elt in node.value.elts if isinstance(elt, ast.Constant)}


SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "xcflow").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    # a name listed in __all__ is re-exported, and one that the benchmark's tracer wraps
    # in this module (tracer.TARGETS, read as above) is looked up there at call time
    tracer_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    module = f"xcflow.{path.stem}"
    wrapped = {attr.split(".")[0] for owner, attr, _ in tracer.TARGETS if owner == module}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | exported_names(tree) | wrapped
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in kept]
    assert unused == [], f"{path.name} imports names it never uses"


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
