"""The scene and the robot stay on their own sides of the module boundary.

scenario.py is the scene, and imports nothing of the package but errors.
engine.py is the robot and its replay, which reads a scene only through
the object it is handed, and imports nothing of scenario.  The imports
are read from the source with ast, so one inside a function counts too.
Since the package's __init__ imports nothing, a fresh interpreter that
imports one module loads only what that module imports, which the
subprocess tests below pin.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conformal_cbf

PACKAGE = Path(conformal_cbf.__file__).resolve().parent


def package_imports(module):
    """The modules of the package that module's source imports, by name.

    A name imported from the package itself counts as a module: the
    package's __init__ defines no other names."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # from . import x, from .x import y
                base = f"conformal_cbf.{base}".rstrip(".")
            if base == "conformal_cbf":
                paths = [f"conformal_cbf.{alias.name}" for alias in node.names]
            else:
                paths = [base]
        else:
            continue
        found.update(p.split(".")[1] for p in paths if p.startswith("conformal_cbf."))
    return found


def test_scenario_imports_only_errors():
    assert package_imports("scenario") == {"errors"}


def test_engine_imports_no_scene():
    assert "scenario" not in package_imports("engine")


def test_the_reader_finds_the_imports_there_are():
    assert {"engine", "errors", "predictor", "scenario"} <= package_imports("cli")


def loaded(module):
    """The names in sys.modules after a fresh interpreter imports module."""
    code = f"import json, sys, conformal_cbf.{module}; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return set(json.loads(out.stdout))


@pytest.mark.parametrize(
    "module, absent",
    [("scenario", {"yaml", "conformal_cbf.engine", "concurrent.futures", "multiprocessing"}),
     ("engine", {"yaml", "conformal_cbf.scenario"})],
)
def test_importing_a_module_leaves_the_others_out(module, absent):
    assert not absent & loaded(module)


def test_the_barrier_loads_only_errors_of_the_package():
    package = {name for name in loaded("barrier") if name.startswith("conformal_cbf")}
    assert package == {"conformal_cbf", "conformal_cbf.barrier", "conformal_cbf.errors"}
