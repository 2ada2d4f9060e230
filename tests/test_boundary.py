"""The scene and the robot stay on their own sides of the module boundary.

scenario.py is the scene, and imports nothing of the package but errors.
engine.py is the robot and its replay, which reads a scene only through
the object it is handed, and imports nothing of scenario.  The imports
are read from the source with ast, so one inside a function counts too.
"""

import ast
from pathlib import Path

import conformal_cbf

PACKAGE = Path(conformal_cbf.__file__).resolve().parent


def package_imports(module):
    """The modules of the package that module's source imports, by name.

    A name imported from the package itself counts as a module: importing
    it runs the package's __init__, which imports the engine."""
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
