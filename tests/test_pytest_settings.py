"""The suite's warning filters let a failing property test report itself.

pyproject.toml turns a DeprecationWarning into an error.  Hypothesis
imports libcst to print a failing test's example, and libcst warns on
import; unfiltered, that warning ends the session in an INTERNALERROR and
the falsifying example is lost.  A pytest run in a fresh directory with
the repository's settings shows the example, and a test whose own code
warns still fails.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_a_property_that_fails(x):
    assert x < 5


def test_a_deprecated_call():
    warnings.warn("this call is deprecated", DeprecationWarning)
'''


def test_a_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-rf", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_a_property_that_fails(" in out
    assert "FAILED test_failing.py::test_a_deprecated_call - DeprecationWarning" in out
    assert "2 failed" in out
