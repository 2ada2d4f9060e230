"""The README's Python examples run and print what they say they print.

The ```python blocks of README.md run in order in one namespace, as a
reader would paste them.  Each block's output must equal the ``# ``
comment lines that follow its print calls.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def promised_output(block):
    """The comment lines right after each print call, without their '# '."""
    lines = block.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            for after in lines[i + 1:]:
                if not after.startswith("# "):
                    break
                out.append(after[2:])
    return out


def test_readme_examples_print_what_they_say():
    assert BLOCKS
    namespace: dict = {}
    for block in BLOCKS:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(block, str(README), "exec"), namespace)
        assert promised_output(block), block
        assert printed.getvalue().splitlines() == promised_output(block)
