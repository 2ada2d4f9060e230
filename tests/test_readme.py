"""The README's Python examples run and print what they say they print,
and its table of config keys lists the keys a config may set, each with
its default: one key per field of SimConfig and RobotTask.

The ```python blocks of README.md run in order in one namespace, as a
reader would paste them.  Each block's output must equal the ``# ``
comment lines that follow its print calls.
"""

import contextlib
import io
import re
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import yaml

from conformal_cbf.cli import build_setup
from conformal_cbf.engine import RobotTask, SimConfig

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)


def config_table():
    """(key, default) for each row of the table that follows the config
    file's description; a default is YAML, a fraction such as 1/30, or
    'required'."""
    table = TEXT[TEXT.index("The config file is one flat YAML mapping."):]
    table = table[:table.index("\n\n", table.index("| key |"))]
    return re.findall(r"^\| `(\w+)` \| `?([^`|]*?)`? \|", table, re.M)


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


def test_readme_lists_every_config_key_with_its_default():
    rows = config_table()
    keys = [key for key, _ in rows]
    accepted = {f.name for f in fields(SimConfig)} | {f.name for f in fields(RobotTask)}
    assert len(keys) == len(set(keys)) == 22
    assert set(keys) == accepted
    # setting a key to its listed default changes nothing
    plain = build_setup({"goal": [1.0, 0.0]})
    for key, default in rows:
        if default == "required":
            assert key == "goal"
            continue
        value = float(Fraction(default)) if "/" in default else yaml.safe_load(default)
        config, task = build_setup({"goal": [1.0, 0.0], key: value})
        assert config == plain[0] and repr(task) == repr(plain[1]), key
