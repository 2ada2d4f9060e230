"""Behaviour lock: fixed runs must reproduce their stored outputs byte for byte.

The stored files are in ``tests/data/golden/``; ``_golden.py`` lists the
cases and regenerates them.
"""

import pytest

from _golden import GOLDEN, cases, run_case

CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    config, spec = CASES[name]
    csv, trace = run_case(name, config, spec, tmp_path)
    assert csv == (GOLDEN / f"{name}.csv").read_bytes()
    expected = (GOLDEN / f"{name}.jsonl").read_bytes().splitlines()
    got = trace.splitlines()
    assert len(got) == len(expected)
    for i, (line, want) in enumerate(zip(got, expected)):
        assert line == want, f"trace line {i + 1} differs"
