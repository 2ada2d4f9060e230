"""Behaviour lock: fixed runs must reproduce their stored outputs byte for byte.

The stored files are in ``tests/data/golden/``; ``_golden.py`` lists the
cases and regenerates them.
"""

import pytest

from _golden import GOLDEN, cases, run_case
from conformal_cbf.predictor import SampledTrajectory

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


@pytest.mark.parametrize("name", ["crowd16", "crowd16_ground_truth", "standing_noise"])
def test_runs_build_no_trajectory_objects(name, tmp_path, monkeypatch):
    """Prediction, rows and scoring work on arrays: a run of any predictor
    kind constructs no SampledTrajectory."""
    built = []
    original = SampledTrajectory.__post_init__

    def counting(self):
        built.append(self.agent_id)
        original(self)

    monkeypatch.setattr(SampledTrajectory, "__post_init__", counting)
    config, spec = CASES[name]
    csv, _ = run_case(name, config, spec, tmp_path)
    assert csv == (GOLDEN / f"{name}.csv").read_bytes()
    assert built == []
