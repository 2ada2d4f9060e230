"""Behaviour lock: fixed runs must reproduce their stored outputs byte for byte.

The stored files are in ``tests/data/golden/``; ``_golden.py`` lists the
cases and regenerates them.
"""

import pytest

from _golden import GOLDEN, cases, run_case
from conformal_cbf import engine

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
    """Prediction, rows and scoring work on arrays for any predictor kind,
    with no per-agent object or call: each window is predicted in at most
    one predict call and scored in at most one window_loss call, each
    frame's rows come from one _rows call, and every track any of them is
    given is one (agents, samples, 2) stack."""
    calls = {"predict": 0, "window_loss": 0, "_rows": 0}
    stacks = []

    def count(fn_name, stack_of):
        fn = getattr(engine, fn_name)

        def wrapper(*args, **kwargs):
            calls[fn_name] += 1
            stacks.append(stack_of(args))
            return fn(*args, **kwargs)

        monkeypatch.setattr(engine, fn_name, wrapper)

    count("predict", lambda args: args[2])  # the histories
    count("window_loss", lambda args: args[2])  # the predicted positions
    count("_rows", lambda args: args[2].positions)
    config, spec = CASES[name]
    csv, trace = run_case(name, config, spec, tmp_path)
    assert csv == (GOLDEN / f"{name}.csv").read_bytes()
    frames = len(trace.splitlines())
    windows = -(-frames // config["tau_frames"])
    assert calls["_rows"] == frames
    assert 0 < calls["predict"] <= windows
    assert 0 < calls["window_loss"] <= windows
    assert all(s.ndim == 3 and s.shape[2] == 2 for s in stacks)
