"""Behaviour lock: fixed runs must reproduce their stored outputs byte for byte.

The stored files are in ``tests/data/golden/``; ``_golden.py`` lists the
cases and regenerates them.
"""

import pytest

from _golden import GOLDEN, cases, run_case
from conformal_cbf import engine
from conformal_cbf.dynamics import RobotState
from conformal_cbf.qp import QpProblem
from conformal_cbf.scenario import ScenarioFrameSet

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


def test_frames_build_no_checked_problem_or_state(tmp_path, monkeypatch):
    """Each value of a frame is checked once, where it is made: the engine
    builds its projection problems and step its states without the public
    constructors' checks, so a run checks a RobotState only for the task's
    start."""
    checked = {"problems": 0, "states": []}
    init, post_init = QpProblem.__init__, RobotState.__post_init__

    def count_problem(self, *args, **kwargs):
        checked["problems"] += 1
        init(self, *args, **kwargs)

    def count_state(self):
        checked["states"].append((self.position, self.velocity))
        post_init(self)

    monkeypatch.setattr(QpProblem, "__init__", count_problem)
    monkeypatch.setattr(RobotState, "__post_init__", count_state)
    config, spec = CASES["crowd16"]
    csv, trace = run_case("crowd16", config, spec, tmp_path)
    assert csv == (GOLDEN / "crowd16.csv").read_bytes()
    assert checked["problems"] == 0
    ((position, velocity),) = checked["states"]
    assert list(position) == config["start"] and list(velocity) == config["start_velocity"]


def test_frames_inside_a_window_read_no_scene_rows(tmp_path, monkeypatch):
    """A frame inside a window reads nothing from the scene: the agents at
    a frame are read once per window boundary after the first, by sensing
    (nobody has history at the run's first frame), and d_min and
    n_collide come from one pass over the scene after the run."""
    calls = {"rows_at": 0, "outside sensing": 0}
    sensing = []
    real_rows_at, real_sensed = ScenarioFrameSet.rows_at, engine.sensed_agents

    def rows_at(self, frame):
        calls["rows_at"] += 1
        calls["outside sensing"] += not sensing
        return real_rows_at(self, frame)

    def sensed_agents(*args):
        sensing.append(True)
        try:
            return real_sensed(*args)
        finally:
            sensing.pop()

    monkeypatch.setattr(ScenarioFrameSet, "rows_at", rows_at)
    monkeypatch.setattr(engine, "sensed_agents", sensed_agents)
    config, spec = CASES["crowd16"]
    csv, trace = run_case("crowd16", config, spec, tmp_path)
    assert csv == (GOLDEN / "crowd16.csv").read_bytes()
    frames = len(trace.splitlines())
    assert calls["outside sensing"] == 0
    assert calls["rows_at"] == -(-frames // config["tau_frames"]) - 1
