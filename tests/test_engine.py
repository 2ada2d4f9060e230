"""Closed-loop behavior on small handcrafted scenes.

The scenes are sized so a run takes well under a second: a corridor a
few tens of pixels long, one to two pedestrians, 10 fps.  Several tests
replay the frame trace offline and rebuild what the engine must have
computed, so they exercise the bookkeeping (window boundaries, margin
used per frame, constraint counts) and not just the headline metrics.
"""

import json
import math
import os
import sys
import tempfile
from dataclasses import replace

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _golden import CROSSING, cases
from _oracles import (
    differentiate,
    distance_reference,
    future_window,
    history_window,
    predict_reference,
    scalar_row,
    scene_from_frames,
)
from conformal_cbf import barrier, engine
from conformal_cbf.cli import BUILTIN_SCENES, build_setup
from conformal_cbf.dynamics import RobotState
from conformal_cbf.conformal import ConformalState
from conformal_cbf.engine import SimConfig, run, sweep
from conformal_cbf.errors import ConfigError, InfeasibleRunError, InputError, SingularityError
from conformal_cbf.predictor import GROUND_TRUTH, NOISE_BOUNDED, PredictorKind
from conformal_cbf.scenario import (
    RobotTask,
    ScenarioFrameSet,
    sensed_agents,
    synth_scene,
)


def make_task(start, goal, gain=1.0, radius=2.0):
    return RobotTask(
        start=RobotState(
            position=np.array(start, dtype=np.float64),
            velocity=np.zeros(2),
        ),
        goal=np.array(goal, dtype=np.float64),
        attract_gain=gain,
        goal_radius=radius,
    )


def shuttle(agent_id, x, amp, half_period, duration, start_sign=1):
    """A pedestrian walking a vertical line back and forth through y=0."""
    waypoints, sign, t = [], start_sign, 0.0
    while t <= duration + half_period:
        waypoints.append([t, [x, sign * amp]])
        sign, t = -sign, t + half_period
    return {"id": agent_id, "label": "Pedestrian", "waypoints": waypoints}


def crossing_scene(duration=30.0):
    return synth_scene(
        {
            "scene_name": "crossing",
            "fps": 10.0,
            "duration": duration,
            "agents": [
                shuttle(1, x=25.0, amp=20.0, half_period=4.0, duration=duration),
                shuttle(2, x=45.0, amp=20.0, half_period=5.0, duration=duration,
                        start_sign=-1),
            ],
        }
    )


def standing_scene(position=(30.0, 1.5), duration=40.0, agent_id=3):
    x, y = position
    return synth_scene(
        {
            "scene_name": "standing",
            "fps": 10.0,
            "duration": duration,
            "agents": [
                {
                    "id": agent_id,
                    "label": "Pedestrian",
                    "waypoints": [[0.0, [x, y]], [duration, [x, y]]],
                }
            ],
        }
    )


BASE = SimConfig(
    dt=0.1,
    tau_frames=5,
    horizon_frames=10,
    alpha_slope=2.0,
    k_acc=4.0,
    k_rep=200.0,
    rho0=30.0,
    delta=0.5,
    eta=1.0,
    epsilon=0.0,
    lambda_initial=0.0,
    max_frames=400,
)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"dt": 0.0},
            {"tau_frames": 1},
            {"horizon_frames": 4},
            {"alpha_slope": 0.0},
            {"k_acc": -1.0},
            {"delta": 1.0},
            {"epsilon": 0.5},
            {"epsilon": -0.5},
            {"eta": 0.0},
            {"k_att": 0.0},
            {"max_frames": 0},
            {"collision_distance": -2.0},
            {"relax_lambda_step": 0.0},
            {"relax_max_steps": -1},
            {"k_rep": 0.0},
            {"k_rep": 1e200},
            {"rho0": -1.0},
            {"rho0": 1e-200},
            {"delta": math.nan},
            {"seed": -1},
            {"seed": 1.5},
            # a bool is an int to Python, but never a frame count or a seed
            {"max_frames": True},
            {"seed": True},
            {"relax_max_steps": True},
            # a predictor is a PredictorKind, not its name
            {"predictor": "ground-truth-oracle"},
            {"predictor": 1.0},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            replace(BASE, **overrides)

    def test_defaults_derive_from_barrier(self):
        cfg = BASE
        assert cfg.collision_threshold() == cfg.cbf.zero_level_distance()
        assert cfg.relaxation_step() == cfg.eta * (0.5 - cfg.epsilon)
        assert replace(cfg, collision_distance=3.0).collision_threshold() == 3.0
        assert replace(cfg, relax_lambda_step=7.0).relaxation_step() == 7.0


class TestEmptyScene:
    def test_cruises_straight_to_goal(self):
        scene = scene_from_frames({})
        cfg = replace(BASE, tau_frames=3, horizon_frames=6, max_frames=200)
        metrics = run(cfg, scene, make_task((0.0, 0.0), (10.0, 0.0), radius=0.5))
        assert metrics.reached and metrics.t_goal > 0.0
        assert metrics.n_collide == 0
        assert metrics.d_min == math.inf
        assert math.isnan(metrics.l_avg)
        assert metrics.inflation_events == 0
        assert all(lam == 0.0 for _, lam in metrics.lambda_trace)

    def test_max_frames_caps_an_unreachable_goal(self):
        scene = scene_from_frames({})
        cfg = replace(BASE, tau_frames=3, horizon_frames=6, max_frames=20)
        metrics = run(cfg, scene, make_task((0.0, 0.0), (1000.0, 0.0), gain=0.001))
        assert metrics.t_goal is None
        # six boundaries crossed, no complete final window scored
        assert [k for k, _ in metrics.lambda_trace] == list(range(1, 8))


class TestGroundTruthFixedPoint:
    """With the ground-truth oracle and lambda_1 = 0, epsilon = 0, every
    window loss is exactly zero and the margin never moves."""

    CFG = replace(
        BASE,
        predictor=PredictorKind(kind=GROUND_TRUTH),
        max_frames=400,
    )
    TASK_ARGS = ((0.0, 0.0), (70.0, 0.0))

    def _task(self):
        return make_task(*self.TASK_ARGS, gain=0.5, radius=3.0)

    def test_margin_is_a_fixed_point(self):
        metrics = run(self.CFG, crossing_scene(), self._task())
        assert metrics.reached
        assert metrics.l_avg == 0.0
        assert all(lam == 0.0 for _, lam in metrics.lambda_trace)

    def test_agent_leaving_one_frame_after_a_boundary_is_skipped(self, tmp_path):
        # sensed at the frame-5 boundary, gone after it: a one-sample
        # future gives no velocity, so the agent adds no row that window
        scene = synth_scene(
            {
                "scene_name": "leaving",
                "fps": 10.0,
                "duration": 3.0,
                "agents": [
                    {"id": 1, "waypoints": [[0.0, [20.0, 5.0]], [0.5, [18.0, 5.0]]]}
                ],
            }
        )
        trace = tmp_path / "trace.jsonl"
        metrics = run(
            replace(self.CFG, max_frames=20), scene, self._task(), trace_path=trace
        )
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert rows[5]["frame"] == 5 and rows[5]["n_constraints"] == 0
        assert math.isnan(metrics.l_avg)

    def test_commands_satisfy_the_true_constraints(self, tmp_path):
        # with perfect predictions the constraints the QP saw are the
        # true ones, so every logged command must clear them
        scene = crossing_scene()
        cfg = self.CFG
        trace = tmp_path / "trace.jsonl"
        run(cfg, scene, self._task(), trace_path=trace)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        by_frame = {r["frame"]: r for r in records}
        cbf = cfg.cbf
        start, tau = scene.start_frame, cfg.tau_frames

        checked = 0
        for r in records:
            if r["n_constraints"] == 0:
                continue
            wstart = start + ((r["frame"] - start) // tau) * tau
            ego_w = np.array(by_frame[wstart]["position"])
            histories = {}
            sensed, _ = sensed_agents(scene, ego_w, cfg.rho0, wstart)
            for agent_id in sensed.tolist():
                hist = history_window(scene.frames, agent_id, wstart, tau, scene.dt)
                if hist is not None and hist.n_samples >= 2:
                    histories[agent_id] = hist
            futures = {
                agent_id: future_window(
                    scene.frames, agent_id, wstart, cfg.horizon_frames, scene.dt
                )
                for agent_id in histories
            }
            preds = predict_reference(
                cfg.predictor, histories, cfg.horizon_frames, futures=futures, seed=cfg.seed
            )

            here = np.array(r["position"])
            rows = []
            for agent_id in sorted(preds):
                ptraj = preds[agent_id]
                if not ptraj.contains(r["frame"]):
                    continue
                pos = ptraj.position_at(r["frame"])
                dist = float(np.linalg.norm(pos - here))
                if dist <= 0.0 or dist >= cfg.rho0:
                    continue
                velocity = differentiate(ptraj, r["frame"])
                rows.append(
                    scalar_row(cbf, cfg.alpha_slope, here, pos, velocity, r["lambda"])
                )
            assert len(rows) == r["n_constraints"]
            command = np.array(r["command"])
            for normal, offset in rows:
                assert float(normal @ command) + offset >= -1e-9
            checked += 1
        assert checked > 0


class TestStandingPedestrian:
    """A pedestrian just off the corridor: the filter bends the path
    around them and keeps the zero-level distance clear."""

    def _setup(self):
        cfg = replace(
            BASE,
            rho0=25.0,
            epsilon=-0.2,
            lambda_initial=math.tan(math.pi * -0.2),
        )
        task = make_task((0.0, 0.0), (60.0, 0.0), gain=0.5, radius=2.0)
        return cfg, standing_scene(), task

    def test_deviates_and_keeps_clearance(self, tmp_path):
        cfg, scene, task = self._setup()
        trace = tmp_path / "trace.jsonl"
        metrics = run(cfg, scene, task, trace_path=trace)
        assert metrics.reached
        assert metrics.n_collide == 0
        assert metrics.d_min > cfg.cbf.zero_level_distance()
        ys = [
            json.loads(line)["position"][1]
            for line in trace.read_text().splitlines()
        ]
        assert max(abs(y) for y in ys) > 1.0


class TestMarginAdaptation:
    """A slow creep past an always-sensed pedestrian: the margin settles
    at the level whose squashed value is epsilon, and the reported
    average loss obeys the unrolled update identity."""

    def _run(self):
        cfg = replace(
            BASE,
            rho0=100.0,
            epsilon=-0.2,
            k_att=0.003,
            max_frames=1100,
        )
        scene = standing_scene(position=(15.0, 3.0), duration=110.0)
        task = make_task((0.0, 0.0), (300.0, 0.0), gain=1.0, radius=1.0)
        return cfg, run(cfg, scene, task)

    def test_trace_shape_and_bootstrap(self):
        cfg, metrics = self._run()
        assert metrics.t_goal is None
        # 220 complete windows, one trace entry before each plus the final margin
        assert [k for k, _ in metrics.lambda_trace] == list(range(1, 222))
        assert metrics.lambda_trace[1][1] == metrics.lambda_trace[0][1]

    def test_margin_converges_and_identity_holds(self):
        cfg, metrics = self._run()
        lams = [lam for _, lam in metrics.lambda_trace]
        assert abs(lams[-1] - math.tan(math.pi * cfg.epsilon)) < 0.05
        assert max(abs(b - a) for a, b in zip(lams, lams[1:])) < cfg.eta
        # every window after the bootstrap was scored, so the recorded
        # count is the window count minus one
        n_scored = len(lams) - 2
        unrolled = cfg.epsilon - (lams[-1] - lams[1]) / (cfg.eta * n_scored)
        assert metrics.l_avg == pytest.approx(unrolled, abs=1e-12)

    def test_keeps_clearance_while_creeping(self):
        cfg, metrics = self._run()
        assert metrics.n_collide == 0
        assert metrics.d_min > cfg.cbf.zero_level_distance()


class TestCollisionAccounting:
    def test_counts_frames_below_the_override_threshold(self):
        # an agent parked one pixel away for exactly three frames
        pos = np.array([1.0, 0.0])
        scene = scene_from_frames(
            {f: {7: pos} for f in range(3)}, labels={7: "Pedestrian"}, name="brush"
        )
        cfg = replace(
            BASE,
            tau_frames=2,
            horizon_frames=4,
            rho0=25.0,
            collision_distance=5.0,
            max_frames=30,
        )
        metrics = run(cfg, scene, make_task((0.0, 0.0), (50.0, 0.0), gain=0.1))
        assert metrics.n_collide == 3
        # the robot closes in on the parked agent while it is present
        assert 0.0 < metrics.d_min < 1.0
        # too transient to score: one-sample future, margin frozen
        assert math.isnan(metrics.l_avg)
        assert all(lam == 0.0 for _, lam in metrics.lambda_trace)


class TestInfeasibleRun:
    def _flanked(self):
        # both agents sit on the corridor line, one ahead and one
        # behind, so their constraint normals oppose exactly and a very
        # negative margin leaves no feasible velocity
        scene = synth_scene(
            {
                "scene_name": "flanked",
                "fps": 10.0,
                "duration": 10.0,
                "agents": [
                    {"id": 1, "label": "Pedestrian",
                     "waypoints": [[0.0, [14.0, 0.0]], [10.0, [14.0, 0.0]]]},
                    {"id": 2, "label": "Pedestrian",
                     "waypoints": [[0.0, [6.0, 0.0]], [10.0, [6.0, 0.0]]]},
                ],
            }
        )
        cfg = replace(
            BASE,
            tau_frames=2,
            horizon_frames=4,
            alpha_slope=0.1,
            rho0=25.0,
            lambda_initial=-5.0,
            max_frames=100,
        )
        task = make_task((10.0, 0.0), (100.0, 0.0), gain=0.05, radius=1.0)
        return cfg, scene, task

    def test_exhausted_relaxation_aborts_with_diagnostics(self):
        cfg, scene, task = self._flanked()
        with pytest.raises(InfeasibleRunError) as excinfo:
            run(replace(cfg, relax_max_steps=0), scene, task)
        diag = excinfo.value.diagnostics
        assert diag["frame"] == 2
        assert diag["n_constraints"] == 2
        assert sorted(diag["agent_ids"]) == [1, 2]
        assert diag["lambda"] == -5.0

    def test_inflation_rescues_the_squeeze(self):
        cfg, scene, task = self._flanked()
        metrics = run(
            replace(cfg, relax_lambda_step=10.0, relax_max_steps=3), scene, task
        )
        assert metrics.inflation_events >= 1
        assert metrics.t_goal is None


class TestDeterminism:
    def test_noise_oracle_runs_are_bitwise_repeatable(self):
        scene = crossing_scene(duration=15.0)
        cfg = replace(
            BASE,
            predictor=PredictorKind(kind=NOISE_BOUNDED, value_bound=2.0, dynamics_bound=0.5),
            max_frames=150,
            seed=0,
        )
        task = make_task((0.0, 0.0), (70.0, 0.0), gain=0.5, radius=3.0)
        assert run(cfg, scene, task) == run(cfg, scene, task)

    def test_run_seed_drives_the_predictor(self):
        scene = crossing_scene(duration=15.0)
        cfg = replace(
            BASE,
            predictor=PredictorKind(
                kind=NOISE_BOUNDED, value_bound=2.0, dynamics_bound=0.5
            ),
            max_frames=150,
        )
        task = make_task((0.0, 0.0), (70.0, 0.0), gain=0.5, radius=3.0)
        a = run(replace(cfg, seed=0), scene, task)
        b = run(replace(cfg, seed=1), scene, task)
        assert a.lambda_trace != b.lambda_trace

    def test_dt_must_match_the_scene(self):
        with pytest.raises(ConfigError):
            run(
                replace(BASE, dt=1.0 / 30.0),
                standing_scene(),
                make_task((0.0, 0.0), (60.0, 0.0)),
            )


class TestSweep:
    SCENE = crossing_scene(duration=12.0)
    TASK_ARGS = ((0.0, 0.0), (70.0, 0.0))
    CFG = replace(BASE, tau_frames=4, horizon_frames=8, max_frames=120)

    def _task(self):
        return make_task(*self.TASK_ARGS, gain=0.5, radius=3.0)

    def test_one_cell_equals_run(self):
        rows = sweep(self.CFG, {"epsilon": [0.1]}, self.SCENE, self._task())
        assert len(rows) == 1
        assert rows[0].params == {"epsilon": 0.1}
        assert rows[0].error is None
        assert rows[0].metrics == run(
            replace(self.CFG, epsilon=0.1), self.SCENE, self._task()
        )

    def test_rows_follow_grid_order(self):
        grid = {"epsilon": [-0.2, 0.2], "eta": [1.0, 2.0]}
        rows = sweep(self.CFG, grid, self.SCENE, self._task())
        assert [r.params for r in rows] == [
            {"epsilon": -0.2, "eta": 1.0},
            {"epsilon": -0.2, "eta": 2.0},
            {"epsilon": 0.2, "eta": 1.0},
            {"epsilon": 0.2, "eta": 2.0},
        ]

    def test_failed_cells_become_rows_and_the_sweep_continues(self):
        rows = sweep(self.CFG, {"epsilon": [0.6, 0.0]}, self.SCENE, self._task())
        assert rows[0].metrics is None and "ConfigError" in rows[0].error
        assert rows[1].error is None and rows[1].metrics is not None

    def test_workers_do_not_change_results(self):
        grid = {"epsilon": [-0.2, 0.2], "eta": [1.0, 2.0]}
        serial = sweep(self.CFG, grid, self.SCENE, self._task())
        parallel = sweep(self.CFG, grid, self.SCENE, self._task(), workers=2)
        assert serial == parallel

    def test_pool_starts_no_more_workers_than_cells(self, monkeypatch):
        # the pool forks all its workers up front; this one maps serially
        # in this process, so no process is started, and records what the
        # workers would receive
        started, sent, payloads = [], [], []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                sent.append(initargs)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                cells = list(cells)
                payloads.append(cells)
                return map(fn, cells)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(engine, "_worker_scene", None)
        task = self._task()
        grid = {"epsilon": [-0.2, 0.2]}
        rows = sweep(self.CFG, grid, self.SCENE, task, workers=64)
        assert rows == sweep(self.CFG, grid, self.SCENE, task)
        sweep(self.CFG, {"eta": [1.0, 2.0, 3.0]}, self.SCENE, task, workers=2)
        assert started == [2, 2]
        # the base config, scene and task once per worker; each cell only
        # its overrides
        assert all(initargs == (self.CFG, self.SCENE, task) for initargs in sent)
        assert payloads == [[{"epsilon": -0.2}, {"epsilon": 0.2}],
                            [{"eta": 1.0}, {"eta": 2.0}, {"eta": 3.0}]]
        # a cell whose overrides the config refuses fails in the worker with
        # the serial path's row
        grid = {"epsilon": [0.6, 0.0]}
        rows = sweep(self.CFG, grid, self.SCENE, task, workers=2)
        assert payloads[-1] == [{"epsilon": 0.6}, {"epsilon": 0.0}]
        assert rows == sweep(self.CFG, grid, self.SCENE, task)
        assert rows[0].metrics is None and rows[0].error.startswith("ConfigError: epsilon")

    def test_rejects_bad_grids(self):
        with pytest.raises(ConfigError):
            sweep(self.CFG, {"not_a_field": [1]}, self.SCENE, self._task())
        with pytest.raises(ConfigError):
            sweep(self.CFG, {"epsilon": []}, self.SCENE, self._task())
        with pytest.raises(ConfigError):
            sweep(self.CFG, {}, self.SCENE, self._task(), workers=0)


def test_checked_barrier_terms_runs_only_in_window_scoring(monkeypatch):
    """A frame's rows reuse the distances they were filtered on, so on the
    acceptance crossing config the checked barrier_terms runs once per
    window_loss call and never per frame."""
    real_terms, real_loss = barrier.barrier_terms, engine.window_loss
    calls = {"terms": 0, "terms outside scoring": 0, "window_loss": 0}
    scoring = []

    def terms(*args, **kwargs):
        calls["terms"] += 1
        calls["terms outside scoring"] += not scoring
        return real_terms(*args, **kwargs)

    def window_loss(*args, **kwargs):
        calls["window_loss"] += 1
        scoring.append(True)
        try:
            return real_loss(*args, **kwargs)
        finally:
            scoring.pop()

    # every module that bound the name at import, barrier itself included
    for name, module in list(sys.modules.items()):
        if name.startswith("conformal_cbf") and getattr(module, "barrier_terms", None) is real_terms:
            monkeypatch.setattr(module, "barrier_terms", terms)
    monkeypatch.setattr(engine, "window_loss", window_loss)

    config, task = build_setup(dict(CROSSING, epsilon=0.0))
    metrics = run(config, synth_scene(BUILTIN_SCENES["crossing"]), task)
    assert metrics.t_goal is None  # all 1150 frames ran
    assert calls["window_loss"] == 225
    assert calls["terms"] == calls["window_loss"]
    assert calls["terms outside scoring"] == 0


@pytest.mark.parametrize("case", ["crowd16", "crowd16_ground_truth"])
def test_one_lookup_and_one_scoring_call_per_window(monkeypatch, case):
    """On the crowd16 golden config each window boundary that senses
    anyone looks the agents' runs up once, for prediction, and scoring
    reuses that lookup; each scored window is one window_loss call,
    whatever mix of prefix lengths its agents have."""
    calls = {"runs_at": 0, "runs_at in scoring": 0, "sensing": 0, "window_loss": 0,
             "scored": 0, "short prefixes": 0}
    scoring = []
    real_runs_at, real_loss = ScenarioFrameSet.runs_at, engine.window_loss
    real_sensed, real_score = engine.sensed_agents, engine.window_step
    real_update = ConformalState.update

    def runs_at(self, *args):
        calls["runs_at"] += 1
        calls["runs_at in scoring"] += bool(scoring)
        return real_runs_at(self, *args)

    def sensed_agents(*args):
        out = real_sensed(*args)
        calls["sensing"] += bool(len(out[0]))
        return out

    def score_window(*args):
        scoring.append(True)
        try:
            return real_score(*args)
        finally:
            scoring.pop()

    def window_loss(*args, **kwargs):
        calls["window_loss"] += 1
        lengths = kwargs.get("lengths")
        calls["short prefixes"] += lengths is not None and bool((lengths < args[4].n_samples).any())
        return real_loss(*args, **kwargs)

    def update(self, loss):
        calls["scored"] += loss is not None
        return real_update(self, loss)

    monkeypatch.setattr(ScenarioFrameSet, "runs_at", runs_at)
    monkeypatch.setattr(engine, "sensed_agents", sensed_agents)
    monkeypatch.setattr(engine, "window_step", score_window)
    monkeypatch.setattr(engine, "window_loss", window_loss)
    monkeypatch.setattr(ConformalState, "update", update)

    doc, spec = cases()[case]
    config, task = build_setup(doc)
    metrics = run(config, synth_scene(spec), task)
    assert metrics.t_goal is None  # all 600 frames ran: 120 windows
    assert calls["runs_at in scoring"] == 0
    # the parent looked up 115 + 114 times: again in each scored window
    assert calls["runs_at"] == calls["sensing"] == 115
    assert calls["window_loss"] == calls["scored"] == 114
    # tracks ending inside a window give its agents unequal prefixes
    assert calls["short prefixes"] == 4


@st.composite
def distance_cases(draw):
    """A seeded scene of agents on straight lines, each present on its own
    frames (so tracks have gaps and some frames hold no agent), a task
    whose goal the ego may reach mid-run, and max_frames up to well past
    the scene's end.  The ego starts at (0.5, 0.25) and agents sit on odd
    multiples of 1/8 px, so no agent starts on the ego; agent 99, when
    drawn, stands exactly collision_distance from the ego's start."""
    first = draw(st.integers(-5, 20))
    span = draw(st.integers(1, 40))
    collision_d = draw(st.sampled_from([1.0, 2.0, 3.0, 6.0]))
    frames = {}
    for agent_id in range(draw(st.integers(0, 5))):
        origin = draw(st.tuples(st.integers(-120, 120), st.integers(-80, 80)))
        speed = draw(st.tuples(st.integers(-12, 12), st.integers(-12, 12)))
        for f in draw(st.sets(st.integers(first, first + span - 1), max_size=span)):
            k = f - first
            x = (2 * origin[0] + 1) / 8.0 + k * speed[0] / 4.0
            y = (2 * origin[1] + 1) / 8.0 + k * speed[1] / 4.0
            frames.setdefault(f, {})[agent_id] = np.array([x, y])
    if draw(st.booleans()):
        frames.setdefault(first, {})[99] = np.array([0.5 + collision_d, 0.25])
    tau = draw(st.integers(2, 5))
    config = SimConfig(
        dt=0.1,
        tau_frames=tau,
        horizon_frames=tau + draw(st.integers(0, 6)),
        k_rep=1.0,
        rho0=30.0,
        collision_distance=collision_d,
        relax_max_steps=40,
        max_frames=draw(st.integers(1, 2 * span + 20)),
    )
    goal = (0.5 + draw(st.integers(-40, 40)), 0.25 + draw(st.integers(-40, 40)))
    task = make_task((0.5, 0.25), goal, gain=draw(st.sampled_from([0.5, 2.0])),
                     radius=draw(st.sampled_from([0.0, 1.0, 4.0])))
    return scene_from_frames(frames), config, task


@settings(max_examples=150, deadline=None)
@given(case=distance_cases())
def test_distances_after_the_run_equal_the_per_frame_scan(case):
    """d_min and n_collide, computed in one pass after the run, equal the
    per-frame scan of each frame the run reached, goal frame included,
    with ==."""
    scene, config, task = case
    states = [task.start]

    def step(*args):
        states.append(engine_step(*args))
        return states[-1]

    engine_step = engine.step
    with mock.patch.object(engine, "step", step):
        metrics = run(config, scene, task)
    # every frame run made one step but the goal frame; the goal frame's
    # position is the last step's, and the step past max_frames is not run
    positions = [s.position for s in states][: config.max_frames]
    d_min, n_collide = distance_reference(scene, positions, config.collision_threshold())
    assert metrics.d_min == d_min
    assert metrics.n_collide == n_collide
    assert type(metrics.d_min) is float and type(metrics.n_collide) is int


def test_a_run_past_the_scene_records_only_the_frames_it_covers(monkeypatch):
    """With max_frames 100 times the scene's length the run records the
    ego's position at the scene's frames only, and scores as before."""
    scene = crossing_scene(duration=2.9)  # frames 0..29
    assert (scene.start_frame, scene.end_frame) == (0, 30)
    config = SimConfig(dt=0.1, tau_frames=5, horizon_frames=10, k_rep=20.0,
                       rho0=60.0, max_frames=3000)
    recorded = []
    real_nearest = engine._nearest

    def nearest(scene, start, path):
        recorded.append(len(path))
        return real_nearest(scene, start, path)

    monkeypatch.setattr(engine, "_nearest", nearest)
    # the goal is beyond reach of 3000 frames
    metrics = run(config, scene, make_task((0.0, 0.0), (1.0e7, 0.0), gain=1e-6))
    assert metrics.t_goal is None
    assert recorded == [2 * 30]
    assert len(metrics.lambda_trace) == 3000 // 5 + 1


# an agent walking beside the corridor at constant velocity: predicted
# exactly from the second window on, and never in the ego's way
BESIDE = scene_from_frames({f: {1: np.array([0.5 * f - 5.0, 12.0])} for f in range(300)})
CLOSE_CONFIG = replace(BASE, tau_frames=4, horizon_frames=8, k_rep=1.0, epsilon=-0.2,
                       max_frames=300)


def goal_run(goal_x):
    """The frame offset at which a run on BESIDE reaches a goal goal_x px
    ahead, and every loss it handed the margin state, in order."""
    losses = []
    real_update = ConformalState.update

    def update(self, loss):
        losses.append(loss)
        return real_update(self, loss)

    with mock.patch.object(ConformalState, "update", update):
        metrics = run(CLOSE_CONFIG, BESIDE, make_task((0.0, 0.0), (goal_x, 0.0), gain=0.5,
                                                      radius=0.5))
    assert metrics.reached
    return round(metrics.t_goal / CLOSE_CONFIG.dt), losses, metrics


@pytest.mark.parametrize("sample", [3, 1])
def test_a_run_closes_its_goal_window_only_on_its_last_frame(sample):
    """A run whose goal is reached on a window's last frame (sample 3 of
    4) scores that window, like every window before it; one whose goal is
    reached mid-window (sample 1) does not score the window it ends in."""
    tau = CLOSE_CONFIG.tau_frames
    for goal_x in np.arange(4.0, 30.0, 0.25):
        offset, losses, metrics = goal_run(float(goal_x))
        if offset % tau == sample and offset >= 3 * tau:
            break
    else:
        pytest.fail(f"no goal distance ends a run at sample {sample} of a window")
    closed = (offset + 1) // tau  # the windows that reached their last frame
    assert len(losses) == closed
    assert len(metrics.lambda_trace) == closed + 1
    # the first window has no predictions; every later one scores the agent
    assert losses[0] is None
    assert all(loss is not None for loss in losses[1:])


def test_window_step_refuses_tracks_that_do_not_match_the_predictions():
    """A hand-made window whose revealed tracks are not one per predicted
    agent is refused, not scored as if nobody was there."""
    histories = np.array([[[0.0, 10.0], [0.5, 10.0]], [[5.0, 5.0], [5.0, 4.0]]])
    predicted = engine.predict(BASE.predictor, [1, 2], histories, 10, 0.1)
    ego = np.zeros((5, 2))
    for revealed, lengths in [(np.ones((1, 5, 2)), [1]), (np.ones((2, 5, 2)), [5])]:
        margin = BASE.margin()
        ended = engine.Window(predicted, revealed, np.array(lengths), ego)
        with pytest.raises(InputError, match="one per predicted agent"):
            engine.window_step(BASE, margin, ended, None, 5, ego[-1])
        assert margin.loss_history == []


# the acceptance crossing config on a 150-frame clip
CAUSAL = dict(dt=0.1, tau_frames=5, horizon_frames=10, alpha_slope=10.0, k_acc=8.0,
              k_rep=2000.0, rho0=75.0, eta=0.5, max_frames=150, relax_max_steps=40)


def seeded_crowd(seed, n_agents):
    """frame -> {agent -> position}: pedestrians walking straight across a
    240 x 120 px arena around the ego's corridor at 10 fps, each over its
    own frames, some with a gap in their track; agent 0 enters at frame
    0, so every cut scene starts where the full one does."""
    rng = np.random.default_rng(seed)
    frames = {}
    for agent in range(n_agents):
        first = 0 if agent == 0 else int(rng.integers(0, 80))
        n = int(rng.integers(2, 150))
        a, b = rng.uniform([-20.0, -60.0], [220.0, 60.0], size=(2, 2))
        path = a + np.linspace(0.0, 1.0, n)[:, None] * (b - a)
        gap = range(0)
        if n > 20 and rng.random() < 0.3:
            g = int(rng.integers(5, n - 10))
            gap = range(g, g + int(rng.integers(1, 6)))
        for i in range(n):
            if i not in gap:
                frames.setdefault(first + i, {})[agent] = path[i]
    return frames


def trace_before(config, frames, cut):
    """The trace lines a run on the scene writes for the frames before
    cut; a run that raises keeps the lines it wrote."""
    task = make_task((0.0, 0.0), (200.0, 0.0), gain=0.02)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        try:
            run(config, scene_from_frames(frames), task, trace_path=path)
        except (InfeasibleRunError, InputError, SingularityError):
            pass
        with open(path, encoding="utf-8") as fh:
            return [line for line in fh if json.loads(line)["frame"] < cut]


def cut_at(frames, cut):
    return {f: row for f, row in frames.items() if f < cut}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_agents=st.integers(1, 12),
    cut=st.integers(1, 150),
    epsilon=st.sampled_from([-0.2, 0.0, 0.2]),
)
def test_the_filter_acts_on_nothing_the_scene_shows_later(seed, n_agents, cut, epsilon):
    """Causality: with the constant-velocity predictor, dropping every
    scene row at or after frame `cut` leaves every trace row before it
    byte-identical."""
    frames = seeded_crowd(seed, n_agents)
    config = SimConfig(epsilon=epsilon, **CAUSAL)
    full = trace_before(config, frames, cut)
    assert full
    assert trace_before(config, cut_at(frames, cut), cut) == full


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_agents=st.integers(1, 12),
    cut=st.integers(1, 150),
    kind=st.sampled_from([
        PredictorKind(kind=GROUND_TRUTH),
        PredictorKind(kind=NOISE_BOUNDED, value_bound=2.0, dynamics_bound=0.5),
    ]),
)
def test_recorded_futures_reach_the_filter_only_through_predict(seed, n_agents, cut, kind):
    """The oracle kinds predict from the recorded future by design, and
    that is the only way it reaches the filter: a run on the scene cut at
    frame `cut`, handed the full run's futures by predict(..., futures=)
    at each window that starts before the cut, writes every trace row
    before it byte-identical."""
    frames = seeded_crowd(seed, n_agents)
    config = SimConfig(predictor=kind, seed=3, **CAUSAL)
    real_predict = engine.predict
    recorded = {}

    def record(*args, **kwargs):
        recorded[kwargs["start_frame"]] = (args[1].tolist(), kwargs["futures"],
                                           kwargs["future_lengths"])
        return real_predict(*args, **kwargs)

    def replay(*args, **kwargs):
        if kwargs["start_frame"] < cut:
            ids, futures, lengths = recorded[kwargs["start_frame"]]
            assert args[1].tolist() == ids
            kwargs = dict(kwargs, futures=futures, future_lengths=lengths)
        return real_predict(*args, **kwargs)

    with mock.patch.object(engine, "predict", record):
        full = trace_before(config, frames, cut)
    assert full
    with mock.patch.object(engine, "predict", replay):
        assert trace_before(config, cut_at(frames, cut), cut) == full
