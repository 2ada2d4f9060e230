"""Closed-loop replay: sense, predict, constrain, filter, track, integrate.

Frames are grouped into sensing windows of tau_frames frames.  At each
window boundary the scene's ground truth up to that frame counts as
released: the previous window's predictions are scored against what the
agents actually did and the constraint margin moves by
eta * (epsilon - loss); then agents within rho0 of the robot are sensed
and re-predicted over the horizon.  Inside a window every frame builds
one inflated barrier constraint per predicted agent from the prediction
at that frame, projects the goal-attracting reference velocity onto the
constraints, converts the projected command to an acceleration, and
integrates one frame with that acceleration held.

Everything per window is an array.  The scene is a track table (see
scenario), so the sensed agents' histories and recorded futures are one
fancy index into it each, and one predict call returns the whole
window's predictions stacked as (m, H, 2) positions and velocities with
per-agent lengths; no per-agent trajectory object is built.  A window
boundary looks the sensed agents' runs up in the table once: the
prediction reads histories and futures from that lookup, and the
window's scoring later reads the revealed tracks from the same rows.
Each frame's rows come from one call of the unchecked barrier kernel on
those arrays, given the distances the frame already filtered the agents
on, and a window is scored with one window_loss call, each agent over
its own prefix length.  The ego's own arithmetic (reference, tracking,
integration) runs on Python floats; see dynamics.

Each value of a frame is checked once, where it is made.  _rows keeps
only agents at a distance from cbf.min_distance up to rho0, so its
normals are finite; the frame then checks the two floats of the
reference and the row offsets, where an overflowing ego or a non-finite
prediction shows, and raises InputError("reference and rows must be
finite") at that frame.  The projection problem is built from those
arrays with qp.unchecked_problem, and step checks the four floats of the
new state itself, so neither QpProblem's nor RobotState's public check
runs inside the loop.

Windows without a scorable agent leave the margin untouched and record
no loss.  The first window never has predictions (there is no history
yet), so a run always starts unconstrained.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

from conformal_cbf.barrier import PotentialFieldCbf, barrier_terms_unchecked
from conformal_cbf.conformal import NO_AGENTS, ConformalState, EgoWindow, window_loss
from conformal_cbf.dynamics import step, track_velocity
from conformal_cbf.errors import (
    ConfigError,
    InfeasibleError,
    InfeasibleRunError,
    InputError,
)
from conformal_cbf.predictor import (
    CONSTANT_VELOCITY,
    NO_PREDICTIONS,
    PredictorKind,
    predict,
)
from conformal_cbf.qp import NOT_FINITE, solve_with_relaxation, unchecked_problem
from conformal_cbf.scenario import (
    RobotTask,
    ScenarioFrameSet,
    reference_control,
    sensed_agents,
)


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs besides the scene and the task.

    k_att, when set, overrides the task's attraction gain so sweeps can
    vary it.  collision_distance and relax_lambda_step default to the
    barrier's zero-level distance and eta * (1/2 - epsilon).  The run
    seed, a nonnegative integer, is forwarded to the predictor, which
    derives all of its own randomness from it.  alpha_slope is the slope
    of the class-kappa function alpha(h) = alpha_slope * h and k_acc the
    gain of the tracking law; SimConfig checks that both are positive and
    finite.  The barrier checks k_rep, rho0 and delta, and the margin
    state eta, epsilon and lambda_initial; a config one of them refuses
    is a ConfigError.  k_acc * dt must also be below 2: tracking maps the
    velocity error e to (1 - k_acc * dt) e each frame, which shrinks only
    then.
    """

    dt: float = 1.0 / 30.0
    tau_frames: int = 12
    horizon_frames: int = 40
    alpha_slope: float = 0.1
    k_acc: float = 2.0
    k_rep: float = 20.0
    k_att: float | None = None
    rho0: float = 400.0
    delta: float = 0.5
    eta: float = 100.0
    epsilon: float = 0.0
    lambda_initial: float = 0.0
    predictor: PredictorKind = PredictorKind(kind=CONSTANT_VELOCITY)
    max_frames: int = 2000
    seed: int = 0
    collision_distance: float | None = None
    relax_lambda_step: float | None = None
    relax_max_steps: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError("dt must be positive and finite")
        if not isinstance(self.tau_frames, int) or self.tau_frames < 2:
            # a window needs two samples before its motion can be differenced
            raise ConfigError("tau_frames must be an integer >= 2")
        if not isinstance(self.horizon_frames, int) or self.horizon_frames < self.tau_frames:
            raise ConfigError("horizon_frames must cover at least one window")
        try:
            # the barrier owns the checks of k_rep, rho0 and delta
            self.cbf()
        except InputError as exc:
            raise ConfigError(str(exc)) from None
        if not (math.isfinite(self.alpha_slope) and self.alpha_slope > 0.0):
            raise ConfigError("alpha_slope must be positive and finite")
        if not (math.isfinite(self.k_acc) and self.k_acc > 0.0):
            raise ConfigError("k_acc must be positive and finite")
        self.margin()
        if self.k_acc * self.dt >= 2.0:
            # tracking maps the velocity error e to (1 - k_acc * dt) e
            raise ConfigError(
                f"k_acc * dt must be below 2 for velocity tracking to settle; "
                f"k_acc {self.k_acc!r} and dt {self.dt!r} give {self.k_acc * self.dt!r}"
            )
        if self.k_att is not None and not (math.isfinite(self.k_att) and self.k_att > 0.0):
            raise ConfigError("k_att must be positive when given")
        if not isinstance(self.max_frames, int) or self.max_frames < 1:
            raise ConfigError("max_frames must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.collision_distance is not None and not (
            math.isfinite(self.collision_distance) and self.collision_distance > 0.0
        ):
            raise ConfigError("collision_distance must be positive when given")
        if self.relax_lambda_step is not None and not (
            math.isfinite(self.relax_lambda_step) and self.relax_lambda_step > 0.0
        ):
            raise ConfigError("relax_lambda_step must be positive when given")
        if not isinstance(self.relax_max_steps, int) or self.relax_max_steps < 0:
            raise ConfigError("relax_max_steps must be a nonnegative integer")

    def cbf(self) -> PotentialFieldCbf:
        return PotentialFieldCbf(k_rep=self.k_rep, rho0=self.rho0, delta=self.delta)

    def margin(self) -> ConformalState:
        """A fresh margin state at lambda_initial."""
        return ConformalState(lam=self.lambda_initial, eta=self.eta, epsilon=self.epsilon)

    def collision_threshold(self) -> float:
        if self.collision_distance is not None:
            return self.collision_distance
        return self.cbf().zero_level_distance()

    def relaxation_step(self) -> float:
        if self.relax_lambda_step is not None:
            return self.relax_lambda_step
        return self.eta * (0.5 - self.epsilon)


@dataclass(frozen=True)
class RunMetrics:
    """Outcome of one run.

    t_goal is None when the goal was never reached; d_min is inf and
    l_avg is nan when the scene never offered an agent or a scorable
    window.  lambda_trace holds (window index, margin) pairs covering
    the margin before each window and after the last scored one.
    """

    t_goal: float | None
    n_collide: int
    d_min: float
    l_avg: float
    inflation_events: int
    lambda_trace: tuple

    @property
    def reached(self) -> bool:
        return self.t_goal is not None


def run(
    config: SimConfig,
    scene: ScenarioFrameSet,
    task: RobotTask,
    trace_path=None,
) -> RunMetrics:
    """Execute the closed loop on one scene.

    Args:
        trace_path: optional file that receives one JSON record per
            frame (state, margin, constraint count, QP status).

    Raises:
        ConfigError: config.dt disagrees with the scene's frame rate.
        InfeasibleRunError: the constraint set stayed empty even after
            exhausting relaxation; diagnostics carry the frame state.
    """
    cbf = config.cbf()
    if config.k_att is not None:
        task = replace(task, attract_gain=config.k_att)
    if scene.n_frames:
        if not math.isclose(config.dt, scene.dt, rel_tol=1e-9, abs_tol=0.0):
            raise ConfigError(
                f"config dt {config.dt} does not match scene frame rate "
                f"1/{scene.fps}"
            )
        dt = scene.dt  # bitwise the scene's grid so windows align exactly
    else:
        dt = config.dt

    collision_d = config.collision_threshold()
    relax_step = config.relaxation_step()
    margin = config.margin()
    state = task.start
    start = scene.start_frame
    tau = config.tau_frames

    predicted, runs = NO_PREDICTIONS, None
    ego_window: list = []
    window_start = start
    lambda_trace = [(1, margin.lam)]
    n_collide = 0
    d_min = math.inf
    inflation_events = 0
    t_goal = None

    trace_fh = open(trace_path, "w", encoding="utf-8") if trace_path else None
    try:
        for offset in range(config.max_frames):
            frame = start + offset
            if offset % tau == 0:
                if offset > 0:
                    loss = _score_window(
                        cbf, config.alpha_slope, margin.lam, predicted, runs,
                        ego_window, dt, scene,
                    )
                    margin.update(loss)
                    lambda_trace.append((offset // tau + 1, margin.lam))
                predicted, runs = _predict_window(
                    config, cbf, scene, state, frame, dt
                )
                ego_window = []
                window_start = frame

            ego_window.append(state.position)
            _, actual = scene.rows_at(frame)
            if len(actual):
                apart = actual - state.position
                # sqrt is monotone and correctly rounded: the sqrt of the
                # least square is the least distance, bit for bit
                nearest = math.sqrt(np.vecdot(apart, apart).min())
                d_min = min(d_min, nearest)
                if nearest < collision_d:
                    n_collide += 1
            to_goal = task.goal - state.position
            # bitwise the 1-D np.linalg.norm
            if math.sqrt(np.vecdot(to_goal, to_goal)) <= task.goal_radius:
                t_goal = offset * dt
                break

            normals, offsets, ids = _rows(
                cbf, config.alpha_slope, predicted, frame - window_start,
                state.position, config.rho0, margin.lam,
            )
            reference = reference_control(task, state)
            # the frame's one finiteness check: the normals are finite by
            # _rows' distance filter, so only the reference and the
            # offsets can carry an overflow or a non-finite prediction
            if not all(map(math.isfinite, reference.tolist() + offsets.tolist())):
                raise InputError(NOT_FINITE)
            try:
                solution, inflation = solve_with_relaxation(
                    unchecked_problem(reference, normals, offsets, ids),
                    relax_step,
                    config.relax_max_steps,
                )
            except InfeasibleError as exc:
                raise InfeasibleRunError(
                    f"no feasible velocity at frame {frame} after "
                    f"{config.relax_max_steps} relaxation steps",
                    diagnostics={
                        "frame": frame,
                        "position": [float(v) for v in state.position],
                        "velocity": [float(v) for v in state.velocity],
                        "lambda": float(margin.lam),
                        "n_constraints": len(ids),
                        "agent_ids": ids.tolist(),
                        "relax_lambda_step": relax_step,
                        "relax_max_steps": config.relax_max_steps,
                    },
                ) from exc
            if inflation > 0.0:
                inflation_events += 1

            if trace_fh is not None:
                trace_fh.write(
                    json.dumps(
                        {
                            "frame": frame,
                            "position": state.position.tolist(),
                            "velocity": state.velocity.tolist(),
                            "lambda": float(margin.lam),
                            "n_constraints": len(ids),
                            "status": "relaxed" if inflation > 0.0 else "ok",
                            "inflation": float(inflation),
                            "command": solution.decision.tolist(),
                            "tracking_error": float(
                                np.linalg.norm(state.velocity - solution.decision)
                            ),
                        }
                    )
                    + "\n"
                )

            accel = track_velocity(config.k_acc, state.velocity, solution.decision)
            state = step(state, accel, dt)

        if len(ego_window) == tau:
            # the run ended exactly on a window boundary; score the
            # completed window so its loss is not silently dropped
            loss = _score_window(
                cbf, config.alpha_slope, margin.lam, predicted, runs, ego_window,
                dt, scene,
            )
            margin.update(loss)
            lambda_trace.append(
                ((window_start - start) // tau + 2, margin.lam)
            )
    finally:
        if trace_fh is not None:
            trace_fh.close()

    history = margin.loss_history
    l_avg = sum(history) / len(history) if history else math.nan
    return RunMetrics(
        t_goal=t_goal,
        n_collide=n_collide,
        d_min=d_min,
        l_avg=l_avg,
        inflation_events=inflation_events,
        lambda_trace=tuple(lambda_trace),
    )


# rows of the last two history samples, relative to the row at the frame
_LAST_TWO = np.array([-2, -1])


def _predict_window(config, cbf, scene, state, frame, dt):
    """Predictions for the agents sensed at a window boundary, and where
    the predicted agents' runs lie in the scene's table.

    Agents without two frames of contiguous history before the frame
    are left out, and so, for the oracle kinds, are agents without two
    frames of recorded future from it; they contribute no constraint
    this window.  Every kind reads at most the last two history samples,
    so those are what is gathered.

    Returns:
        (predictions, runs): runs is (row, after) aligned with the
        predictions' ids, from the runs_at lookup at the frame, so the
        window's scoring need not repeat it; None without predictions.
    """
    sensed = sensed_agents(scene, state.position, config.rho0, frame)
    if not sensed:
        return NO_PREDICTIONS, None
    ids = np.array([agent_id for agent_id, _ in sensed])
    # a sensed agent is present at the frame, so its run holds before - 1
    # samples of history and after samples of future
    row, before, after = scene.runs_at(ids, frame)
    keep = before >= 3
    if not keep.any():
        return NO_PREDICTIONS, None
    ids, row, after = ids[keep], row[keep], after[keep]
    histories = scene.track_positions[row[:, None] + _LAST_TWO]
    futures = horizon = None
    kind = config.predictor
    if kind.kind != CONSTANT_VELOCITY:
        horizon = np.minimum(after, config.horizon_frames)
        # past its run's end a future repeats its last sample; predict
        # reads only the first `horizon`
        sample = np.minimum(np.arange(horizon.max()), horizon[:, None] - 1)
        futures = scene.track_positions[row[:, None] + sample]
    predicted = predict(
        kind,
        ids,
        histories,
        config.horizon_frames,
        dt,
        futures=futures,
        future_lengths=horizon,
        start_frame=frame,
        seed=config.seed,
        cbf=cbf,
        ego_positions=state.position,
    )
    if len(predicted) < len(ids):
        # the oracles drop agents, keeping the order; sensed ids ascend
        at = np.searchsorted(ids, predicted.ids)
        row, after = row[at], after[at]
    return predicted, (row, after)


def _rows(cbf, alpha_slope, predicted, k, ego, rho0, lam):
    """Deployed constraint rows at sample k of the window as (normals,
    offsets, agent ids), one row per agent predicted there at a distance
    from cbf.min_distance up to (not including) rho0, in prediction
    order."""
    ids, positions, lengths = predicted.ids, predicted.positions, predicted.lengths
    if k >= positions.shape[1]:
        return np.zeros((0, 2)), np.zeros(0), ids[:0]
    diff = ego - positions[:, k]
    dist = np.sqrt(np.vecdot(diff, diff))
    at = ((lengths > k) & (dist >= cbf.min_distance) & (dist < rho0)).nonzero()[0]
    if not len(at):
        return np.zeros((0, 2)), np.zeros(0), ids[:0]
    velocities = predicted.velocities[:, k]
    if len(at) < len(ids):
        diff, dist, velocities, ids = diff[at], dist[at], velocities[at], ids[at]
    # grad_ego . u + (grad_agent . v + alpha_slope * h) + lam >= 0, on the
    # distances just computed and checked; grad_agent is -grad_ego, and
    # dot(-n, v) is -dot(n, v) bit for bit, so it is subtracted.  The
    # filter keeps the normals finite; a non-finite prediction shows in
    # the offsets, which the frame checks.
    h, normals = barrier_terms_unchecked(cbf, diff, dist)
    offsets = alpha_slope * h - np.vecdot(normals, velocities)
    return normals, offsets + lam, ids


def _score_window(cbf, alpha_slope, lam, predicted, runs, ego_positions, dt, scene):
    """Worst per-agent window loss against the revealed ground truth.

    Each agent is scored over the prefix where its prediction, its
    actual track, and the ego window all exist, as runs (the window's
    _predict_window lookup) gives it.  All agents are scored in one
    window_loss call, each over its own prefix length.
    """
    ids, positions, lengths = predicted.ids, predicted.positions, predicted.lengths
    if not len(ids) or len(ego_positions) < 2:
        return NO_AGENTS
    row, after = runs
    n = np.minimum(np.minimum(after, lengths), len(ego_positions))
    scored = n >= 2
    if not scored.all():
        if not scored.any():
            return NO_AGENTS
        row, n, positions = row[scored], n[scored], positions[scored]
    width = int(n.max())
    # past an agent's prefix its actual track repeats its last sample;
    # window_loss does not score those samples
    sample = np.minimum(np.arange(width), n[:, None] - 1)
    actual = scene.track_positions[row[:, None] + sample]
    ego = EgoWindow(np.array(ego_positions[:width]), dt)
    return window_loss(cbf, alpha_slope, positions[:, :width], actual, ego, lam, lengths=n)


@dataclass(frozen=True)
class SweepRow:
    """One grid cell: the parameter overrides and the outcome, with
    error text instead of metrics when the run failed."""

    params: dict
    metrics: RunMetrics | None
    error: str | None


# the sweep's scene and task inside a pool worker, set once by _init_worker
_worker_scene = None


def _init_worker(scene, task):
    global _worker_scene
    _worker_scene = (scene, task)


def _run_cell(payload):
    """Pool entry point: a payload is (cell, config, error)."""
    return _cell_row(*payload, *_worker_scene)


def _cell_row(cell, config, error, scene, task):
    if error is not None:
        return SweepRow(params=cell, metrics=None, error=error)
    try:
        return SweepRow(params=cell, metrics=run(config, scene, task), error=None)
    except Exception as exc:
        return SweepRow(params=cell, metrics=None, error=f"{type(exc).__name__}: {exc}")


def sweep(
    base: SimConfig,
    grid: dict,
    scene: ScenarioFrameSet,
    task: RobotTask,
    workers: int = 1,
) -> list:
    """Run every cell of the cartesian grid over SimConfig fields.

    Cells are ordered by grid position (first key outermost).  Each run
    is independent and uses the base seed, so results do not depend on
    workers; failures become rows with error text and the sweep
    continues.  Each worker receives the scene and task once, when the
    pool starts, and each cell only its parameters.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError("workers must be a positive integer")
    known = {f.name for f in fields(SimConfig)}
    for name in grid:
        if name not in known:
            raise ConfigError(f"unknown sweep parameter {name!r}")
        if not list(grid[name]):
            raise ConfigError(f"sweep parameter {name!r} has no values")
    names = list(grid)
    payloads = []
    for combo in product(*(list(grid[n]) for n in names)):
        cell = dict(zip(names, combo))
        try:
            cfg = replace(base, **cell)
            payloads.append((cell, cfg, None))
        except (ConfigError, InputError) as exc:
            payloads.append((cell, None, f"{type(exc).__name__}: {exc}"))
    if workers == 1 or len(payloads) <= 1:
        return [_cell_row(*p, scene, task) for p in payloads]
    # the pool forks all its workers up front: no more than there are cells
    with ProcessPoolExecutor(
        max_workers=min(workers, len(payloads)),
        initializer=_init_worker,
        initargs=(scene, task),
    ) as pool:
        return list(pool.map(_run_cell, payloads))
