"""The robot and its closed-loop replay: the ego's dynamics, task and
sensing, the causal safety filter, and the driver that feeds it.

The robot is a planar double integrator d/dt (p, v) = (v, a) driven at
acceleration level.  The filter decides a velocity, and the tracking law
a = -k_acc * (v - v_cmd) turns it into an acceleration held over the
control period.  With the acceleration held the discretization is exact;
step evaluates it with the operations one classical RK4 step performs
for this model, so its results are bitwise those of that step.  The
robot's task, its goal-attracting reference velocity and its sensing
rule (the agents strictly inside rho0) are its own too, so they live
here and not with the scene.

The filter is two functions that take a SimConfig and arrays and never
see the scene; this is the paper's decentralization boundary.  They read
the barrier (config.cbf, built once per config) and dt off the config.
The robot acts on its own state, what it senses and what it predicts,
and learns what the agents did only once a window of tau_frames frames
is over.

- frame_command runs one frame: _rows builds one inflated barrier row per
  agent predicted at the frame's sample of the window, from one call of
  the unchecked barrier kernel, and the goal-attracting reference
  velocity is projected onto the rows, relaxed if their set is empty.
- window_step runs once per window, at the end of its last frame: after
  that frame's step, or its goal check when the goal is reached there.
  It scores the window's predictions against the revealed tracks in one
  window_loss call, each agent over its own prefix, moves the margin by
  eta * (epsilon - loss), and predicts the agents sensed at the next
  window's first frame in one predict call.  A window without a scorable
  agent leaves the margin as it is.  Nobody has history at a run's first
  frame, so its first window is empty and the run starts unconstrained.

run is the only driver and the only reader of the scene's track table.
It reads the scene only through the object it is handed (this module
imports no scene code) and slices the table at window edges alone, after
folding the scene's exact frame step into the config.  There it senses the
agents within rho0, which hands back their runs, and gathers in one
index of the table the last two history samples, the oracle kinds'
recorded futures (which reach the filter only through predict's futures)
and the revealed tracks, each the first n samples of a run.  It also
tracks the command and integrates one frame, writes the trace, and
records the ego's position at each frame the scene covers, the goal
frame included.  d_min and n_collide take no part in the filter: after
the loop _nearest measures those positions against every agent of their
frames in one array pass.

The ego is one 2-vector, so step, track_velocity and reference_control
read their vectors into Python floats with tolist() and compute on
those: a numpy call on a 2-vector costs far more than the two float
operations it performs.  The float expressions are the numpy ones
written out per coordinate, with the same operations in the same order;
IEEE arithmetic on a Python float and on a float64 array element round
identically, so the results are bitwise those of the array formulas
(tests/test_dynamics.py compares them with ==).  Only elementwise
arithmetic is moved this way.  Distances stay on numpy: a reduction such
as np.vecdot need not equal x*x + y*y bit for bit, so the goal distance
and tracking error keep their numpy forms, and d_min is one batched
np.vecdot over the whole run.  No float expression divides by anything
that can be zero (dt is checked positive first).

Each value of a frame is checked once, where it is made.  _rows keeps
only agents at a distance from cbf.min_distance up to rho0, so its
normals are finite; the frame then checks the two floats of the
reference and the row offsets, where an overflowing ego or a non-finite
prediction shows, and raises InputError("reference and rows must be
finite") at that frame.  The projection problem is built from those
arrays with qp.unchecked_problem.  step and track_velocity check the
shapes of their vectors but the finiteness of their result only: a
non-finite input, or an overflow, always makes the result non-finite,
and run reports theirs with the frame's line.  step builds the new state
from its four checked floats, so neither QpProblem's nor RobotState's
public check runs inside the loop.  Numpy's floating-point warnings are
off for the whole run: a non-finite value raises where it is checked.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from conformal_cbf.barrier import PotentialFieldCbf, barrier_terms_unchecked
from conformal_cbf.conformal import NO_AGENTS, ConformalState, EgoWindow, window_loss
from conformal_cbf.errors import InfeasibleError, InputError, floats, integer, point, scalar
from conformal_cbf.predictor import (
    CONSTANT_VELOCITY,
    NO_PREDICTIONS,
    Predictions,
    PredictorKind,
    predict,
)
from conformal_cbf.qp import NOT_FINITE, solve_with_relaxation, unchecked_problem


@dataclass(frozen=True)
class RobotState:
    """Planar position and velocity of the ego robot."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        for name in ("position", "velocity"):
            object.__setattr__(self, name, point(name, getattr(self, name)))


def step(state: RobotState, accel: np.ndarray, dt: float) -> RobotState:
    """Advance the state by dt seconds with the acceleration held.

    The RK4 stages of the double integrator are k1 = (v, a),
    k2 = k3 = (v + dt/2 a, a) and k4 = (v + dt a, a); they are combined
    in RK4's order.

    Raises:
        InputError: dt is not positive and finite, the acceleration is
            not planar, or the new state is not finite (a non-finite
            acceleration, or one that overflows the state).
    """
    scalar("dt", dt, "positive")
    a = floats("accel", accel)
    if a.shape != (2,):
        raise InputError("acceleration must be a planar vector")
    ax, ay = a.tolist()
    px, py = state.position.tolist()
    vx, vy = state.velocity.tolist()
    # v + 0.5 * dt * a and v + dt * a, coordinate by coordinate
    half = 0.5 * dt
    k2x, k2y = vx + half * ax, vy + half * ay
    k4x, k4y = vx + dt * ax, vy + dt * ay
    h = dt / 6.0
    new = (
        px + h * (vx + 2.0 * k2x + 2.0 * k2x + k4x),
        py + h * (vy + 2.0 * k2y + 2.0 * k2y + k4y),
        vx + h * (ax + 2.0 * ax + 2.0 * ax + ax),
        vy + h * (ay + 2.0 * ay + 2.0 * ay + ay),
    )
    if not all(map(math.isfinite, new)):
        raise InputError("RobotState entries must be finite")
    # the state is built without RobotState's check, which is the one above;
    # a frozen dataclass refuses setattr, not an update of its __dict__
    state = object.__new__(RobotState)
    vars(state).update(position=np.array(new[:2]), velocity=np.array(new[2:]))
    return state


def track_velocity(k_acc: float, velocity: np.ndarray, commanded: np.ndarray) -> np.ndarray:
    """Acceleration -k_acc * (velocity - commanded) steering the current
    velocity to the commanded one; SimConfig checks k_acc.

    Raises:
        InputError: the velocities are not planar, or the acceleration
            is not finite (a non-finite velocity, or an overflow).
    """
    v = floats("velocity", velocity)
    c = floats("commanded", commanded)
    if v.shape != (2,) or c.shape != (2,):
        raise InputError("track_velocity expects planar velocities")
    vx, vy = v.tolist()
    cx, cy = c.tolist()
    gain = -k_acc
    ax, ay = gain * (vx - cx), gain * (vy - cy)
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise InputError("acceleration must be a finite planar vector")
    return np.array([ax, ay])


@dataclass(frozen=True)
class RobotTask:
    """Start state, goal point, attraction gain, and arrival radius."""

    start: RobotState
    goal: np.ndarray
    attract_gain: float
    goal_radius: float

    def __post_init__(self):
        object.__setattr__(self, "goal", point("goal", self.goal))
        scalar("attract_gain", self.attract_gain, "positive")
        scalar("goal_radius", self.goal_radius, "nonnegative")


def reference_control(task: RobotTask, state: RobotState) -> np.ndarray:
    """Goal-attracting reference velocity: the descent direction of the
    quadratic attraction potential, attract_gain * (goal - position).

    It is evaluated on Python floats, coordinate by coordinate, with
    bitwise the result of the array expression."""
    gain = task.attract_gain
    gx, gy = task.goal.tolist()
    px, py = state.position.tolist()
    return np.array([gain * (gx - px), gain * (gy - py)])


def sensed_agents(scene, ego_position, rho0: float, frame: int):
    """rows_at for the agents at a frame strictly inside the sensing
    radius: ids (ascending), (k, 2) positions and (k, 3) runs.  An agent
    exactly at distance rho0 is not sensed."""
    scalar("rho0", rho0, "positive")
    ids, pos, runs = scene.rows_at(frame)
    apart = pos - floats("ego_position", ego_position)
    near = np.sqrt(np.vecdot(apart, apart)) < rho0
    return ids[near], pos[near], runs[near]


# horizon_frames' ceiling, over five minutes at 30 fps; a longer horizon
# only asks predict for memory (tau_frames <= horizon_frames is bounded too)
MAX_HORIZON_FRAMES = 10_000


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs besides the scene and the task.

    k_att, when set, overrides the task's attraction gain so sweeps can
    vary it.  collision_distance and relax_lambda_step default to the
    barrier's zero-level distance and eta * (1/2 - epsilon), which a
    tiny eta can underflow to 0, a step SimConfig refuses.  The run
    seed, a nonnegative integer, is forwarded to the predictor, which
    derives all of its own randomness from it.  alpha_slope is the slope
    of the class-kappa function alpha(h) = alpha_slope * h and k_acc the
    gain of the tracking law; SimConfig checks that both are positive and
    finite.  The barrier checks k_rep, rho0 and delta, and the margin
    state eta, epsilon and lambda_initial; each refuses a bad value with
    an InputError naming its key, as SimConfig does.  k_acc * dt must also
    be below 2: tracking maps the velocity error e to (1 - k_acc * dt) e
    each frame, which shrinks only then.  The integer fields take ints
    only, not booleans, and horizon_frames is at most MAX_HORIZON_FRAMES.
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
        scalar("dt", self.dt, "positive")
        if not isinstance(self.predictor, PredictorKind):
            raise InputError(f"predictor must be a PredictorKind, got {self.predictor!r}")
        # a window needs two samples before its motion can be differenced,
        # and the horizon must cover one window
        integer("tau_frames", self.tau_frames, 2)
        integer("horizon_frames", self.horizon_frames, self.tau_frames)
        if self.horizon_frames > MAX_HORIZON_FRAMES:
            raise InputError(f"horizon_frames must be at most {MAX_HORIZON_FRAMES}")
        # the barrier owns the checks of k_rep, rho0 and delta
        self.cbf
        for name in ("alpha_slope", "k_acc"):
            scalar(name, getattr(self, name), "positive")
        self.margin()
        if self.k_acc * self.dt >= 2.0:
            # tracking maps the velocity error e to (1 - k_acc * dt) e
            raise InputError(
                f"k_acc * dt must be below 2 for velocity tracking to settle; "
                f"k_acc {self.k_acc!r} and dt {self.dt!r} give {self.k_acc * self.dt!r}"
            )
        for name in ("k_att", "collision_distance", "relax_lambda_step"):
            if getattr(self, name) is not None:
                scalar(name, getattr(self, name), "positive")
        if not self.relaxation_step() > 0.0:
            # only the default can get here: eta * (1/2 - epsilon) underflows
            raise InputError(
                f"relax_lambda_step must be positive; unset, it is eta * (1/2 - epsilon), "
                f"which eta {self.eta!r} and epsilon {self.epsilon!r} make 0"
            )
        for name, least in (("max_frames", 1), ("seed", 0), ("relax_max_steps", 0)):
            integer(name, getattr(self, name), least)

    @cached_property
    def cbf(self) -> PotentialFieldCbf:
        return PotentialFieldCbf(k_rep=self.k_rep, rho0=self.rho0, delta=self.delta)

    def margin(self) -> ConformalState:
        """A fresh margin state at lambda_initial."""
        return ConformalState(lam=self.lambda_initial, eta=self.eta, epsilon=self.epsilon)

    def collision_threshold(self) -> float:
        if self.collision_distance is not None:
            return self.collision_distance
        return self.cbf.zero_level_distance()

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


class Window(NamedTuple):
    """A window at its close: its Predictions, the m predicted agents'
    revealed positions over it, (m, n, 2) in the same order, of which
    agent j's first revealed_lengths[j] are real, and the ego's
    positions over it, (n', 2)."""

    predicted: Predictions
    revealed: np.ndarray
    revealed_lengths: np.ndarray
    ego: np.ndarray


def frame_command(config, task, state, predicted, k, lam, frame):
    """The filtered velocity command at sample k of a window.

    task has config.k_att applied, state is the ego's RobotState,
    predicted the window's Predictions and lam its margin; frame names
    the frame in errors.  Returns (command, inflation, ids): the (2,)
    command, the relaxation's offset inflation (0.0 when none was
    needed), and the ids of the agents that gave a row.  Raises
    InputError when the reference or a row offset is not finite, and
    InfeasibleError, with diagnostics of the frame's state, when
    relaxation runs out.
    """
    normals, offsets, ids = _rows(
        config.cbf, config.alpha_slope, predicted, k, state.position, config.rho0, lam
    )
    reference = reference_control(task, state)
    # the frame's one finiteness check: the normals are finite by _rows'
    # distance filter, so only the reference and the offsets can carry an
    # overflow or a non-finite prediction
    if not all(map(math.isfinite, reference.tolist() + offsets.tolist())):
        raise InputError(f"{NOT_FINITE} at frame {frame}")
    relax_step = config.relaxation_step()
    try:
        solution, inflation = solve_with_relaxation(
            unchecked_problem(reference, normals, offsets, ids),
            relax_step,
            config.relax_max_steps,
        )
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"no feasible velocity at frame {frame} after "
            f"{config.relax_max_steps} relaxation steps",
            diagnostics={
                "frame": frame,
                "position": [float(v) for v in state.position],
                "velocity": [float(v) for v in state.velocity],
                "lambda": float(lam),
                "n_constraints": len(ids),
                "agent_ids": ids.tolist(),
                "relax_lambda_step": relax_step,
                "relax_max_steps": config.relax_max_steps,
            },
        ) from exc
    return solution.decision, inflation, ids


def window_step(config, margin, ended, sensed, frame, position):
    """Score the Window that just ended (None at a run's start) into the
    margin state, and predict the next window, which starts at frame.

    Each agent is scored over the prefix that its prediction, its
    revealed track and the ego's positions all cover, if that holds two
    samples.  sensed is (ids, histories, futures, future_lengths) of the
    agents sensed at frame, as predict takes them, or None when there is
    nothing to predict; position is the ego's at frame.
    """
    if ended is not None:
        predicted, revealed, revealed_lengths, ego = ended
        if not len(predicted) == len(revealed) == len(revealed_lengths):
            raise InputError("a window's revealed tracks must be one per predicted agent")
        n = np.minimum(np.minimum(revealed_lengths, predicted.lengths), len(ego))
        positions, scored = predicted.positions, n >= 2
        if not scored.all():
            positions, revealed, n = positions[scored], revealed[scored], n[scored]
        loss = NO_AGENTS
        if len(n):
            width = int(n.max())
            loss = window_loss(
                config.cbf, config.alpha_slope, positions[:, :width], revealed[:, :width],
                EgoWindow(ego[:width], config.dt), margin.lam, lengths=n,
            )
            if not -0.5 < loss < 0.5:
                # arctan(r) / pi rounds to +-1/2 once |r| passes about 5.8e15
                raise InputError(
                    f"the window loss saturated at frame {frame}: the worst gap plus the "
                    "margin outgrew the squash; lower eta, lambda_initial or alpha_slope"
                )
        margin.update(loss)
    if sensed is None:
        return NO_PREDICTIONS
    ids, histories, futures, future_lengths = sensed
    return predict(
        config.predictor,
        ids,
        histories,
        config.horizon_frames,
        config.dt,
        futures=futures,
        future_lengths=future_lengths,
        start_frame=frame,
        seed=config.seed,
        cbf=config.cbf,
        ego_positions=position,
    )


def run(
    config: SimConfig,
    scene,
    task: RobotTask,
    trace_path=None,
) -> RunMetrics:
    """Execute the closed loop on one scene.

    Args:
        trace_path: optional file that receives one JSON record per
            frame (state, margin, constraint count, QP status).

    Raises:
        InputError: config.dt disagrees with the scene's frame rate.
        InfeasibleError: the constraint set stayed empty even after
            exhausting relaxation; its diagnostics carry the frame state.
    """
    if config.k_att is not None:
        task = replace(task, attract_gain=config.k_att)
    # bitwise the scene's grid, when it has one, so windows align exactly
    dt = scene.dt if scene.n_frames else config.dt
    if not math.isclose(config.dt, dt, rel_tol=1e-9, abs_tol=0.0):
        raise InputError(f"config dt {config.dt} does not match scene frame rate 1/{scene.fps}")
    config = replace(config, dt=dt)

    margin = config.margin()
    state = task.start
    start = scene.start_frame
    tau = config.tau_frames
    # frames from scene.end_frame on hold no agent, so nothing is recorded
    # for them
    covered = min(config.max_frames, scene.end_frame - start)

    # the ego's x, y at each frame run that the scene covers, flat
    path: list = []
    lambda_trace = [(1, margin.lam)]
    inflation_events = 0
    t_goal = None

    trace_fh = open(trace_path, "w", encoding="utf-8") if trace_path else None
    # a non-finite value raises where it is checked, so numpy's warnings
    # would only repeat it
    with np.errstate(all="ignore"):
        try:
            # nobody has history at the first frame: no one is predicted
            window = Window(NO_PREDICTIONS, NO_PREDICTIONS.positions, NO_PREDICTIONS.lengths, None)
            for offset in range(config.max_frames):
                frame = start + offset
                if offset < covered:
                    path += state.position.tolist()
                to_goal = task.goal - state.position
                # bitwise the 1-D np.linalg.norm
                reached = math.sqrt(np.vecdot(to_goal, to_goal)) <= task.goal_radius
                if reached:
                    t_goal = offset * config.dt
                else:
                    command, inflation, ids = frame_command(
                        config, task, state, window.predicted, offset % tau, margin.lam, frame
                    )
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
                                    "command": command.tolist(),
                                    "tracking_error": float(
                                        np.linalg.norm(state.velocity - command)
                                    ),
                                }
                            )
                            + "\n"
                        )
                    try:
                        accel = track_velocity(config.k_acc, state.velocity, command)
                        state = step(state, accel, config.dt)
                    except InputError:
                        # an ego flung past the float range fails as the frame's check
                        raise InputError(f"{NOT_FINITE} at frame {frame}") from None

                if (offset + 1) % tau == 0:
                    # the window's last frame closes it; the next window is
                    # sensed only if the run goes on
                    ego = np.array(path[2 * (offset + 1 - tau):2 * (offset + 1)])
                    window = _window_edge(
                        config, margin, scene, state, frame + 1,
                        window._replace(ego=ego.reshape(-1, 2)),
                        not reached and offset + 1 < config.max_frames,
                    )
                    lambda_trace.append(((offset + 1) // tau + 1, margin.lam))
                if reached:
                    break
        finally:
            if trace_fh is not None:
                trace_fh.close()
        nearest = _nearest(scene, start, path)

    history = margin.loss_history
    l_avg = sum(history) / len(history) if history else math.nan
    return RunMetrics(
        t_goal=t_goal,
        n_collide=int(np.count_nonzero(nearest < config.collision_threshold())),
        d_min=float(nearest.min(initial=math.inf)),
        l_avg=l_avg,
        inflation_events=inflation_events,
        lambda_trace=tuple(lambda_trace),
    )


def _window_edge(config, margin, scene, state, frame, ended, sense=True):
    """window_step at the edge of the window that starts at frame, fed
    from the scene's table: the Window that ended there is scored, and
    unless sense is False the agents sensed at frame with two frames of
    contiguous history before it are predicted, from their last two
    samples (all any kind reads).  Sensing hands back their runs, and one
    gather takes the rows at frame - 2 and frame - 1 and the first
    tau_frames samples of each run (horizon_frames for the oracle kinds),
    each run repeating its last sample past its end, which nobody reads;
    histories, futures and revealed tracks are slices of that block.

    Returns the new Window, its ego None until it closes: the replay
    holds its revealed tracks, the first tau_frames samples of the
    predicted agents' runs at most, and the filter reads them only then.
    """
    sensed, ids, runs, block = None, (), np.zeros((0, 3), np.intp), NO_PREDICTIONS.positions
    if sense:
        ids, _, runs = sensed_agents(scene, state.position, config.rho0, frame)
        # a sensed agent is present at the frame, so its run holds
        # before - 1 samples of history and after samples of future
        keep = runs[:, 1] >= 3
        ids, runs = ids[keep], runs[keep]
    row, after = runs[:, 0], runs[:, 2]
    if len(ids):
        oracle = config.predictor.kind != CONSTANT_VELOCITY
        n = config.horizon_frames if oracle else config.tau_frames
        # after >= 1, so the first two offsets stay -2 and -1
        sample = np.minimum(np.arange(-2, n), after[:, None] - 1)
        block = scene.track_positions[row[:, None] + sample]
        horizon = np.minimum(after, n) if oracle else None
        sensed = ids, block[:, :2], (block[:, 2:] if oracle else None), horizon
    predicted = window_step(config, margin, ended, sensed, frame, state.position)
    if len(predicted) < len(after):
        # the oracles drop agents, keeping the order; sensed ids ascend
        at = np.searchsorted(ids, predicted.ids)
        block, after = block[at], after[at]
    revealed = np.minimum(after, config.tau_frames)
    return Window(predicted, block[:, 2:2 + config.tau_frames], revealed, None)


def _nearest(scene, start, path):
    """The least ego-agent distance at each frame from start whose ego
    position path records (x, y per frame, flat) and that holds an agent,
    in frame order.

    The frame index is sorted by frame, so the agents of those frames are
    one slice of it; each is measured against its frame's ego position,
    and the squared distances are reduced per frame.
    """
    ego = np.array(path).reshape(-1, 2)
    frames, first, actual = scene.rows_in(start, start + len(ego))
    if not len(frames):
        return np.zeros(0)
    at = (frames - start).astype(np.intp)
    apart = actual - np.repeat(ego[at], np.diff(first, append=len(actual)), axis=0)
    # sqrt is monotone and correctly rounded: the sqrt of the least square
    # is the least distance, bit for bit
    return np.sqrt(np.minimum.reduceat(np.vecdot(apart, apart), first))


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


@dataclass(frozen=True)
class SweepRow:
    """One grid cell: the parameter overrides and the outcome, with
    error text instead of metrics when the run failed."""

    params: dict
    metrics: RunMetrics | None
    error: str | None


# the sweep's base config, scene and task inside a pool worker, set once
# by _init_worker
_worker_scene = None


def _init_worker(base, scene, task):
    global _worker_scene
    _worker_scene = (base, scene, task)


def _run_cell(cell):
    """Pool entry point: a payload is a cell's override dict."""
    return _cell_row(cell, *_worker_scene)


def _cell_row(cell, base, scene, task):
    """The cell's row; a config the cell's overrides make invalid fails
    like a run that raised."""
    try:
        return SweepRow(params=cell, metrics=run(replace(base, **cell), scene, task), error=None)
    except Exception as exc:
        return SweepRow(params=cell, metrics=None, error=f"{type(exc).__name__}: {exc}")


def sweep(
    base: SimConfig,
    grid: dict,
    scene,
    task: RobotTask,
    workers: int = 1,
) -> list:
    """Run every cell of the cartesian grid over SimConfig fields.

    Cells are ordered by grid position (first key outermost).  Each run
    is independent and uses the base seed, so results do not depend on
    workers; failures become rows with error text and the sweep
    continues.  Each worker receives the base config, scene and task
    once, when the pool starts, and each cell only its overrides.  The
    pool starts all its workers up front, so it has no more than there
    are cells or CPUs this process may run on.
    """
    integer("workers", workers, 1)
    known = {f.name for f in fields(SimConfig)}
    for name in grid:
        if name not in known:
            raise InputError(f"unknown sweep parameter {name!r}")
        if not list(grid[name]):
            raise InputError(f"sweep parameter {name!r} has no values")
    names = list(grid)
    cells = [dict(zip(names, combo)) for combo in product(*(list(grid[n]) for n in names))]
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(workers, len(cells), cpus)
    if workers == 1:
        return [_cell_row(cell, base, scene, task) for cell in cells]
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(base, scene, task),
    ) as pool:
        return list(pool.map(_run_cell, cells))
