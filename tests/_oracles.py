"""Independent oracles the test suite checks the library against.

Everything here is deliberately written from the defining equations
rather than by calling into the package internals: extended-precision
central differences for gradients, a scan-and-refine maximization for
the gradient-norm bound, brute-force candidate enumeration and dense
grids for the projection QP, the generic RK4 step for the dynamics, and
the array expressions the dynamics evaluate on Python floats.
The barrier reference is the per-pair scalar code: h, its gradient, a
frame's constraint row and a sample's gap from potential and
radial_derivative, the barrier's scalar functions of one distance.  The
scene references are the line-by-line annotation parser and the
dict-of-frames queries the track table replaced, and the prediction
reference is the per-agent predictor, one Window record per agent, that
the array form in predictor.predict replaced.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from conformal_cbf.errors import SingularityError

LD = np.longdouble


def potential(cbf, d):
    """The barrier's repulsive potential U at one distance d."""
    if d < cbf.min_distance:
        raise SingularityError(f"potential undefined at distance {d!r}")
    if d >= cbf.rho0:
        return 0.0
    return 0.5 * cbf.k_rep * (1.0 / d - 1.0 / cbf.rho0) ** 2


def radial_derivative(cbf, d):
    """The barrier's dh/dd at one distance d, zero at and beyond rho0."""
    if d < cbf.min_distance:
        raise SingularityError(f"gradient undefined at distance {d!r}")
    if d >= cbf.rho0:
        return 0.0
    w = 1.0 / d - 1.0 / cbf.rho0
    u = 0.5 * cbf.k_rep * w * w
    return cbf.k_rep * w / (d * d * (1.0 + u) ** 2)


def scalar_terms(cbf, ego, agent):
    """h and grad_ego exactly as the per-pair scalar code computes them."""
    diff = np.asarray(ego, dtype=np.float64) - np.asarray(agent, dtype=np.float64)
    d = float(np.linalg.norm(diff))
    h = 1.0 / (1.0 + potential(cbf, d)) - cbf.delta
    return h, (radial_derivative(cbf, d) / d) * diff


def scalar_row(cbf, alpha_slope, ego, agent, velocity, lam):
    """(normal, offset) of the deployed constraint row against one agent:
    grad_ego . u + (grad_agent . velocity + alpha_slope * h) + lam >= 0."""
    h, grad_ego = scalar_terms(cbf, ego, agent)
    return grad_ego, float(-grad_ego @ np.asarray(velocity)) + alpha_slope * h + lam


def gap_reference(
    cbf, alpha_slope, ego, actual, actual_velocity, predicted, predicted_velocity, lam
):
    """Looseness of the deployed constraint relative to the true one at
    one sample, q_pred + alpha(h_pred) + lam - q_true - alpha(h_true) with
    alpha(h) = alpha_slope * h, grouped as differences so a perfect
    prediction cancels exactly."""
    h_true, g_true = scalar_terms(cbf, ego, actual)
    h_pred, g_pred = scalar_terms(cbf, ego, predicted)
    q_true = float(-g_true @ np.asarray(actual_velocity))
    q_pred = float(-g_pred @ np.asarray(predicted_velocity))
    return (q_pred - q_true) + (alpha_slope * h_pred - alpha_slope * h_true) + lam


@dataclass(frozen=True)
class Window:
    """One agent's positions, (n, 2), sampled every dt from start_frame."""

    agent_id: int
    start_frame: int
    dt: float
    positions: np.ndarray

    @property
    def n_samples(self):
        return len(self.positions)

    @property
    def end_frame(self):
        return self.start_frame + self.n_samples

    def contains(self, frame):
        return self.start_frame <= frame < self.end_frame

    def position_at(self, frame):
        return self.positions[frame - self.start_frame]

    def prefix(self, n):
        return Window(self.agent_id, self.start_frame, self.dt, self.positions[:n])


def differentiate(window, frame):
    """Velocity at one frame of a window: central differences inside,
    one-sided at the first and last sample."""
    i = frame - window.start_frame
    p, dt = window.positions, window.dt
    if i == 0:
        return (p[1] - p[0]) / dt
    if i == window.n_samples - 1:
        return (p[i] - p[i - 1]) / dt
    return (p[i + 1] - p[i - 1]) / (2.0 * dt)


def scene_from_frames(frames, labels=None, fps=10.0, name="s"):
    """ScenarioFrameSet from frame -> {agent_id -> (2,) position}."""
    from conformal_cbf.scenario import ScenarioFrameSet

    rows = [(a, f, p) for f, row in frames.items() for a, p in row.items()]
    xy = np.array([p for _, _, p in rows], dtype=np.float64).reshape(len(rows), 2)
    return ScenarioFrameSet(
        name, fps, [a for a, _, _ in rows], [f for _, f, _ in rows], xy, labels or {}
    )


def barrier_value_ld(k_rep, rho0, delta, ego, agent):
    """Barrier value evaluated entirely in extended precision."""
    diff = np.asarray(ego, dtype=LD) - np.asarray(agent, dtype=LD)
    d = np.sqrt(np.sum(diff * diff))
    if d >= LD(rho0):
        u = LD(0)
    else:
        u = LD(0.5) * LD(k_rep) * (LD(1) / d - LD(1) / LD(rho0)) ** 2
    return LD(1) / (LD(1) + u) - LD(delta)


def fd_gradient(k_rep, rho0, delta, ego, agent, step=1e-5):
    """Central-difference ego gradient of the barrier, extended precision."""
    ego = np.asarray(ego, dtype=LD)
    out = np.zeros(2)
    for i in range(2):
        bump = np.zeros(2, dtype=LD)
        bump[i] = LD(step)
        hi = barrier_value_ld(k_rep, rho0, delta, ego + bump, agent)
        lo = barrier_value_ld(k_rep, rho0, delta, ego - bump, agent)
        out[i] = float((hi - lo) / (LD(2) * LD(step)))
    return out


def gradient_relative_error(analytic, numeric, floor=1e-9):
    """Scale-free gradient mismatch with a floor guarding the vanishing-
    gradient boundary, where a relative measure is ill-posed."""
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), floor)
    return float(np.linalg.norm(np.asarray(analytic) - np.asarray(numeric))) / scale


def gradient_norm_bound_scan(k_rep, rho0):
    """Numerical maximum of the agent-side gradient norm of the barrier:
    a 240,001-point log-spaced scan of phi(w) = k w (w + c)^2 /
    (1 + k w^2 / 2)^2, w = 1/d - 1/rho0, c = 1/rho0, refined by a bounded
    scalar search around the best grid point."""
    from scipy.optimize import minimize_scalar

    c = 1.0 / rho0

    def phi(w):
        return k_rep * w * (w + c) ** 2 / (1.0 + 0.5 * k_rep * w * w) ** 2

    grid = np.logspace(-12.0, 12.0, 240001)
    values = phi(grid)
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    result = minimize_scalar(
        lambda w: -phi(w), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-14},
    )
    return float(max(values[i], phi(float(result.x))))


def rk4_double_integrator(position, velocity, accel, dt):
    """One classical RK4 step of the planar double integrator
    d/dt (p, v) = (v, 0) + [0; I] a on the stacked state, acceleration
    held; returns (position, velocity)."""
    g = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def xdot(x):
        return np.array([x[2], x[3], 0.0, 0.0]) + g @ accel

    x0 = np.concatenate([position, velocity])
    k1 = xdot(x0)
    k2 = xdot(x0 + 0.5 * dt * k1)
    k3 = xdot(x0 + 0.5 * dt * k2)
    k4 = xdot(x0 + dt * k3)
    x1 = x0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x1[:2], x1[2:]


def step_formula(position, velocity, accel, dt):
    """step's arithmetic as numpy array expressions, the form the float
    code in engine.step writes out per coordinate; returns (position,
    velocity), non-finite where the step overflows."""
    p, v, a = (np.asarray(x, dtype=np.float64) for x in (position, velocity, accel))
    k2 = v + 0.5 * dt * a
    k4 = v + dt * a
    h = dt / 6.0
    return p + h * (v + 2.0 * k2 + 2.0 * k2 + k4), v + h * (a + 2.0 * a + 2.0 * a + a)


def track_velocity_formula(gain, velocity, commanded):
    """track_velocity's arithmetic as one numpy expression."""
    v, c = (np.asarray(x, dtype=np.float64) for x in (velocity, commanded))
    return -gain * (v - c)


def reference_control_formula(gain, goal, position):
    """reference_control's arithmetic as one numpy expression."""
    return gain * (np.asarray(goal, dtype=np.float64) - np.asarray(position, dtype=np.float64))


def rows_to_arrays(constraints):
    """(normals (m, 2), offsets (m,), ids (m,)) of a list of rows, the
    arrays a QpProblem takes."""
    a, b = _rows(constraints)
    return a, b, np.array([c.agent_id for c in constraints], dtype=np.int64)


def _rows(constraints):
    a = np.array([c.normal for c in constraints], dtype=np.float64)
    b = np.array([c.offset for c in constraints], dtype=np.float64)
    return a.reshape(len(constraints), 2), b


def enumerate_projection(reference, constraints, feas_tol=1e-9):
    """Exact projection by KKT candidate enumeration, or None if the
    polyhedron is empty.  Correct for planar problems because an optimal
    active set can always be chosen with at most 2 independent rows."""
    reference = np.asarray(reference, dtype=np.float64)
    if not constraints:
        return reference.copy()
    a, b = _rows(constraints)
    norms = np.linalg.norm(a, axis=1)
    zero = norms <= 1e-300
    if np.any(b[zero] < -feas_tol):
        return None
    a, b = a[~zero], b[~zero]
    if a.shape[0] == 0:
        return reference.copy()
    a = a / np.linalg.norm(a, axis=1)[:, None]
    b = b / norms[~zero]

    def feasible(u):
        return bool(np.all(a @ u + b >= -feas_tol))

    if feasible(reference):
        return reference.copy()
    candidates = []
    m = a.shape[0]
    for size in (1, 2):
        for idx in itertools.combinations(range(m), size):
            sub_a = a[list(idx)]
            sub_b = b[list(idx)]
            gram = sub_a @ sub_a.T
            if size == 2 and abs(np.linalg.det(gram)) < 1e-12:
                continue
            mu = np.linalg.solve(gram, -(sub_a @ reference + sub_b))
            if np.any(mu < -1e-9):
                continue
            u = reference + sub_a.T @ mu
            if feasible(u):
                candidates.append(u)
    if not candidates:
        return None
    return min(candidates, key=lambda u: float(np.sum((u - reference) ** 2)))


def grid_projection(reference, constraints, feas_tol=1e-9, final_step=1e-3):
    """Dense grid-search projection: geometric candidate points plus a
    two-stage uniform grid refined to final_step, entirely solver-free.
    Returns the best feasible candidate or None."""
    reference = np.asarray(reference, dtype=np.float64)
    a, b = _rows(constraints)
    norms = np.linalg.norm(a, axis=1)
    zero = norms <= 1e-300
    if np.any(b[zero] < -feas_tol):
        return None
    a, b = a[~zero], b[~zero]

    def feasible_mask(points):
        if a.shape[0] == 0:
            return np.ones(points.shape[0], dtype=bool)
        return np.all(points @ a.T + b >= -feas_tol, axis=1)

    candidates = [reference]
    m = a.shape[0]
    for i in range(m):
        nn = float(a[i] @ a[i])
        candidates.append(reference - (float(a[i] @ reference) + b[i]) / nn * a[i])
        for j in range(i + 1, m):
            sub = a[[i, j]]
            det = np.linalg.det(sub)
            if abs(det) < 1e-12 * np.linalg.norm(a[i]) * np.linalg.norm(a[j]):
                continue
            candidates.append(np.linalg.solve(sub, -b[[i, j]]))
    candidates = np.array(candidates)
    keep = feasible_mask(candidates)
    best = None
    best_cost = np.inf
    for u in candidates[keep]:
        cost = float(np.sum((u - reference) ** 2))
        if cost < best_cost:
            best, best_cost = u.copy(), cost

    # The candidate set above already contains the exact optimum of any
    # nonempty planar instance; the two grid passes (coarse, then the
    # final_step lattice) independently confirm it cannot be beaten.
    span = max(1.0, 2.0 * np.sqrt(best_cost)) if best is not None else 4.0
    center = reference
    for step in (span / 100.0, final_step):
        offsets = np.arange(-span, span + step / 2, step)
        gx, gy = np.meshgrid(center[0] + offsets, center[1] + offsets)
        points = np.column_stack([gx.ravel(), gy.ravel()])
        keep = feasible_mask(points)
        if np.any(keep):
            pts = points[keep]
            costs = np.sum((pts - reference) ** 2, axis=1)
            i = int(np.argmin(costs))
            if costs[i] < best_cost:
                best, best_cost = pts[i].copy(), float(costs[i])
            center = pts[i]
        span = 2.5 * step
    return best


def kkt_residual(reference, constraints, decision, active_tol=1e-7):
    """Stationarity residual: distance of (decision - reference) from the
    cone of active-row normals, via nonnegative least squares."""
    from scipy.optimize import nnls

    reference = np.asarray(reference, dtype=np.float64)
    decision = np.asarray(decision, dtype=np.float64)
    a, b = _rows(constraints)
    resid = a @ decision + b if len(constraints) else np.zeros(0)
    active = [i for i in range(len(constraints)) if abs(resid[i]) <= active_tol]
    target = decision - reference
    if not active:
        return float(np.linalg.norm(target))
    basis = a[active].T
    _, rnorm = nnls(basis, target)
    return float(rnorm)


def parse_annotations_reference(path, label_filter=("Pedestrian",)):
    """Line-by-line annotation parser: frames (frame -> {track -> (2,)
    center}) and labels, or ParseError with the first bad line.  This is
    the original parser with one rule added: a box center must be finite.
    """
    from conformal_cbf.errors import ParseError

    frames = {}
    labels = {}
    keep = None if label_filter is None else set(label_filter)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            tokens = text.split()
            if len(tokens) != 10:
                raise ParseError(f"line {lineno}: columns", line=lineno)
            try:
                track = int(tokens[0])
                xmin, ymin, xmax, ymax = (float(t) for t in tokens[1:5])
                frame = int(tokens[5])
                lost = int(tokens[6])
                int(tokens[7])
                int(tokens[8])
            except ValueError:
                raise ParseError(f"line {lineno}: value", line=lineno) from None
            center = np.array([0.5 * (xmin + xmax), 0.5 * (ymin + ymax)])
            if not (math.isfinite(center[0]) and math.isfinite(center[1])):
                raise ParseError(f"line {lineno}: non-finite", line=lineno)
            label = tokens[9].strip('"')
            if lost == 1:
                continue
            if keep is not None and label not in keep:
                continue
            row = frames.setdefault(frame, {})
            if track in row:
                raise ParseError(f"line {lineno}: duplicate", line=lineno)
            row[track] = center
            labels.setdefault(track, label)
    return frames, labels


def history_reference(frames, agent_id, end_frame, max_frames):
    """(start_frame, positions) of the contiguous presence ending right
    before end_frame, walked frame by frame; None when absent."""
    rows = []
    frame = end_frame - 1
    while frame >= end_frame - max_frames:
        pos = frames.get(frame, {}).get(agent_id)
        if pos is None:
            break
        rows.append(pos)
        frame -= 1
    if not rows:
        return None
    return frame + 1, np.array(rows[::-1])


def future_reference(frames, agent_id, start_frame, max_frames):
    """(start_frame, positions) of the contiguous presence from
    start_frame on, walked frame by frame; None when absent."""
    rows = []
    frame = start_frame
    while frame < start_frame + max_frames:
        pos = frames.get(frame, {}).get(agent_id)
        if pos is None:
            break
        rows.append(pos)
        frame += 1
    if not rows:
        return None
    return start_frame, np.array(rows)


def history_window(frames, agent_id, end_frame, max_frames, dt):
    """history_reference as a Window, or None."""
    found = history_reference(frames, agent_id, end_frame, max_frames)
    return None if found is None else Window(agent_id, found[0], dt, found[1])


def future_window(frames, agent_id, start_frame, max_frames, dt):
    """future_reference as a Window, or None."""
    found = future_reference(frames, agent_id, start_frame, max_frames)
    return None if found is None else Window(agent_id, found[0], dt, found[1])


def sensed_reference(frames, ego, rho0, frame):
    """(agent_id, position) strictly within rho0, by id, one norm each."""
    ego = np.asarray(ego, dtype=np.float64)
    row = frames.get(frame, {})
    return [
        (agent_id, row[agent_id])
        for agent_id in sorted(row)
        if float(np.linalg.norm(row[agent_id] - ego)) < rho0
    ]


def predict_reference(
    kind, histories, horizon_frames, *, futures=None, cbf=None, ego_positions=None, seed=None
):
    """The per-agent predictor the array form replaced: agent_id ->
    Window, in id order, from id-keyed history and future Window
    mappings.  Agents with fewer than two history samples or no recorded
    future are skipped."""
    from conformal_cbf.errors import InputError
    from conformal_cbf.predictor import CONSTANT_VELOCITY, GROUND_TRUTH

    out = {}
    for agent_id in sorted(histories):
        history = histories[agent_id]
        if history.n_samples < 2:
            continue
        if kind.kind == CONSTANT_VELOCITY:
            out[agent_id] = _constant_velocity_reference(history, horizon_frames)
            continue
        future = futures.get(agent_id) if futures else None
        if future is None or future.n_samples == 0:
            continue
        if future.start_frame != history.end_frame:
            raise InputError(f"future of agent {agent_id} does not abut its history")
        truth = future.prefix(min(horizon_frames, future.n_samples))
        if kind.kind == GROUND_TRUTH:
            out[agent_id] = truth
        else:
            out[agent_id] = _noise_bounded_reference(kind, truth, cbf, ego_positions, seed)
    return out


def _constant_velocity_reference(history, horizon):
    step = history.positions[-1] - history.positions[-2]
    offsets = np.arange(1, horizon + 1, dtype=np.float64)[:, None]
    return Window(
        history.agent_id, history.end_frame, history.dt, history.positions[-1] + offsets * step
    )


def noise_reference(kind, start_frame, agent_id, n, *, seed):
    """The (n, 2) perturbation the noise-bounded oracle draws for one
    agent before shrinking it.  A negative frame or id enters the key
    as its 64-bit two's-complement pattern."""
    key = [seed] + [x if x >= 0 else x + 2**64 for x in (int(start_frame), int(agent_id))]
    rng = np.random.default_rng(key)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    radii = kind.value_bound * rng.uniform(0.0, 1.0, size=n)
    return radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _noise_bounded_reference(kind, truth, cbf, ego_positions, seed):
    """Halve the perturbation until the flow-term error stays within the
    dynamics bound, at most 80 times; the truth when none complies."""
    n = truth.n_samples
    ego = np.asarray(ego_positions, dtype=np.float64)
    if ego.shape == (2,):
        ego = np.broadcast_to(ego, (n, 2))
    noise = noise_reference(kind, truth.start_frame, truth.agent_id, n, seed=seed)
    scale = 1.0
    for _ in range(80):
        candidate = Window(
            truth.agent_id, truth.start_frame, truth.dt, truth.positions + scale * noise
        )
        if _flow_error_ok(kind.dynamics_bound, cbf, ego, truth, candidate):
            return candidate
        scale *= 0.5
    return truth


def _flow_error_ok(bound, cbf, ego, truth, candidate):
    from conformal_cbf.barrier import barrier_terms
    from conformal_cbf.errors import SingularityError
    from conformal_cbf.predictor import velocities

    if truth.n_samples < 2:
        return True
    try:
        _, g_true = barrier_terms(cbf, ego - truth.positions)
        _, g_pred = barrier_terms(cbf, ego - candidate.positions)
    except SingularityError:
        return False
    q_true = np.vecdot(-g_true, velocities(truth.positions, truth.dt))
    q_pred = np.vecdot(-g_pred, velocities(candidate.positions, candidate.dt))
    return not np.any(np.abs(q_pred - q_true) > bound)


def stack_reference(predictions):
    """A window's id-keyed predictions as the engine's arrays: sorted ids,
    (m, H, 2) positions and velocities (zero past each agent's own
    length) and lengths, with one velocities call per agent."""
    from conformal_cbf.predictor import Predictions, velocities

    ids = sorted(predictions)
    horizon = max((predictions[i].n_samples for i in ids), default=0)
    positions = np.zeros((len(ids), horizon, 2))
    vels = np.zeros((len(ids), horizon, 2))
    lengths = np.zeros(len(ids), dtype=np.intp)
    for j, agent_id in enumerate(ids):
        traj = predictions[agent_id]
        n = traj.n_samples
        positions[j, :n] = traj.positions
        vels[j, :n] = velocities(traj.positions, traj.dt)
        lengths[j] = n
    return Predictions(
        ids=np.array(ids) if ids else np.zeros(0, np.intp),
        positions=positions,
        velocities=vels,
        lengths=lengths,
    )


def distance_reference(scene, positions, collision_distance):
    """(d_min, n_collide) as the closed loop once scanned them, frame by
    frame: positions[i] is the ego's position at frame start_frame + i.
    A frame without an agent counts for nothing."""
    d_min, n_collide = math.inf, 0
    for offset, position in enumerate(positions):
        _, actual, _ = scene.rows_at(scene.start_frame + offset)
        if len(actual):
            apart = actual - position
            nearest = math.sqrt(np.vecdot(apart, apart).min())
            d_min = min(d_min, nearest)
            if nearest < collision_distance:
                n_collide += 1
    return d_min, n_collide
