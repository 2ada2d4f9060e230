"""Output checks computed apart from the program.

Nothing here imports the program.  Each check re-derives what a run must
have produced from its inputs and its per-frame trace, using the formulas
stated in the program's module docstrings:

    U(d) = (k_rep / 2) (1/d - 1/rho0)^2 for d < rho0, else 0
    h    = 1 / (1 + U) - delta,   alpha(h) = alpha_slope * h
    row  : grad_ego . u + (grad_agent . v_agent + alpha(h) + lam) >= 0
    gap  = (q_pred - q_true) + (alpha(h_pred) - alpha(h_true)) + lam
    loss = arctan(max gap) / pi,   lam <- lam + eta (epsilon - loss)

and the closed-loop schedule of the engine docstring: windows of
tau_frames frames, scoring and constant-velocity prediction of the agents
sensed within rho0 at each window boundary, one row per predicted agent
inside rho0 at every frame, the double integrator driven by
-k_acc (v - command).

Every check returns a list of problems, each prefixed with the check's
name; an empty list means the output passed.
"""

import json
import math

import numpy as np
from scipy.optimize import linprog, nnls

CSV_HEADER = "epsilon,eta,tau,t_goal,n_collide,d_min,l_avg,inflation_events"


class Scene:
    """Agent positions on a dense (frame, agent) grid, NaN where absent."""

    def __init__(self, fps, ids, first_frame, positions):
        self.fps = float(fps)
        self.dt = 1.0 / self.fps
        self.ids = list(ids)
        self.first = int(first_frame)
        self.P = positions  # (frames, agents, 2)

    def at(self, frame):
        """Positions at a frame, NaN rows for absent agents or frames."""
        i = frame - self.first
        if 0 <= i < self.P.shape[0]:
            return self.P[i]
        return np.full((len(self.ids), 2), np.nan)

    @staticmethod
    def from_frames(fps, frames):
        """From a frame -> {agent id: (x, y)} mapping."""
        ids = sorted({a for row in frames.values() for a in row})
        col = {a: k for k, a in enumerate(ids)}
        first, last = min(frames), max(frames)
        P = np.full((last - first + 1, len(ids), 2), np.nan)
        for f, row in frames.items():
            for a, xy in row.items():
                P[f - first, col[a]] = xy
        return Scene(fps, ids, first, P)

    @staticmethod
    def from_spec(spec):
        """Piecewise-linear waypoint schedules sampled at every frame."""
        fps = float(spec["fps"])
        n = int(round(float(spec["duration"]) * fps)) + 1
        t = np.arange(n) / fps
        agents = sorted(spec["agents"], key=lambda a: int(a["id"]))
        P = np.full((n, len(agents), 2), np.nan)
        for k, agent in enumerate(agents):
            times = np.array([float(w[0]) for w in agent["waypoints"]])
            pts = np.array([[float(w[1][0]), float(w[1][1])] for w in agent["waypoints"]])
            inside = (t >= times[0]) & (t <= times[-1])
            P[inside, k, 0] = np.interp(t[inside], times, pts[:, 0])
            P[inside, k, 1] = np.interp(t[inside], times, pts[:, 1])
        frames = np.flatnonzero(~np.all(np.isnan(P[:, :, 0]), axis=1))
        return Scene(fps, [int(a["id"]) for a in agents], frames[0], P[frames[0]:frames[-1] + 1])


def read_trace(path):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return {
        "frame": np.array([r["frame"] for r in rows], dtype=np.int64),
        "position": np.array([r["position"] for r in rows], dtype=np.float64).reshape(-1, 2),
        "velocity": np.array([r["velocity"] for r in rows], dtype=np.float64).reshape(-1, 2),
        "lambda": np.array([r["lambda"] for r in rows], dtype=np.float64),
        "n_constraints": np.array([r["n_constraints"] for r in rows], dtype=np.int64),
        "relaxed": np.array([r["status"] == "relaxed" for r in rows]),
        "status_ok": all(r["status"] in ("ok", "relaxed") for r in rows),
        "inflation": np.array([r["inflation"] for r in rows], dtype=np.float64),
        "command": np.array([r["command"] for r in rows], dtype=np.float64).reshape(-1, 2),
        "tracking_error": np.array([r["tracking_error"] for r in rows], dtype=np.float64),
    }


def read_csv(path):
    """(header, [raw row strings])."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return (lines[0] if lines else ""), lines[1:]


def parse_row(row):
    f = row.split(",")
    if len(f) != 8 or "failed" in f:
        return None
    return {
        "epsilon": float(f[0]),
        "eta": float(f[1]),
        "tau": int(f[2]),
        "t_goal": None if f[3] == "unreached" else float(f[3]),
        "n_collide": int(f[4]),
        "d_min": float(f[5]),
        "l_avg": float(f[6]),
        "inflation_events": int(f[7]),
    }


# ---------------------------------------------------------------------------
# barrier algebra, vectorized over any leading shape


def barrier(cfg, ego, agent):
    """(h, grad_ego) for ego and agent positions of shape (..., 2)."""
    diff = ego - agent
    d = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    k, rho0 = cfg["k_rep"], cfg["rho0"]
    inside = d < rho0
    w = np.where(inside, 1.0 / d - 1.0 / rho0, 0.0)
    u = 0.5 * k * w * w
    h = 1.0 / (1.0 + u) - cfg["delta"]
    slope = np.where(inside, k * w / (d * d * (1.0 + u) ** 2), 0.0)
    return h, (slope / d)[..., None] * diff


def differentiate(x, dt):
    """Central differences inside, one-sided at both ends, along axis 0."""
    v = np.empty_like(x)
    v[0] = (x[1] - x[0]) / dt
    v[-1] = (x[-1] - x[-2]) / dt
    v[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    return v


def collision_distance(cfg):
    w = math.sqrt(2.0 * (1.0 / cfg["delta"] - 1.0) / cfg["k_rep"])
    return 1.0 / (1.0 / cfg["rho0"] + w)


# ---------------------------------------------------------------------------
# one projection


def check_projection(ref, A, b, u, inflation, step, where):
    """Feasibility, KKT stationarity and minimal inflation of one solve of
    min |u - ref|^2 s.t. A u + b + inflation >= 0."""
    out = []
    if A.shape[0] == 0:
        if not np.allclose(u, ref, rtol=1e-12, atol=1e-12):
            out.append(f"kkt: {where}: no rows but command {u} != reference {ref}")
        return out
    norms = np.sqrt(A[:, 0] ** 2 + A[:, 1] ** 2)
    if np.any(norms == 0.0):
        return [f"kkt: {where}: zero-normal row"]
    an = A / norms[:, None]
    bn = (b + inflation) / norms
    r = an @ u + bn
    scale = 1.0 + float(np.linalg.norm(u))
    if np.any(r < -(1e-7 * scale + 1e-12 * np.abs(bn))):
        i = int(np.argmin(r))
        out.append(f"kkt: {where}: row {i} violated by {-r[i]:.3e}")
    active = r <= 1e-6 * scale
    target = u - ref
    if np.any(active):
        _, resid = nnls(an[active].T, target)
    else:
        resid = float(np.linalg.norm(target))
    if resid > 1e-6 * (1.0 + float(np.linalg.norm(target))):
        out.append(f"kkt: {where}: stationarity residual {resid:.3e}")
    if inflation > 0.0:
        # smallest uniform inflation s with A u + b + s >= 0 feasible
        lp = linprog(
            c=[0.0, 0.0, 1.0],
            A_ub=np.column_stack([-A, -np.ones(A.shape[0])]),
            b_ub=b,
            bounds=[(None, None)] * 3,
            method="highs",
        )
        if lp.status != 0:
            out.append(f"kkt: {where}: inflation LP status {lp.status}")
        elif not (inflation - step - 1e-6 * step < lp.x[2] <= inflation + 1e-6 * step):
            out.append(
                f"kkt: {where}: inflation {inflation} is not the smallest multiple of "
                f"{step} above the minimal {lp.x[2]:.6g}"
            )
    return out


# ---------------------------------------------------------------------------
# one closed-loop run


def check_run(name, cfg, scene, trace, row, *, speed_limit, extent_slack):
    """Every per-run check on one traced run and its CSV row."""
    problems = []
    say = problems.append
    dt = scene.dt
    tau, H = cfg["tau_frames"], cfg["horizon_frames"]
    lam0, eta, eps = cfg["lambda_initial"], cfg["eta"], cfg["epsilon"]
    slope = cfg["alpha_slope"]
    goal = np.array(cfg["goal"], dtype=np.float64)
    start = scene.first
    n = trace["frame"].shape[0]
    if row is None:
        return [f"csv: {name}: missing or failed metrics row"]
    if n == 0 or not np.array_equal(trace["frame"], start + np.arange(n)):
        return [f"dynamics: {name}: trace frames are not {start}, {start + 1}, ..."]
    if (row["epsilon"], row["eta"], row["tau"]) != (eps, eta, tau):
        say(f"csv: {name}: epsilon/eta/tau columns {row['epsilon']},{row['eta']},{row['tau']}")

    pos, vel, cmd = trace["position"], trace["velocity"], trace["command"]
    start_pos = np.array(cfg.get("start", (0.0, 0.0)), dtype=np.float64)
    start_vel = np.array(cfg.get("start_velocity", (0.0, 0.0)), dtype=np.float64)
    if not (np.array_equal(pos[0], start_pos) and np.array_equal(vel[0], start_vel)):
        say(f"dynamics: {name}: first row is not the task's start state")

    # double integrator under -k_acc (v - command), held for one frame
    acc = -cfg["k_acc"] * (vel - cmd)
    p_next = pos + vel * dt + 0.5 * acc * dt * dt
    v_next = vel + acc * dt
    tol_p = 1e-9 * (1.0 + np.abs(pos[1:]))
    tol_v = 1e-9 * (1.0 + np.abs(vel[1:]) + np.abs(acc[:-1]) * dt)
    bad = np.flatnonzero(
        np.any(np.abs(p_next[:-1] - pos[1:]) > tol_p, axis=1)
        | np.any(np.abs(v_next[:-1] - vel[1:]) > tol_v, axis=1)
    )
    if bad.size:
        say(f"dynamics: {name}: frame {start + bad[0] + 1} does not follow from the one before")
    terr = np.sqrt(((vel - cmd) ** 2).sum(axis=1))
    if not np.allclose(trace["tracking_error"], terr, rtol=1e-12, atol=1e-12):
        say(f"dynamics: {name}: tracking_error is not |velocity - command|")
    if not trace["status_ok"] or np.any(trace["relaxed"] != (trace["inflation"] > 0.0)):
        say(f"dynamics: {name}: status disagrees with inflation")

    # blow-up guard
    speed = np.sqrt((cmd ** 2).sum(axis=1))
    if speed.max() > speed_limit:
        say(f"guard: {name}: commanded speed {speed.max():.4g} above {speed_limit}")
    present = ~np.isnan(scene.P[:, :, 0])
    box_lo = np.minimum(np.nanmin(scene.P[present], axis=0), np.minimum(start_pos, goal))
    box_hi = np.maximum(np.nanmax(scene.P[present], axis=0), np.maximum(start_pos, goal))
    outside = np.any((pos < box_lo - extent_slack) | (pos > box_hi + extent_slack), axis=1)
    if outside.any():
        say(
            f"guard: {name}: ego at {pos[np.argmax(outside)]} at frame "
            f"{start + int(np.argmax(outside))}, outside the scene box by more than {extent_slack}"
        )

    # goal: the frame that reaches it is entered but not traced
    gdist = np.sqrt(((pos - goal) ** 2).sum(axis=1))
    ego = pos
    if row["t_goal"] is None:
        if n != cfg["max_frames"] or np.any(gdist <= cfg["goal_radius"]):
            say(f"csv: {name}: unreached goal but {n} frames of {cfg['max_frames']}")
    else:
        final = p_next[-1]
        if (
            row["t_goal"] != n * dt
            or np.any(gdist <= cfg["goal_radius"])
            or np.linalg.norm(goal - final) > cfg["goal_radius"]
        ):
            say(f"csv: {name}: t_goal {row['t_goal']} disagrees with the trace")
        ego = np.vstack([pos, final])
    entered = ego.shape[0]

    # nearest-agent distance and collision frames
    frames = start + np.arange(entered)
    agents = np.stack([scene.at(f) for f in frames])  # (entered, agents, 2)
    dist = np.sqrt(((agents - ego[:, None, :]) ** 2).sum(axis=2))
    nearest = np.where(np.isnan(dist), np.inf, dist).min(axis=1)
    d_min = float(nearest.min())
    n_collide = int(np.sum(nearest < collision_distance(cfg)))
    if n_collide != row["n_collide"]:
        say(f"distance: {name}: n_collide {row['n_collide']}, recomputed {n_collide}")
    if not math.isclose(d_min, row["d_min"], rel_tol=1e-12):
        say(f"distance: {name}: d_min {row['d_min']!r}, recomputed {d_min!r}")
    if row["inflation_events"] != int(trace["relaxed"].sum()):
        say(f"csv: {name}: inflation_events {row['inflation_events']} vs trace")

    # windows: predictions, rows at every frame, scoring, margin updates
    losses = []
    lam = lam0
    rows_bad = None
    kkt = []
    n_windows = (entered + tau - 1) // tau
    for k in range(n_windows):
        w = start + k * tau
        o = k * tau
        if o < n:
            if abs(trace["lambda"][o] - lam) > 1e-9 * max(1.0, abs(lam), eta):
                say(f"windows: {name}: margin {trace['lambda'][o]!r} at frame {w}, expected {lam!r}")
                break
            lam = trace["lambda"][o]
            if np.any(trace["lambda"][o:min(o + tau, n)] != lam):
                say(f"windows: {name}: margin changes inside the window at {w}")
        # constant-velocity predictions of agents sensed at w
        here, last, prev = scene.at(w), scene.at(w - 1), scene.at(w - 2)
        sensed = ~np.isnan(here[:, 0]) & ~np.isnan(last[:, 0]) & ~np.isnan(prev[:, 0])
        sensed &= np.sqrt(((here - ego[o]) ** 2).sum(axis=1)) < cfg["rho0"]
        idx = np.flatnonzero(sensed)
        steps = np.arange(1, H + 1, dtype=np.float64)[:, None, None]
        pred = last[idx] + steps * (last[idx] - prev[idx])  # (H, m, 2)
        pvel = differentiate(pred, dt) if H >= 2 else np.zeros_like(pred)

        # rows at every traced frame of the window
        for i in range(min(tau, n - o)):
            f = o + i
            diff = pred[i] - ego[f]
            d = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
            use = (d > 0.0) & (d < cfg["rho0"])
            if int(use.sum()) != trace["n_constraints"][f]:
                rows_bad = rows_bad or (
                    f"kkt: {name}: frame {start + f} has {trace['n_constraints'][f]} rows, "
                    f"recomputed {int(use.sum())}"
                )
                continue
            h, g = barrier(cfg, ego[f], pred[i][use])
            b = -(g * pvel[i][use]).sum(axis=1) + slope * h + lam
            ref = cfg["attract_gain"] * (goal - ego[f])
            step = cfg.get("relax_lambda_step") or eta * (0.5 - eps)
            kkt += check_projection(ref, g, b, cmd[f], trace["inflation"][f], step, f"{name} frame {start + f}")

        # score the window once its frames are in
        length = min(tau, entered - o)
        if length < tau or idx.size == 0:
            continue
        worst = None
        for j, col in enumerate(idx):
            actual = np.stack([scene.at(w + i)[col] for i in range(length)])
            m = length if not np.isnan(actual[:, 0]).any() else int(np.argmax(np.isnan(actual[:, 0])))
            m = min(m, H)
            if m < 2:
                continue
            act, prd, eg = actual[:m], pred[:m, j], ego[o:o + m]
            h_t, g_t = barrier(cfg, eg, act)
            h_p, g_p = barrier(cfg, eg, prd)
            q_t = -(g_t * differentiate(act, dt)).sum(axis=1)
            q_p = -(g_p * differentiate(prd, dt)).sum(axis=1)
            gaps = (q_p - q_t) + (slope * h_p - slope * h_t) + lam
            loss = math.atan(float(gaps.max())) / math.pi
            worst = loss if worst is None else max(worst, loss)
        if worst is not None:
            losses.append(worst)
            lam = lam + eta * (eps - worst)
    if rows_bad:
        say(rows_bad)
    problems += kkt[:5]

    l_avg = sum(losses) / len(losses) if losses else math.nan
    if not (
        (math.isnan(l_avg) and math.isnan(row["l_avg"]))
        or abs(l_avg - row["l_avg"]) <= 1e-12 + 1e-9 * abs(l_avg)
    ):
        say(f"windows: {name}: l_avg {row['l_avg']!r}, recomputed mean loss {l_avg!r}")
    return problems


# ---------------------------------------------------------------------------
# properties across runs


def epsilon_properties(label, records, eta, lam0, *, min_windows):
    """Acceptance properties 07/08 over runs that differ only in epsilon.

    records: dicts with epsilon, l_avg, n_collide, d_min, windows (scored
    windows, or a lower bound) and lam_min.
    """
    out = []
    recs = sorted(records, key=lambda r: r["epsilon"])
    for r in recs:
        if r["windows"] < min_windows:
            out.append(f"epsilon: {label}: eps={r['epsilon']} scored only {r['windows']} windows")
            continue
        ceiling = (abs(lam0 - r["lam_min"]) + eta) / (eta * r["windows"])
        if abs(r["l_avg"] - r["epsilon"]) > ceiling + 0.05:
            out.append(f"epsilon: {label}: l_avg {r['l_avg']:.4f} misses target {r['epsilon']}")
    collisions = [r["n_collide"] for r in recs]
    if collisions != sorted(collisions):
        out.append(f"epsilon: {label}: collisions {collisions} do not grow with epsilon")
    if not recs[0]["d_min"] > recs[-1]["d_min"]:
        out.append(f"epsilon: {label}: tightest target does not give the most clearance")
    return out


def check_sweep(grid_path, cells, tau):
    """The sweep table: fixed header, one row per cell in grid order.

    Returns (problems, rows) with rows[i] the parsed row of cell i, or None
    where the cell's row reads failed.
    """
    header, rows = read_csv(grid_path)
    out = []
    if header != CSV_HEADER:
        out.append(f"sweep: header {header!r}")
    if len(rows) != len(cells):
        return out + [f"sweep: {len(rows)} rows for {len(cells)} cells"], []
    parsed = []
    for (eps, eta), raw in zip(cells, rows):
        f = raw.split(",")
        if len(f) != 8 or (float(f[0]), float(f[1]), int(f[2])) != (eps, eta, tau):
            out.append(f"sweep: row {raw!r} out of grid order")
        parsed.append(parse_row(raw))
    return out, parsed
