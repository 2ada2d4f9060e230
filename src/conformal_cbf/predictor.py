"""Agent trajectory predictors and finite-difference velocities.

Trajectories are uniform samplings of planar positions.  Velocities are
recovered by central differences in the interior and one-sided
differences at the window edges.  velocities applies the rule to whole
windows at once and differentiate at one frame; the two agree bitwise,
so predicted and revealed motion are differentiated identically wherever
they are compared.

Three predictor kinds are available.  "constant-velocity" extrapolates
the last observed displacement.  The two oracle kinds replay the actual
future and exist for tests and calibration studies: "ground-truth-oracle"
returns it untouched, and "noise-bounded-oracle" perturbs it while
enforcing stated bounds on the position error and on the error of the
agent-side barrier flow term.  The enforcement checks derivatives of the
trajectory it returns, so bounds hold exactly for consumers that
differentiate the same window.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from conformal_cbf.barrier import PotentialFieldCbf, barrier_terms
from conformal_cbf.errors import InputError, SingularityError

logger = logging.getLogger(__name__)

CONSTANT_VELOCITY = "constant-velocity"
GROUND_TRUTH = "ground-truth-oracle"
NOISE_BOUNDED = "noise-bounded-oracle"
_KINDS = (CONSTANT_VELOCITY, GROUND_TRUTH, NOISE_BOUNDED)


@dataclass(frozen=True)
class SampledTrajectory:
    """Positions of one agent sampled every dt seconds from start_frame."""

    agent_id: int
    start_frame: int
    dt: float
    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise InputError("positions must be an (n, 2) array with n >= 1")
        if not np.isfinite(pos).all():
            raise InputError("positions must be finite")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InputError("dt must be positive and finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n_samples(self) -> int:
        return self.positions.shape[0]

    @property
    def end_frame(self) -> int:
        """First frame past the window."""
        return self.start_frame + self.n_samples

    def contains(self, frame: int) -> bool:
        return self.start_frame <= frame < self.end_frame

    def position_at(self, frame: int) -> np.ndarray:
        if not self.contains(frame):
            raise InputError(
                f"frame {frame} outside window [{self.start_frame}, {self.end_frame})"
            )
        return self.positions[frame - self.start_frame]

    def prefix(self, n: int) -> "SampledTrajectory":
        if not 1 <= n <= self.n_samples:
            raise InputError("prefix length out of range")
        return SampledTrajectory(
            agent_id=self.agent_id,
            start_frame=self.start_frame,
            dt=self.dt,
            positions=self.positions[:n].copy(),
        )


@dataclass(frozen=True)
class PredictorKind:
    """Which predictor to run, with the oracle noise bounds and seed.

    value_bound and dynamics_bound are only consulted by the
    noise-bounded oracle; seed makes its perturbations reproducible.
    """

    kind: str = CONSTANT_VELOCITY
    value_bound: float = 0.0
    dynamics_bound: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown predictor kind {self.kind!r}")
        for name in ("value_bound", "dynamics_bound"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise InputError(f"{name} must be nonnegative and finite")


def differentiate(traj: SampledTrajectory, frame: int) -> np.ndarray:
    """Velocity at a frame of the window, central differences inside,
    one-sided at the first and last sample."""
    if traj.n_samples < 2:
        raise InputError("cannot differentiate a single-sample trajectory")
    if not traj.contains(frame):
        raise InputError(
            f"frame {frame} outside window [{traj.start_frame}, {traj.end_frame})"
        )
    i = frame - traj.start_frame
    p = traj.positions
    if i == 0:
        return (p[1] - p[0]) / traj.dt
    if i == traj.n_samples - 1:
        return (p[i] - p[i - 1]) / traj.dt
    return (p[i + 1] - p[i - 1]) / (2.0 * traj.dt)


def velocities(positions, dt: float) -> np.ndarray:
    """differentiate at every sample in one call.

    Args:
        positions: samples along axis -2, shape (..., n, 2) with n >= 2.

    Returns:
        Velocities of the same shape, bitwise equal to differentiate at
        each frame of each window.
    """
    p = np.asarray(positions, dtype=np.float64)
    if p.shape[-2] < 2:
        raise InputError("cannot differentiate a single-sample trajectory")
    v = np.empty_like(p)
    v[..., 1:-1, :] = (p[..., 2:, :] - p[..., :-2, :]) / (2.0 * dt)
    v[..., 0, :] = (p[..., 1, :] - p[..., 0, :]) / dt
    v[..., -1, :] = (p[..., -1, :] - p[..., -2, :]) / dt
    return v


def predict(
    kind: PredictorKind,
    histories: dict,
    horizon_frames: int,
    *,
    futures: dict | None = None,
    cbf: PotentialFieldCbf | None = None,
    ego_positions: np.ndarray | None = None,
) -> dict:
    """Predicted trajectories per agent over the coming horizon.

    Args:
        kind: predictor selection and configuration.
        histories: agent_id -> SampledTrajectory of observed motion; all
            windows must end at the same frame, where prediction starts.
        horizon_frames: number of future frames to produce.
        futures: agent_id -> SampledTrajectory of the actual future,
            starting where the history ends.  Required by the oracle
            kinds, ignored by constant-velocity.
        cbf: barrier whose flow term the noise-bounded oracle must
            respect; required by that kind only.
        ego_positions: ego position(s) the noise-bounded oracle checks
            its dynamics bound against, either one (2,) point or an
            (horizon, 2) path.

    Returns:
        agent_id -> SampledTrajectory.  Agents with fewer than two
        history samples are skipped with a log warning; oracle
        predictions may be shorter than the horizon when the recorded
        future ends early.
    """
    if horizon_frames < 1:
        raise InputError("horizon_frames must be at least 1")
    if kind.kind in (GROUND_TRUTH, NOISE_BOUNDED) and futures is None:
        raise InputError(f"{kind.kind} needs the recorded future")
    if kind.kind == NOISE_BOUNDED and (cbf is None or ego_positions is None):
        raise InputError("noise-bounded-oracle needs cbf and ego_positions")

    out: dict[int, SampledTrajectory] = {}
    for agent_id in sorted(histories):
        history = histories[agent_id]
        if history.n_samples < 2:
            logger.warning(
                "agent %s has %d history sample(s), skipping prediction",
                agent_id,
                history.n_samples,
            )
            continue
        if kind.kind == CONSTANT_VELOCITY:
            out[agent_id] = _constant_velocity(history, horizon_frames)
            continue
        future = futures.get(agent_id) if futures else None
        if future is None or future.n_samples == 0:
            logger.warning("agent %s has no recorded future, skipping", agent_id)
            continue
        if future.start_frame != history.end_frame:
            raise InputError(
                f"future of agent {agent_id} starts at {future.start_frame}, "
                f"expected {history.end_frame}"
            )
        n = min(horizon_frames, future.n_samples)
        truth = future.prefix(n)
        if kind.kind == GROUND_TRUTH:
            out[agent_id] = truth
        else:
            out[agent_id] = _noise_bounded(kind, truth, cbf, ego_positions)
    return out


def _constant_velocity(history: SampledTrajectory, horizon: int) -> SampledTrajectory:
    step = history.positions[-1] - history.positions[-2]
    offsets = np.arange(1, horizon + 1, dtype=np.float64)[:, None]
    return SampledTrajectory(
        agent_id=history.agent_id,
        start_frame=history.end_frame,
        dt=history.dt,
        positions=history.positions[-1] + offsets * step,
    )


def _noise_bounded(
    kind: PredictorKind,
    truth: SampledTrajectory,
    cbf: PotentialFieldCbf,
    ego_positions: np.ndarray,
) -> SampledTrajectory:
    n = truth.n_samples
    ego = np.asarray(ego_positions, dtype=np.float64)
    if ego.shape == (2,):
        ego = np.broadcast_to(ego, (n, 2))
    elif ego.shape != (n, 2):
        raise InputError("ego_positions must be one point or one per sample")

    rng = np.random.default_rng([kind.seed, truth.start_frame, int(truth.agent_id)])
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    radii = kind.value_bound * rng.uniform(0.0, 1.0, size=n)
    noise = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    # Shrink the perturbation toward the truth until the flow-term error
    # stays within the dynamics bound; the zero perturbation always
    # complies, so the loop terminates.
    scale = 1.0
    for _ in range(80):
        candidate = SampledTrajectory(
            agent_id=truth.agent_id,
            start_frame=truth.start_frame,
            dt=truth.dt,
            positions=truth.positions + scale * noise,
        )
        if _flow_error_ok(kind.dynamics_bound, cbf, ego, truth, candidate):
            return candidate
        scale *= 0.5
    return truth


def _flow_error_ok(bound, cbf, ego, truth, candidate) -> bool:
    if truth.n_samples < 2:
        return True
    try:
        _, g_true = barrier_terms(cbf, ego - truth.positions)
        _, g_pred = barrier_terms(cbf, ego - candidate.positions)
    except SingularityError:
        return False
    # the agent-side gradient is -grad_ego
    q_true = np.vecdot(-g_true, velocities(truth.positions, truth.dt))
    q_pred = np.vecdot(-g_pred, velocities(candidate.positions, candidate.dt))
    return not np.any(np.abs(q_pred - q_true) > bound)
