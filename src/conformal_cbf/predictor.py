"""Agent trajectory predictors and finite-difference velocities.

Trajectories are uniform samplings of planar positions.  Velocities are
recovered by central differences in the interior and one-sided
differences at the window edges.  velocities applies the rule to whole
stacks of windows at once, so predicted and revealed motion are
differentiated identically wherever they are compared.

predict works on a whole window at once: it takes the ids, histories
and recorded futures of m agents as arrays and returns Predictions, the
(m, H, 2) positions and velocities with one length per agent.  Three
predictor kinds are available.  "constant-velocity" extrapolates the
last observed displacement, one broadcast for all agents.  The two
oracle kinds replay the actual future and exist for tests and
calibration studies: "ground-truth-oracle" returns it untouched, and
"noise-bounded-oracle" perturbs it while enforcing stated bounds on the
position error and on the error of the agent-side barrier flow term.
The enforcement checks derivatives of the trajectory it returns, so
bounds hold exactly for consumers that differentiate the same window.
Velocities are taken per agent length, never across the zero padding,
so the one-sided edge sits at each agent's own last sample: predict
takes every kind's velocities, once their positions are checked finite,
in one velocities call with the oracles' lengths.
"""

import math
from dataclasses import dataclass

import numpy as np

from conformal_cbf.barrier import PotentialFieldCbf, barrier_terms
from conformal_cbf.errors import InputError, floats, integer, scalar

CONSTANT_VELOCITY = "constant-velocity"
GROUND_TRUTH = "ground-truth-oracle"
NOISE_BOUNDED = "noise-bounded-oracle"
_KINDS = (CONSTANT_VELOCITY, GROUND_TRUTH, NOISE_BOUNDED)


@dataclass(frozen=True)
class PredictorKind:
    """Which predictor to run, with the oracle noise bounds.

    value_bound and dynamics_bound are only consulted by the
    noise-bounded oracle.  Their errors name them by their config keys,
    predictor_value_bound and predictor_dynamics_bound.
    """

    kind: str = CONSTANT_VELOCITY
    value_bound: float = 0.0
    dynamics_bound: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"predictor must be one of {', '.join(_KINDS)}; got {self.kind!r}")
        for name in ("value_bound", "dynamics_bound"):
            scalar(f"predictor_{name}", getattr(self, name), "nonnegative")


def velocities(positions, dt: float, lengths=None) -> np.ndarray:
    """Velocity at every sample of a stack of windows: the central
    difference (p[i+1] - p[i-1]) / (2 dt) inside a window, the one-sided
    (p[1] - p[0]) / dt and (p[-1] - p[-2]) / dt at its first and last
    sample.

    Args:
        positions: samples along axis -2, shape (..., n, 2) with n >= 2;
            a stack of no windows, such as (0, 0, 2), gives zeros.
        lengths: optional integer samples of each window,
            broadcastable to positions.shape[:-2], each in [2, n].  A window then ends at
            its own last sample, which takes the one-sided backward
            difference, and its velocities past that are zero; its
            positions past its length do not affect the result.

    Returns:
        Velocities of the same shape, each window's computed from its
        own samples alone.

    Raises:
        InputError: fewer than two samples, or a length that is not an
            integer in [2, n].
    """
    p = floats("positions", positions)
    n = p.shape[-2]
    if n < 2:
        if not math.prod(p.shape[:-2]):
            return np.zeros(p.shape)  # a stack of no windows
        raise InputError("cannot differentiate a single-sample trajectory")
    v = np.empty(p.shape)
    v[..., 1:-1, :] = (p[..., 2:, :] - p[..., :-2, :]) / (2.0 * dt)
    v[..., 0, :] = (p[..., 1, :] - p[..., 0, :]) / dt
    v[..., -1, :] = (p[..., -1, :] - p[..., -2, :]) / dt
    if lengths is None:
        return v
    lengths = np.broadcast_to(lengths, p.shape[:-2]).reshape(-1)
    if lengths.dtype.kind not in "iu" or (
        (shortest := lengths.min(initial=n)) < 2 or lengths.max(initial=n) > n
    ):
        raise InputError("window lengths must be integers in [2, samples]")
    if shortest == n:
        return v
    short = np.flatnonzero(lengths < n)
    # the windows as rows of (windows, n, 2); v is C-ordered, so its
    # reshape is a view
    pw, vw = p.reshape(-1, *p.shape[-2:]), v.reshape(-1, *p.shape[-2:])
    last = lengths[short] - 1
    vw[short, last] = (pw[short, last] - pw[short, last - 1]) / dt
    window, sample = np.nonzero(np.arange(n) > last[:, None])
    vw[short[window], sample] = 0.0
    return v


@dataclass(frozen=True)
class Predictions:
    """One window's predictions for m agents, stacked.

    ids is (m,); positions and velocities are (m, H, 2), sample k being k
    frames after the window's first frame, and exactly zero past each
    agent's own length; lengths is (m,), every entry at least 2.  Each
    agent's velocities are velocities() of its own samples.  len() is m.
    """

    ids: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


NO_PREDICTIONS = Predictions(
    ids=np.zeros(0, np.intp),
    positions=np.zeros((0, 0, 2)),
    velocities=np.zeros((0, 0, 2)),
    lengths=np.zeros(0, np.intp),
)

# the noise oracle's shrink steps 2^-k, k = 0..79, each exact
_SCALES = np.ldexp(1.0, -np.arange(80))


def predict(
    kind: PredictorKind,
    ids,
    histories,
    horizon_frames: int,
    dt: float,
    *,
    futures=None,
    future_lengths=None,
    start_frame: int | None = None,
    seed: int | None = None,
    cbf: PotentialFieldCbf | None = None,
    ego_positions=None,
) -> Predictions:
    """Predicted positions of m agents over the coming horizon.

    Args:
        kind: predictor selection and configuration.
        ids: the agents' ids, (m,); the output keeps their order.
        histories: the last n >= 2 observed positions of each agent,
            (m, n, 2), all ending the frame before prediction starts.
        horizon_frames: number of future frames to produce, at least 2.
        dt: sampling interval of histories and futures.
        futures: each agent's recorded positions from the frame where
            prediction starts, (m, F, 2).  Required by the oracle kinds,
            ignored by constant-velocity.
        future_lengths: recorded samples of each future, (m,); entries
            of futures past them are never read.
        start_frame: frame where prediction starts; the noise-bounded
            oracle keys its random draws on (seed, start_frame, id).
        seed: the run's seed, which makes the noise-bounded oracle's
            perturbations reproducible; required by that kind only.
        cbf: barrier whose flow term the noise-bounded oracle must
            respect; required by that kind only.
        ego_positions: ego position(s) the noise-bounded oracle checks
            its dynamics bound against, either one (2,) point or one per
            future sample, (F, 2).

    Returns:
        Constant-velocity predicts every agent over the whole horizon.
        The oracles predict an agent over its recorded future, cut to
        the horizon, and leave out agents with fewer than two recorded
        samples, which have no velocity.

    Raises:
        InputError: shapes disagree, an input the kind needs is missing,
            or a predicted position is not finite.
    """
    integer("horizon_frames", horizon_frames, 2)
    scalar("dt", dt, "positive")
    ids = np.asarray(ids)
    histories = floats("histories", histories)
    m = len(ids)
    if ids.ndim != 1 or histories.ndim != 3 or histories.shape[0] != m or (
        histories.shape[1] < 2 or histories.shape[2] != 2
    ):
        raise InputError("histories must be (m, n >= 2, 2), one per id")

    if kind.kind == CONSTANT_VELOCITY:
        last = histories[:, -1:]
        step = last - histories[:, -2:-1]
        offsets = np.arange(1, horizon_frames + 1, dtype=np.float64)[:, None]
        positions = last + offsets * step
        lengths = np.full(m, horizon_frames, dtype=np.intp)
    else:
        if futures is None or future_lengths is None:
            raise InputError(f"{kind.kind} needs the recorded future")
        futures = floats("futures", futures)
        n = np.asarray(future_lengths, dtype=np.intp)
        if futures.ndim != 3 or futures.shape[0] != m or futures.shape[2] != 2 or (
            n.shape != (m,) or (n < 0).any() or (n > futures.shape[1]).any()
        ):
            raise InputError("futures must be (m, F, 2) with m lengths in [0, F]")
        keep = n >= 2
        ids, lengths = ids[keep], np.minimum(n[keep], horizon_frames)
        width = lengths.max(initial=0)
        valid = np.arange(width) < lengths[:, None]
        positions = np.where(valid[..., None], futures[keep, :width], 0.0)
    if kind.kind == NOISE_BOUNDED:
        if cbf is None or ego_positions is None or start_frame is None or seed is None:
            raise InputError(
                "noise-bounded-oracle needs cbf, ego_positions, start_frame and seed"
            )
        ego = floats("ego_positions", ego_positions)
        if ego.shape == (futures.shape[1], 2):
            ego = ego[:width]
        elif ego.shape != (2,):
            raise InputError("ego_positions must be one point or one per sample")
        positions = _noise_bounded(
            kind, ids, positions, lengths, valid, start_frame, seed, dt, cbf, ego
        )
    if not np.isfinite(positions).all():
        raise InputError("predicted positions must be finite")
    # constant-velocity lengths are the whole horizon: checking them only costs
    vels = velocities(positions, dt, None if kind.kind == CONSTANT_VELOCITY else lengths)
    return Predictions(ids=ids, positions=positions, velocities=vels, lengths=lengths)


def _key_entry(x) -> int:
    """A frame or agent id as an entry of a generator key, which numpy
    requires to be nonnegative: a nonnegative x stays itself, a negative
    one is taken modulo 2**64.  A negative int64 so lands in
    [2**63, 2**64), where no nonnegative int64 lies."""
    x = int(x)
    return x if x >= 0 else x % 2**64


def _noise_bounded(kind, ids, truth, lengths, valid, start_frame, seed, dt, cbf, ego):
    """Perturbed truths.

    Each agent's perturbation is drawn from its own generator, keyed on
    (seed, start_frame, agent id) through _key_entry, with radius at most
    value_bound.  It is then shrunk by the first factor 2^-k, k = 0..79,
    for which the flow-term error stays within dynamics_bound at every
    sample; no factor passing leaves the truth.  All factors of all
    agents are checked in one barrier_terms call.  A factor putting a
    sample on the ego fails, and so does every factor when the truth
    itself does.
    """
    noise = np.zeros_like(truth)
    frame_key = _key_entry(start_frame)
    for j, (agent_id, n) in enumerate(zip(ids.tolist(), lengths.tolist())):
        rng = np.random.default_rng([seed, frame_key, _key_entry(agent_id)])
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radii = kind.value_bound * rng.uniform(0.0, 1.0, size=n)
        noise[j, :n] = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # (agent, truth then factor k, sample, xy)
    tracks = np.concatenate(
        [truth[:, None], truth[:, None] + _SCALES[:, None, None] * noise[:, None]],
        axis=1,
    )
    vels = velocities(tracks, dt, lengths[:, None])
    diff = ego - tracks
    singular = np.sqrt(np.vecdot(diff, diff)) < cbf.min_distance
    diff[singular] = cbf.rho0  # an offset the barrier is defined at
    _, grad_ego = barrier_terms(cbf, diff)
    # the agent-side gradient is -grad_ego
    q = np.vecdot(-grad_ego, vels)
    over = np.abs(q[:, 1:] - q[:, :1]) > kind.dynamics_bound
    fails = over | singular[:, 1:] | singular[:, :1]
    passes = ~(fails & valid[:, None]).any(axis=-1)
    pick = np.where(passes.any(axis=1), passes.argmax(axis=1) + 1, 0)
    return tracks[np.arange(len(ids)), pick]
