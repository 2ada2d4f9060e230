"""Online calibration of the constraint margin and its certificates.

The deployed constraint replaces the true barrier condition with one
evaluated at predicted agent states plus a margin lam.  How much the
deployed condition under- or over-covers the true one at a sample is the
gap

    gap = q_pred + alpha(h_pred) + lam - q_true - alpha(h_true)

where q is the agent-side flow term grad_agent . v_agent and h the
barrier value; a positive gap means the deployed constraint was looser
than the truth.  A window's loss squashes the worst gap over all agents
and sample instants through an odd, strictly increasing map s into
(-1/2, 1/2), s(r) = arctan(r) / pi.  The class-kappa function is the
line alpha(h) = alpha_slope * h, so its Lipschitz constant M_alpha is
alpha_slope.

After each window the margin moves by the loss surplus,

    lam <- lam + eta * (epsilon - loss)

which steers the running average loss toward the target epsilon (the
target may be negative).  Because both loss and epsilon lie in
(-1/2, 1/2), a single update never moves lam by eta or more.

Two certificates close the loop.  The margin level

    lam_safe = s^-1(epsilon_safe) - e_d - M_alpha * m_h * e_v

guarantees loss <= epsilon_safe whenever lam <= lam_safe under the
stated prediction-error and regularity bounds.  And for any loss
sequence that respects "lam <= lam_safe implies loss <= epsilon_safe"
with epsilon_safe <= epsilon, every prefix of length K satisfies

    mean(loss_1..loss_K) <= epsilon + (lam_1 - lam_safe + eta) / (eta * K)

while lam never drops below lam_safe - eta.  The update arithmetic here
is plain Python so exact number types pass through unchanged.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from conformal_cbf.barrier import BoundSet, PotentialFieldCbf, barrier_terms
from conformal_cbf.errors import ConfigError, InputError
from conformal_cbf.predictor import velocities

#: Window verdict when no agent was in range: the margin must not move.
NO_AGENTS = None


class EgoWindow(NamedTuple):
    """The ego's realized positions over a window, (n, 2), sampled every
    dt seconds, as window_loss takes them."""

    positions: np.ndarray
    dt: float

    @property
    def n_samples(self) -> int:
        return len(self.positions)


def squash(r: float) -> float:
    """s(r) = arctan(r) / pi, the window loss of a worst gap r."""
    if not math.isfinite(r):
        raise InputError("squashing input must be finite")
    return math.atan(r) / math.pi


def squash_inverse(y: float) -> float:
    """s^-1(y) = tan(pi * y) for y in (-1/2, 1/2)."""
    if not -0.5 < y < 0.5:
        raise InputError("squashing inverse needs an argument in (-1/2, 1/2)")
    return math.tan(math.pi * y)


@dataclass
class ConformalState:
    """Margin, learning rate, target, and the update bookkeeping.

    A single owner updates the state sequentially; loss_history holds
    every recorded window loss in order, and lambda_initial keeps the
    margin the state started from so prefix identities can be checked.
    These are the only checks of the starting margin, eta and epsilon:
    SimConfig builds its margin state to validate them, so each message
    names the config key.
    """

    lam: float
    eta: float
    epsilon: float
    lambda_initial: float = None  # type: ignore[assignment]
    loss_history: list = field(default_factory=list)

    def __post_init__(self):
        if not math.isfinite(float(self.lam)):
            raise ConfigError("lambda_initial (the starting margin lam) must be finite")
        if not (math.isfinite(float(self.eta)) and float(self.eta) > 0.0):
            raise ConfigError("eta must be positive and finite")
        if not -0.5 < float(self.epsilon) < 0.5:
            raise ConfigError("epsilon must lie in (-1/2, 1/2)")
        if self.lambda_initial is None:
            self.lambda_initial = self.lam

    def update(self, loss):
        """Apply one window's verdict; NO_AGENTS leaves everything as is."""
        if loss is NO_AGENTS:
            return self
        if not -0.5 < float(loss) < 0.5:
            raise InputError("loss must lie in (-1/2, 1/2)")
        self.lam = self.lam + self.eta * (self.epsilon - loss)
        self.loss_history.append(loss)
        return self


def window_loss(
    cbf: PotentialFieldCbf,
    alpha_slope: float,
    predicted,
    actual,
    ego,
    lam: float,
    *,
    lengths=None,
):
    """Squashed worst gap over every agent and sample instant of a window.

    Args:
        predicted: the predicted positions of m agents, (m, n, 2),
            aligned sample by sample with the ego window.
        actual: their realized positions, same shape and agent order.
        ego: the ego's realized positions over the same window.
        lam: margin the window was driven with.
        lengths: optional (m,) integer samples each agent is scored
            over, each in [2, n].  Agent j is then scored over its first
            lengths[j] samples alone, with velocities differenced within
            them; its samples past that, in either array, count for
            nothing, even one on the ego.  The result equals the max of
            the losses of one call per distinct length, because the
            squash map is monotone.  None scores every agent over all n.

    Returns:
        The loss in (-1/2, 1/2), or NO_AGENTS when m is 0.

    Raises:
        InputError: the arrays disagree in shape with each other or with
            the ego window, or lengths do not fit them.
        SingularityError: an agent is on the ego at a scored sample.
    """
    if ego.n_samples < 2:
        raise InputError("ego window needs at least 2 samples")
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape or predicted.shape[1:] != (ego.n_samples, 2):
        raise InputError("predicted and actual arrays must be (m, ego samples, 2)")
    if not len(predicted):
        return NO_AGENTS
    tracks = np.stack([predicted, actual])
    valid = None
    if lengths is not None:
        lengths = np.asarray(lengths)
        # a few agents: Python's min and max cost less than numpy's
        fits = lengths.shape == (len(predicted),) and lengths.dtype.kind in "iu"
        counts = lengths.tolist() if fits else [0]
        shortest = min(counts)
        if shortest < 2 or max(counts) > ego.n_samples:
            raise InputError("lengths must be one integer in [2, n] per agent")
        if shortest < ego.n_samples:
            valid = np.arange(ego.n_samples) < lengths[:, None]
    if not math.isfinite(float(lam)):
        raise InputError("margin must be finite")
    # (predicted/actual, agent, sample, xy): one kernel call scores them all,
    # and when some agent's prefix is short its later samples are masked
    h, grad_ego = barrier_terms(cbf, ego.positions - tracks, where=valid)
    vels = velocities(tracks, ego.dt, None if valid is None else lengths)
    q = np.vecdot(-grad_ego, vels)
    a = alpha_slope * h
    # the gap of the module docstring, grouped as differences so a
    # perfect prediction cancels exactly
    gaps = (q[0] - q[1]) + (a[0] - a[1]) + lam
    if valid is not None:
        gaps = np.where(valid, gaps, -np.inf)
    return squash(float(gaps.max()))


def lambda_safe_bound(bounds: BoundSet, alpha_slope: float, epsilon_safe: float) -> float:
    """Margin level below which the window loss cannot exceed epsilon_safe,
    given the regularity and prediction-error bounds; alpha_slope is M_alpha."""
    if not (math.isfinite(alpha_slope) and alpha_slope > 0.0):
        raise InputError("alpha_slope must be positive and finite")
    return (
        squash_inverse(epsilon_safe)
        - bounds.e_d
        - alpha_slope * bounds.m_h * bounds.e_v
    )


def risk_bound(state: ConformalState, lambda_safe: float, k_prime: int):
    """Realized prefix-average loss and its guaranteed ceiling.

    Args:
        lambda_safe: certified margin level for a loss level at or below
            the state's target epsilon.
        k_prime: prefix length, between 1 and the number of recorded
            losses.

    Returns:
        (average, bound) with average <= bound whenever lambda_safe
        certifies a loss level epsilon_safe <= epsilon.

    Raises:
        ConfigError: the state started below lambda_safe - eta, where
            the guarantee does not apply.
    """
    if not isinstance(k_prime, int) or k_prime < 1:
        raise InputError("k_prime must be a positive integer")
    if k_prime > len(state.loss_history):
        raise InputError(
            f"k_prime {k_prime} exceeds {len(state.loss_history)} recorded losses"
        )
    if not math.isfinite(float(lambda_safe)):
        raise InputError("lambda_safe must be finite")
    if state.lambda_initial < lambda_safe - state.eta:
        raise ConfigError(
            "the initial margin sits below lambda_safe - eta; "
            "the risk bound does not cover this configuration"
        )
    average = sum(state.loss_history[:k_prime]) / k_prime
    bound = state.epsilon + (
        state.lambda_initial - lambda_safe + state.eta
    ) / (state.eta * k_prime)
    return average, bound
