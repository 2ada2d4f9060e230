"""Potential-field barrier function and the terms of its safety condition.

Safety against one agent is encoded by a barrier built from a repulsive
potential of the distance d between ego and agent:

    U(d) = (k_rep / 2) * (1/d - 1/rho0)^2   for d < rho0, else 0
    h    = 1 / (1 + U) - delta

h rises from -delta at contact to 1 - delta once the agent is out of the
sensing radius rho0, and U is C^1 at rho0 so the gradient vanishes there
smoothly.  The zero level of h marks the collision distance.

With a velocity u as the decision variable, the barrier condition
dh/dt + alpha(h) >= 0 splits into an ego term grad_ego . u, an agent
term grad_agent . xdot_agent, and alpha(h), where the class-kappa
function is the line alpha(h) = alpha_slope * h.  The engine builds the
deployed condition (predicted agent state, plus an additive calibration
margin) as affine rows for the projection QP from the terms computed
here; the agent-side gradient is -grad_ego.

barrier_terms evaluates h and its ego gradient over any stack of
ego-minus-agent offsets in one call; window scoring and the noise
oracle's flow check go through it.  It checks the distances and then
runs the arithmetic, which lives once, in barrier_terms_unchecked.  The
engine's per-frame rows call that inner kernel directly: they have
already computed the distances to drop the agents outside
[min_distance, rho0), so checking them again would only repeat the
work.
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from conformal_cbf.errors import InputError, SingularityError, point, scalar

# Largest potential (and, for tiny k_rep, largest w) the barrier is
# evaluated at; see PotentialFieldCbf.min_distance.
_U_MAX = 1e150


@dataclass(frozen=True)
class PotentialFieldCbf:
    """Barrier h = 1/(1 + U) - delta for the repulsive potential U above.

    Attributes:
        k_rep: repulsion strength, > 0.
        rho0: sensing radius beyond which the potential vanishes, > 0.
        delta: level shift in (0, 1); 1/delta - 1 is the potential at
            which h crosses zero.

    The barrier must be defined over at least the outer half of the
    sensing radius: min_distance may not exceed rho0 / 2.  That caps
    k_rep at about 2e150 * rho0**2 (and rho0 at no less than about
    1e-150); past the cap (1 + U)^2 would overflow almost everywhere
    inside rho0, and every sensed agent would read as standing on the
    ego.

    These checks are the only ones on the three parameters: SimConfig
    builds its barrier to validate them.
    """

    k_rep: float
    rho0: float
    delta: float

    def __post_init__(self):
        scalar("k_rep", self.k_rep, InputError, "positive")
        scalar("rho0", self.rho0, InputError, "positive")
        if not 0.0 < scalar("delta", self.delta, InputError) < 1.0:
            raise InputError("delta must lie in (0, 1)")
        if self.min_distance > 0.5 * self.rho0:
            raise InputError(
                f"k_rep {self.k_rep!r} is too large for rho0 {self.rho0!r}: "
                "the barrier must be defined from rho0 / 2 outward, which "
                "needs k_rep <= about 2e150 * rho0**2"
            )

    @cached_property
    def min_distance(self) -> float:
        """Shortest distance at which the barrier is evaluated.

        Closer offsets, coincident positions among them, raise
        SingularityError.  At this distance U is 1e150 (or
        w = 1/d - 1/rho0 is 1e150, for tiny k_rep), so every square the
        value and the gradient take stays finite; much closer, (1 + U)^2
        would overflow.
        """
        w = min(math.sqrt(2.0 * _U_MAX / self.k_rep), _U_MAX)
        return 1.0 / (w + 1.0 / self.rho0)

    def zero_level_distance(self) -> float:
        """Distance at which h crosses zero; the collision threshold."""
        w = math.sqrt(2.0 * (1.0 / self.delta - 1.0) / self.k_rep)
        return 1.0 / (1.0 / self.rho0 + w)


@dataclass(frozen=True)
class AffineConstraint:
    """One halfplane row normal . u + offset >= 0 of the safety QP."""

    normal: np.ndarray
    offset: float
    agent_id: int

    def __post_init__(self):
        object.__setattr__(self, "normal", point("normal", self.normal, InputError))
        scalar("offset", self.offset, InputError)

    def residual(self, u: np.ndarray) -> float:
        return float(self.normal @ np.asarray(u, dtype=np.float64) + self.offset)


@dataclass(frozen=True)
class BoundSet:
    """Regularity and prediction-error bounds used by the certificates.

    m_h bounds the agent-side gradient norm of the barrier, e_v the
    prediction position error, e_d the error of the agent-side barrier
    flow term.  All are global (worst-case) bounds.
    """

    m_h: float
    e_v: float
    e_d: float

    def __post_init__(self):
        for name in ("m_h", "e_v", "e_d"):
            scalar(name, getattr(self, name), InputError, "nonnegative")


def barrier_terms(
    cbf: PotentialFieldCbf, diff, where=None
) -> tuple[np.ndarray, np.ndarray]:
    """Barrier value h and its ego gradient over ego-minus-agent offsets.

    It evaluates the same floating-point operations, in the same order,
    as the scalar potential and radial_derivative in tests/_oracles.py at
    the distance np.linalg.norm gives, so its results are bitwise those
    of evaluating them offset by offset (tests/test_kernels.py checks
    this).

    Args:
        diff: ego position minus agent position, shape (..., 2).
        where: optional mask broadcastable to diff.shape[:-1] selecting
            the offsets to evaluate, such as the samples of a padded
            window stack.  An offset outside it is read as lying at
            distance rho0, whatever finite value it holds: its h is
            1 - delta, its gradient zero, and it is not checked, so a
            padded sample on the ego raises nothing and warns nothing.

    Returns:
        (h, grad_ego) with shapes (...) and (..., 2).  The agent-side
        gradient is -grad_ego; both are exactly zero at distances >= rho0.

    Raises:
        SingularityError: some offset (in where) is shorter than
            cbf.min_distance (zero, for coincident positions).
    """
    diff = np.asarray(diff, dtype=np.float64)
    d = np.sqrt(np.vecdot(diff, diff))
    if where is not None:
        d = np.where(where, d, cbf.rho0)
    if d.min(initial=math.inf) < cbf.min_distance:
        raise SingularityError("barrier undefined for (nearly) coincident positions")
    return barrier_terms_unchecked(cbf, diff, d)


def barrier_terms_unchecked(
    cbf: PotentialFieldCbf, diff: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """barrier_terms for a caller that already has the distances.

    d must be np.sqrt(np.vecdot(diff, diff)), every entry at least
    cbf.min_distance, or rho0 where a finite offset is to read as out of
    range; nothing is checked.
    """
    # Beyond rho0 the distance is clipped to rho0, where w is exactly 0 and
    # so are the potential and the slope.
    dc = np.minimum(d, cbf.rho0)
    w = 1.0 / dc - 1.0 / cbf.rho0
    potential = 0.5 * cbf.k_rep * np.float_power(w, 2.0)
    u = 0.5 * cbf.k_rep * w * w
    slope = cbf.k_rep * w / (dc * dc * np.float_power(1.0 + u, 2.0))
    h = 1.0 / (1.0 + potential) - cbf.delta
    return h, (slope / d)[..., None] * diff


def gradient_norm_bound(cbf: PotentialFieldCbf) -> float:
    """Global bound on the agent-side gradient norm of h, in closed form.

    With w = 1/d - 1/rho0 and c = 1/rho0 the gradient norm is

        phi(w) = k_rep * w * (w + c)^2 / (1 + (k_rep/2) w^2)^2,

    which vanishes at both ends of (0, inf).  Setting d/dw log phi = 0
    gives (k_rep/2) w^3 + (3 c k_rep/2) w^2 - 3 w - c = 0, and with
    w = x * sqrt(2/k_rep) this is x^3 + 3 b x^2 - 3 x - b = 0 for
    b = c * sqrt(k_rep/2), i.e. tan(3 theta) = -b for x = tan(theta).
    Its one positive root is x = tan((pi - atan(b)) / 3).  The value is
    rounded up by 16 machine epsilons, more than the rounding error of
    evaluating phi, so it does not read below a numerical maximization
    of phi (tests/test_barrier.py checks this).  The bound does not
    depend on delta.
    """
    k, c = cbf.k_rep, 1.0 / cbf.rho0
    x = math.tan((math.pi - math.atan(c * math.sqrt(0.5 * k))) / 3.0)
    w = x * math.sqrt(2.0 / k)
    phi = k * w * (w + c) ** 2 / (1.0 + 0.5 * k * w * w) ** 2
    return phi * (1.0 + 16.0 * sys.float_info.epsilon)


def bound_set_for(cbf: PotentialFieldCbf, e_v: float, e_d: float) -> BoundSet:
    """BoundSet with m_h computed from the barrier parameters."""
    return BoundSet(m_h=gradient_norm_bound(cbf), e_v=e_v, e_d=e_d)
