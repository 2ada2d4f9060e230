"""Ego dynamics: the planar double integrator and velocity tracking.

The simulated robot is a planar double integrator

    d/dt (p, v) = (v, a)

driven at acceleration level.  The safety filter decides a velocity, and
a proportional tracking law converts it into an acceleration held over
the control period.  With the acceleration held, the discretization is
exact; step evaluates it with the operations one classical RK4 step
performs for this model, so its results are bitwise those of that step.

Each function checks the shapes of its arguments but the finiteness of
its result only: a non-finite input, or an overflow, always makes the
result non-finite, so one check of the result rejects both as
InputError.  RobotState checks its own entries, and that check is step's
result check.
"""

import math
from dataclasses import dataclass

import numpy as np

from conformal_cbf.errors import InputError


@dataclass(frozen=True)
class RobotState:
    """Planar position and velocity of the ego robot."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64)
        vel = np.asarray(self.velocity, dtype=np.float64)
        if pos.shape != (2,) or vel.shape != (2,):
            raise InputError("RobotState needs planar position and velocity")
        if not all(map(math.isfinite, pos.tolist() + vel.tolist())):
            raise InputError("RobotState entries must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)


@dataclass(frozen=True)
class TrackingActuator:
    """Proportional velocity-tracking law u = -gain * (v - v_cmd)."""

    gain: float

    def __post_init__(self):
        if not (np.isfinite(self.gain) and self.gain > 0.0):
            raise InputError("tracking gain must be positive and finite")


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
    if not (math.isfinite(dt) and dt > 0.0):
        raise InputError("dt must be positive and finite")
    a = np.asarray(accel, dtype=np.float64)
    if a.shape != (2,):
        raise InputError("acceleration must be a planar vector")
    v = state.velocity
    k2 = v + 0.5 * dt * a
    k4 = v + dt * a
    h = dt / 6.0
    return RobotState(
        position=state.position + h * (v + 2.0 * k2 + 2.0 * k2 + k4),
        velocity=v + h * (a + 2.0 * a + 2.0 * a + a),
    )


def track_velocity(
    actuator: TrackingActuator,
    velocity: np.ndarray,
    commanded: np.ndarray,
) -> np.ndarray:
    """Acceleration command steering the current velocity to the commanded one.

    Raises:
        InputError: the velocities are not planar, or the acceleration
            is not finite (a non-finite velocity, or an overflow).
    """
    v = np.asarray(velocity, dtype=np.float64)
    c = np.asarray(commanded, dtype=np.float64)
    if v.shape != (2,) or c.shape != (2,):
        raise InputError("track_velocity expects planar velocities")
    accel = -actuator.gain * (v - c)
    if not all(map(math.isfinite, accel.tolist())):
        raise InputError("acceleration must be a finite planar vector")
    return accel
