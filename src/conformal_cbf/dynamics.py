"""Ego dynamics: the planar double integrator and velocity tracking.

The simulated robot is a planar double integrator

    d/dt (p, v) = (v, a)

driven at acceleration level.  The safety filter decides a velocity, and
the proportional tracking law a = -k_acc * (v - v_cmd) converts it into
an acceleration held over the control period.  With the acceleration
held, the discretization is exact; step evaluates it with the operations
one classical RK4 step performs for this model, so its results are
bitwise those of that step.

The ego is one 2-vector, so step and track_velocity read their vectors
into Python floats with tolist() and compute on those: a numpy call on a
2-vector costs far more than the two float operations it performs.  The
float expressions are the numpy ones written out per coordinate, with
the same operations in the same order; IEEE arithmetic on a Python float
and on a float64 array element round identically, so the results are
bitwise those of the array formulas (tests/test_dynamics.py compares
them with ==).  Only elementwise arithmetic is moved this way.
Distances stay on numpy: a reduction such as np.vecdot need not equal
x*x + y*y bit for bit, so the engine's goal distance and tracking error
keep their numpy forms, and its d_min is one batched np.vecdot over the
whole run.  None of the float expressions
divides by anything that can be zero (dt is checked positive first).

Each function checks the shapes of its arguments but the finiteness of
its result only: a non-finite input, or an overflow, always makes the
result non-finite, so one check of the result rejects both as
InputError.  RobotState(...) checks its own entries.  step checks the
four floats of its result itself, with RobotState's message, and builds
the new state from them without a second check.
"""

import math
from dataclasses import dataclass

import numpy as np

from conformal_cbf.errors import InputError

_NOT_FINITE = "RobotState entries must be finite"


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
            raise InputError(_NOT_FINITE)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)


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
        raise InputError(_NOT_FINITE)
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
    v = np.asarray(velocity, dtype=np.float64)
    c = np.asarray(commanded, dtype=np.float64)
    if v.shape != (2,) or c.shape != (2,):
        raise InputError("track_velocity expects planar velocities")
    vx, vy = v.tolist()
    cx, cy = c.tolist()
    gain = -k_acc
    ax, ay = gain * (vx - cx), gain * (vy - cy)
    if not (math.isfinite(ax) and math.isfinite(ay)):
        raise InputError("acceleration must be a finite planar vector")
    return np.array([ax, ay])
