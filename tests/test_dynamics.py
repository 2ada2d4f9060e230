"""Tests for the ego dynamics and velocity tracking."""

import math
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    reference_control_formula,
    rk4_double_integrator,
    step_formula,
    track_velocity_formula,
)
from conformal_cbf.engine import (
    RobotState,
    RobotTask,
    SimConfig,
    reference_control,
    step,
    track_velocity,
)
from conformal_cbf.errors import InputError

SETTINGS = settings(max_examples=400, deadline=None)
# every finite double, so +-0.0, subnormals and values near the overflow
# edge all come up, plus a few hand-picked ones
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e308]
)
vec = st.tuples(finite, finite)
positive = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)


def substepped(state, control, dt, n):
    """Reference integration: the same step split into n pieces."""
    out = state
    for _ in range(n):
        out = step(out, control, dt / n)
    return out


def test_coasting_unit_velocity():
    s0 = RobotState(position=[0.0, 0.0], velocity=[1.0, 0.0])
    s1 = step(s0, np.zeros(2), 1.0)
    assert np.array_equal(s1.position, [1.0, 0.0])
    assert np.array_equal(s1.velocity, [1.0, 0.0])


def test_constant_acceleration_from_rest():
    s0 = RobotState(position=[0.0, 0.0], velocity=[0.0, 0.0])
    s1 = step(s0, np.array([2.0, 0.0]), 1.0)
    assert np.allclose(s1.velocity, [2.0, 0.0], atol=1e-15)
    assert np.allclose(s1.position, [1.0, 0.0], atol=1e-15)


def test_step_matches_substepped_reference():
    """One step agrees with a 100x finer integration of the same
    interval; the double integrator makes the discretization exact."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        s0 = RobotState(position=rng.normal(size=2), velocity=rng.normal(size=2))
        u = rng.normal(size=2) * 3.0
        coarse = step(s0, u, 1.0 / 30.0)
        fine = substepped(s0, u, 1.0 / 30.0, 100)
        assert np.linalg.norm(coarse.position - fine.position) <= 1e-9
        assert np.linalg.norm(coarse.velocity - fine.velocity) <= 1e-9


def test_step_is_bitwise_the_rk4_step():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=3)
        s0 = RobotState(
            position=rng.normal(size=2) * scale[0], velocity=rng.normal(size=2) * scale[1]
        )
        u = rng.normal(size=2) * scale[2]
        dt = float(10.0 ** rng.uniform(-3.0, 0.0))
        position, velocity = rk4_double_integrator(s0.position, s0.velocity, u, dt)
        s1 = step(s0, u, dt)
        assert np.array_equal(s1.position, position)
        assert np.array_equal(s1.velocity, velocity)


def test_two_steps_compose_to_double_step():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s0 = RobotState(position=rng.normal(size=2), velocity=rng.normal(size=2))
        u = rng.normal(size=2)
        dt = 1.0 / 30.0
        twice = step(step(s0, u, dt), u, dt)
        once = step(s0, u, 2.0 * dt)
        assert np.linalg.norm(twice.position - once.position) <= 1e-12
        assert np.linalg.norm(twice.velocity - once.velocity) <= 1e-12


def test_step_input_validation():
    s0 = RobotState(position=[0.0, 0.0], velocity=[0.0, 0.0])
    with pytest.raises(InputError):
        step(s0, np.zeros(2), 0.0)
    with pytest.raises(InputError):
        step(s0, np.zeros(2), -0.1)
    with pytest.raises(InputError):
        step(s0, np.zeros(3), 0.1)
    with pytest.raises(InputError):
        step(s0, np.array([np.nan, 0.0]), 0.1)


def test_robot_state_validation():
    with pytest.raises(InputError):
        RobotState(position=[0.0, 0.0, 0.0], velocity=[0.0, 0.0])
    with pytest.raises(InputError):
        RobotState(position=[np.inf, 0.0], velocity=[0.0, 0.0])


# each function checks only that its result is finite; these are the
# inputs the per-argument checks used to reject


@pytest.mark.parametrize(
    "entries",
    [
        ([np.nan, 0.0], [0.0, 0.0]),
        ([0.0, -np.inf], [0.0, 0.0]),
        ([0.0, 0.0], [np.inf, 0.0]),
        ([0.0, 0.0], [0.0, np.nan]),
    ],
)
def test_robot_state_rejects_each_nonfinite_entry(entries):
    with pytest.raises(InputError, match="finite"):
        RobotState(position=entries[0], velocity=entries[1])


@pytest.mark.parametrize(
    "accel", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0], [1e308, 0.0], [0.0, -1e308]]
)
def test_step_rejects_nonfinite_and_overflowing_accelerations(accel):
    # 6 * 1e308 overflows the velocity update even though 1e308 is finite
    s0 = RobotState(position=[1.0, 2.0], velocity=[0.5, -0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InputError, match="finite"):
            step(s0, np.array(accel), 1.0)


def test_step_rejects_a_position_overflow():
    s0 = RobotState(position=[1.7e308, 0.0], velocity=[1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InputError, match="finite"):
            step(s0, np.zeros(2), 1.0)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_step_rejects_a_nonfinite_dt(dt):
    s0 = RobotState(position=[0.0, 0.0], velocity=[0.0, 0.0])
    with pytest.raises(InputError, match="dt"):
        step(s0, np.zeros(2), dt)


@pytest.mark.parametrize(
    "velocity, commanded",
    [
        ([np.nan, 0.0], [0.0, 0.0]),
        ([0.0, np.inf], [0.0, 0.0]),
        ([0.0, 0.0], [-np.inf, 0.0]),
        ([0.0, 0.0], [0.0, np.nan]),
        ([np.inf, 0.0], [np.inf, 0.0]),  # inf - inf is nan
    ],
)
def test_track_velocity_rejects_nonfinite_velocities(velocity, commanded):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InputError, match="acceleration must be a finite planar vector"):
            track_velocity(2.0, np.array(velocity), np.array(commanded))


def test_track_velocity_rejects_an_overflowing_acceleration():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InputError, match="acceleration must be a finite planar vector"):
            track_velocity(1e308, np.array([3.0, 0.0]), np.zeros(2))


def test_track_velocity_formula():
    u = track_velocity(2.0, np.array([3.0, -1.0]), np.array([1.0, 1.0]))
    assert np.allclose(u, [-4.0, 4.0], atol=1e-15)


def test_track_velocity_zero_iff_matched():
    v = np.array([0.4, -0.7])
    assert np.array_equal(track_velocity(5.0, v, v.copy()), [0.0, 0.0])
    u = track_velocity(5.0, v, v + 1e-9)
    assert np.linalg.norm(u) > 0.0


def test_actuator_gain_validation():
    for gain in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InputError, match="^k_acc must be positive and finite"):
            SimConfig(k_acc=gain)


def _formula(fn, *args):
    with np.errstate(all="ignore"):
        return fn(*args)


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@SETTINGS
@given(position=vec, velocity=vec, accel=vec, dt=positive)
def test_float_step_is_bitwise_the_array_formula(position, velocity, accel, dt):
    state = RobotState(position=position, velocity=velocity)
    want_p, want_v = _formula(step_formula, position, velocity, accel, dt)
    if np.isfinite(want_p).all() and np.isfinite(want_v).all():
        got = step(state, np.array(accel), dt)
        assert _bits(got.position) == _bits(want_p)
        assert _bits(got.velocity) == _bits(want_v)
    else:
        with pytest.raises(InputError, match="RobotState entries must be finite"):
            step(state, np.array(accel), dt)


@SETTINGS
@given(velocity=vec, commanded=vec, gain=positive)
def test_float_track_velocity_is_bitwise_the_array_formula(velocity, commanded, gain):
    want = _formula(track_velocity_formula, gain, velocity, commanded)
    if np.isfinite(want).all():
        got = track_velocity(gain, np.array(velocity), np.array(commanded))
        assert _bits(got) == _bits(want)
    else:
        with pytest.raises(InputError, match="acceleration must be a finite planar vector"):
            track_velocity(gain, np.array(velocity), np.array(commanded))


@SETTINGS
@given(goal=vec, position=vec, gain=positive)
def test_float_reference_control_is_bitwise_the_array_formula(goal, position, gain):
    task = RobotTask(
        start=RobotState(position=[0.0, 0.0], velocity=[0.0, 0.0]),
        goal=goal, attract_gain=gain, goal_radius=1.0,
    )
    state = RobotState(position=position, velocity=[0.0, 0.0])
    # an overflow here is left to the frame's finiteness check (see engine)
    got = reference_control(task, state)
    assert got.shape == (2,) and got.dtype == np.float64
    assert _bits(got) == _bits(_formula(reference_control_formula, gain, goal, position))


def test_signed_zeros_and_subnormals_keep_their_bits():
    tiny = 5e-324
    state = RobotState(position=[-0.0, tiny], velocity=[-0.0, -tiny])
    got = step(state, np.array([-0.0, 0.0]), 0.5)
    want_p, want_v = step_formula(state.position, state.velocity, [-0.0, 0.0], 0.5)
    assert _bits(got.position) == _bits(want_p) and _bits(got.velocity) == _bits(want_v)
    assert math.copysign(1.0, got.position[0]) == -1.0
    accel = track_velocity(1.0, np.array([tiny, -0.0]), np.array([0.0, 0.0]))
    assert _bits(accel) == _bits(track_velocity_formula(1.0, [tiny, -0.0], [0.0, 0.0]))
