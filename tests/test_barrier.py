"""Tests for the barrier function, its gradients, and the constraint rows.

Values and gradients are read from barrier_terms, the one barrier
kernel; rows from engine._rows, the one row builder.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import (
    fd_gradient,
    gradient_norm_bound_scan,
    gradient_relative_error,
    potential,
    radial_derivative,
)
from conformal_cbf.barrier import (
    AffineConstraint,
    PotentialFieldCbf,
    barrier_terms,
    bound_set_for,
    gradient_norm_bound,
)
from conformal_cbf.engine import SimConfig, _rows
from conformal_cbf.errors import ConfigError, InputError, SingularityError
from conformal_cbf.predictor import Predictions

CBF = PotentialFieldCbf(k_rep=2.0, rho0=10.0, delta=0.5)


def terms(cbf, ego, agent):
    """h (a float) and grad_ego at one ego/agent pair."""
    h, grad_ego = barrier_terms(cbf, np.subtract(ego, agent, dtype=np.float64))
    return float(h), grad_ego


def h_at(cbf, ego, agent):
    return terms(cbf, ego, agent)[0]


def test_value_out_of_range_is_plateau():
    # U vanishes at and beyond rho0, so h is exactly 1 - delta there.
    for d in (10.0, 10.5, 1e6):
        assert h_at(CBF, (0.0, 0.0), (d, 0.0)) == 0.5


def test_value_worked_example():
    # d = 5: U = (2/2)(1/5 - 1/10)^2 = 0.01, h = 1/1.01 - 0.5.
    h = h_at(CBF, (0.0, 0.0), (5.0, 0.0))
    assert abs(h - 0.4900990099009901) <= 1e-15


def test_value_approaches_negative_delta_at_contact():
    h = h_at(CBF, (0.0, 0.0), (1e-6, 0.0))
    assert -0.5 <= h < -0.5 + 1e-11


def test_value_coincident_positions_raise():
    with pytest.raises(SingularityError):
        h_at(CBF, (1.0, 2.0), (1.0, 2.0))


@pytest.mark.parametrize("k_rep", [1e-300, 1e-6, 20.0, 2000.0, 1e6])
def test_offsets_below_min_distance_raise_and_the_rest_stay_finite(k_rep):
    cbf = PotentialFieldCbf(k_rep=k_rep, rho0=400.0, delta=0.5)
    floor = cbf.min_distance
    assert floor < 1e-60  # far below any distance two distinct pixel positions have
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow anywhere
        for d in (floor, math.nextafter(floor, 1.0), 3.0 * floor, 1e-40, 1.0):
            h, grad = barrier_terms(cbf, [[d, 0.0]])
            values = (potential(cbf, d), radial_derivative(cbf, d), h[0], grad[0, 0])
            assert all(math.isfinite(v) for v in values)
            assert grad[0, 0] > 0.0
        for d in (math.nextafter(floor, 0.0), floor / 2.0, 1e-160, 5e-324, 0.0):
            for f in (potential, radial_derivative):
                with pytest.raises(SingularityError):
                    f(cbf, d)
            with pytest.raises(SingularityError):
                barrier_terms(cbf, [[3.0, 4.0], [d, 0.0]])


def test_value_depends_only_on_distance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        ego = rng.normal(size=2) * 5.0
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        d = rng.uniform(0.5, 12.0)
        h = h_at(CBF, ego, ego + d * direction)
        href = h_at(CBF, (0.0, 0.0), (d, 0.0))
        assert abs(h - href) <= 1e-12


def test_gradient_zero_outside_range():
    for d in (10.0, 25.0):
        _, g_ego = terms(CBF, (0.0, 0.0), (d, 0.0))
        assert np.array_equal(g_ego, [0.0, 0.0])


def test_gradient_antisymmetry_is_exact():
    # swapping ego and agent negates the gradient bit for bit, so the
    # agent-side gradient is exactly -grad_ego
    rng = np.random.default_rng(8)
    for _ in range(30):
        ego = rng.normal(size=2) * 4.0
        agent = ego + rng.normal(size=2)
        _, g_ego = terms(CBF, ego, agent)
        _, g_swapped = terms(CBF, agent, ego)
        assert np.array_equal(g_swapped, -g_ego)


def test_gradient_points_away_from_agent():
    # h grows with distance inside the sensing radius, so the ego
    # gradient must align with (ego - agent).
    _, g_ego = terms(CBF, (3.0, 0.0), (0.0, 0.0))
    assert g_ego[0] > 0.0
    assert abs(g_ego[1]) <= 1e-15


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    params = [(2.0, 10.0, 0.5), (20.0, 400.0, 0.5), (0.7, 3.0, 0.2)]
    for k_rep, rho0, delta in params:
        cbf = PotentialFieldCbf(k_rep=k_rep, rho0=rho0, delta=delta)
        for _ in range(100):
            ego = rng.normal(size=2) * 0.3 * rho0
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            d = rng.uniform(0.01 * rho0, 2.0 * rho0)
            agent = ego + d * direction
            _, analytic = terms(cbf, ego, agent)
            numeric = fd_gradient(k_rep, rho0, delta, ego, agent)
            assert gradient_relative_error(analytic, numeric) <= 1e-5


def test_gradient_norm_bound_dominates_samples():
    for k_rep, rho0 in [(2.0, 10.0), (20.0, 400.0), (2000.0, 400.0)]:
        cbf = PotentialFieldCbf(k_rep=k_rep, rho0=rho0, delta=0.5)
        m_h = gradient_norm_bound(cbf)
        assert m_h > 0.0
        ds = np.concatenate(
            [
                np.linspace(1e-4 * rho0, rho0, 20001),
                np.logspace(np.log10(1e-6 * rho0), np.log10(rho0), 5001),
            ]
        )
        for d in ds:
            assert abs(radial_derivative(cbf, float(d))) <= m_h * (1.0 + 1e-12)


def test_gradient_norm_bound_closed_form_matches_scan():
    # the closed form may round up, never down, and only in the last digits
    for k_rep in np.logspace(-6.0, 4.0, 8):
        for rho0 in np.logspace(-6.0, 4.0, 6):
            cbf = PotentialFieldCbf(k_rep=float(k_rep), rho0=float(rho0), delta=0.5)
            scan = gradient_norm_bound_scan(float(k_rep), float(rho0))
            m_h = gradient_norm_bound(cbf)
            assert m_h >= scan
            assert (m_h - scan) / scan <= 1e-14


def test_cli_import_leaves_scipy_out():
    import conformal_cbf

    src = str(Path(conformal_cbf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, conformal_cbf.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_bound_set_for_uses_gradient_bound():
    bounds = bound_set_for(CBF, e_v=0.1, e_d=0.3)
    assert bounds.m_h == gradient_norm_bound(CBF)
    assert bounds.e_v == 0.1
    assert bounds.e_d == 0.3


def test_class_kappa_linear():
    # a resting agent's row offset is alpha(h) = alpha_slope * h, of h's
    # sign on either side of the zero level
    d0 = CBF.zero_level_distance()
    for slope in (0.1, 2.0):
        offsets = [
            row((0.0, 0.0), [d, 0.0], [0.0, 0.0], alpha_slope=slope)[1]
            for d in (0.5 * d0, 2.0 * d0)
        ]
        assert offsets == [slope * h_at(CBF, (0.0, 0.0), (d, 0.0)) for d in (0.5 * d0, 2.0 * d0)]
        assert offsets[0] < 0.0 < offsets[1]


def test_class_kappa_lipschitz_property():
    # lambda_safe_bound charges the alpha part of the gap M_alpha * m_h * e_v
    # with M_alpha = alpha_slope: alpha_slope * |h(p) - h(p')| stays within it
    rng = np.random.default_rng(17)
    slope, m_h = 0.3, gradient_norm_bound(CBF)
    for _ in range(200):
        agent, moved = rng.uniform(-12.0, 12.0, size=(2, 2))
        lhs = abs(slope * h_at(CBF, (0.0, 0.0), agent) - slope * h_at(CBF, (0.0, 0.0), moved))
        bound = slope * m_h * float(np.linalg.norm(agent - moved))
        assert lhs <= bound * (1.0 + 1e-12) + 1e-15


def test_class_kappa_validation():
    for slope in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="^alpha_slope must be positive and finite"):
            SimConfig(alpha_slope=slope)


def test_cbf_param_validation():
    with pytest.raises(InputError):
        PotentialFieldCbf(k_rep=0.0, rho0=10.0, delta=0.5)
    with pytest.raises(InputError):
        PotentialFieldCbf(k_rep=1.0, rho0=-1.0, delta=0.5)
    with pytest.raises(InputError):
        PotentialFieldCbf(k_rep=1.0, rho0=10.0, delta=1.0)
    with pytest.raises(InputError):
        PotentialFieldCbf(k_rep=1.0, rho0=10.0, delta=0.0)


@pytest.mark.parametrize("rho0", [0.01, 25.0, 400.0, 1e6])
def test_cbf_caps_k_rep_where_the_barrier_stops_being_defined(rho0):
    # the cap keeps min_distance at most rho0 / 2; it is about 2e150 * rho0**2
    cap = 2e150 * rho0**2
    below = PotentialFieldCbf(k_rep=0.9 * cap, rho0=rho0, delta=0.5)
    assert below.min_distance <= 0.5 * rho0
    with pytest.raises(InputError, match="k_rep"):
        PotentialFieldCbf(k_rep=1.1 * cap, rho0=rho0, delta=0.5)


def test_zero_level_distance_is_barrier_root():
    for cbf in (CBF, PotentialFieldCbf(k_rep=2000.0, rho0=400.0, delta=0.5)):
        d0 = cbf.zero_level_distance()
        assert 0.0 < d0 < cbf.rho0
        h = h_at(cbf, (0.0, 0.0), (d0, 0.0))
        assert abs(h) <= 1e-12
        assert h_at(cbf, (0.0, 0.0), (0.9 * d0, 0.0)) < 0.0
        assert h_at(cbf, (0.0, 0.0), (1.1 * d0, 0.0)) > 0.0


def row(ego, position, velocity, lam=0.0, cbf=CBF, alpha_slope=1.0):
    """The engine's deployed row against one agent: (normal, offset), or
    None when the agent gives no row."""
    predicted = Predictions(
        ids=np.array([4]),
        positions=np.array([[position]], dtype=np.float64),
        velocities=np.array([[velocity]], dtype=np.float64),
        lengths=np.array([1]),
    )
    normals, offsets, ids = _rows(
        cbf, alpha_slope, predicted, 0, np.asarray(ego, dtype=np.float64), cbf.rho0, lam
    )
    return (normals[0], float(offsets[0])) if len(ids) else None


def test_true_constraint_out_of_range_is_vacuous():
    # at or beyond rho0 the row would read 0 . u + alpha(1 - delta) >= 0:
    # the engine leaves it out
    for d in (10.0, 12.0):
        assert row((0.0, 0.0), [d, 0.0], [5.0, 5.0]) is None
    assert row((0.0, 0.0), [9.0, 0.0], [5.0, 5.0]) is not None


def test_true_constraint_resting_agent_offset_is_alpha_h():
    # With a resting agent the flow term vanishes; slope-1 linear alpha
    # leaves exactly the barrier value in the offset.
    normal, offset = row((0.0, 0.0), [5.0, 0.0], [0.0, 0.0])
    assert abs(offset - 0.4900990099009901) <= 1e-15
    assert np.array_equal(normal, terms(CBF, (0.0, 0.0), (5.0, 0.0))[1])


def test_true_constraint_flow_term():
    rng = np.random.default_rng(5)
    for _ in range(25):
        ego = rng.normal(size=2)
        agent_pos = ego + rng.uniform(1.0, 8.0) * np.array([1.0, 0.0])
        vel = rng.normal(size=2)
        _, offset = row(ego, agent_pos, vel)
        h, g_ego = terms(CBF, ego, agent_pos)
        expected = float(-g_ego @ vel) + h
        assert abs(offset - expected) <= 1e-12


def test_conformal_equals_true_for_perfect_prediction():
    # at lam = 0 the deployed row is the barrier condition of the state
    # it was built from
    normal, offset = row((1.0, 1.0), [4.0, 3.0], [-1.0, 0.5])
    h, g_ego = terms(CBF, (1.0, 1.0), (4.0, 3.0))
    assert np.array_equal(normal, g_ego)
    assert offset == float(-g_ego @ [-1.0, 0.5]) + h


def test_conformal_margin_is_additive():
    base = row((1.0, 1.0), [4.0, 3.0], [-1.0, 0.5])
    for lam in (-0.7, 0.3, 2.0):
        normal, offset = row((1.0, 1.0), [4.0, 3.0], [-1.0, 0.5], lam)
        assert offset == base[1] + lam
        assert np.array_equal(normal, base[0])


def test_constraint_residual_is_affine():
    normal, offset = row((0.0, 0.0), [4.0, 0.0], [0.0, 0.0])
    constraint = AffineConstraint(normal=normal, offset=offset, agent_id=2)
    u = np.array([2.0, -1.0])
    assert abs(constraint.residual(u) - (float(normal @ u) + offset)) <= 1e-15
