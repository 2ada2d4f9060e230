"""Tests for the barrier function, its gradients, and the constraint rows."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import fd_gradient, gradient_norm_bound_scan, gradient_relative_error
from conformal_cbf.barrier import (
    AgentState,
    ClassKappa,
    PotentialFieldCbf,
    barrier_terms,
    bound_set_for,
    build_conformal_constraint,
    build_true_constraint,
    cbf_gradient,
    cbf_value,
    gradient_norm_bound,
)
from conformal_cbf.errors import InputError, SingularityError

CBF = PotentialFieldCbf(k_rep=2.0, rho0=10.0, delta=0.5)


def test_value_out_of_range_is_plateau():
    # U vanishes at and beyond rho0, so h is exactly 1 - delta there.
    for d in (10.0, 10.5, 1e6):
        assert cbf_value(CBF, (0.0, 0.0), (d, 0.0)) == 0.5


def test_value_worked_example():
    # d = 5: U = (2/2)(1/5 - 1/10)^2 = 0.01, h = 1/1.01 - 0.5.
    h = cbf_value(CBF, (0.0, 0.0), (5.0, 0.0))
    assert abs(h - 0.4900990099009901) <= 1e-15


def test_value_approaches_negative_delta_at_contact():
    h = cbf_value(CBF, (0.0, 0.0), (1e-6, 0.0))
    assert -0.5 <= h < -0.5 + 1e-11


def test_value_coincident_positions_raise():
    with pytest.raises(SingularityError):
        cbf_value(CBF, (1.0, 2.0), (1.0, 2.0))


@pytest.mark.parametrize("k_rep", [1e-300, 1e-6, 20.0, 2000.0, 1e6])
def test_offsets_below_min_distance_raise_and_the_rest_stay_finite(k_rep):
    cbf = PotentialFieldCbf(k_rep=k_rep, rho0=400.0, delta=0.5)
    floor = cbf.min_distance
    assert floor < 1e-60  # far below any distance two distinct pixel positions have
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow anywhere
        for d in (floor, math.nextafter(floor, 1.0), 3.0 * floor, 1e-40, 1.0):
            h, grad = barrier_terms(cbf, [[d, 0.0]])
            values = (cbf.potential(d), cbf.radial_derivative(d), h[0], grad[0, 0])
            assert all(math.isfinite(v) for v in values)
            assert grad[0, 0] > 0.0
        for d in (math.nextafter(floor, 0.0), floor / 2.0, 1e-160, 5e-324, 0.0):
            for f in (cbf.potential, cbf.radial_derivative):
                with pytest.raises(SingularityError):
                    f(d)
            with pytest.raises(SingularityError):
                barrier_terms(cbf, [[3.0, 4.0], [d, 0.0]])


def test_value_depends_only_on_distance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        ego = rng.normal(size=2) * 5.0
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        d = rng.uniform(0.5, 12.0)
        h = cbf_value(CBF, ego, ego + d * direction)
        href = cbf_value(CBF, (0.0, 0.0), (d, 0.0))
        assert abs(h - href) <= 1e-12


def test_gradient_zero_outside_range():
    g_ego, g_agent = cbf_gradient(CBF, (0.0, 0.0), (10.0, 0.0))
    assert np.array_equal(g_ego, [0.0, 0.0])
    assert np.array_equal(g_agent, [0.0, 0.0])
    g_ego, _ = cbf_gradient(CBF, (0.0, 0.0), (25.0, 0.0))
    assert np.array_equal(g_ego, [0.0, 0.0])


def test_gradient_antisymmetry_is_exact():
    rng = np.random.default_rng(8)
    for _ in range(30):
        ego = rng.normal(size=2) * 4.0
        agent = ego + rng.normal(size=2)
        g_ego, g_agent = cbf_gradient(CBF, ego, agent)
        assert np.array_equal(g_agent, -g_ego)


def test_gradient_points_away_from_agent():
    # h grows with distance inside the sensing radius, so the ego
    # gradient must align with (ego - agent).
    g_ego, _ = cbf_gradient(CBF, (3.0, 0.0), (0.0, 0.0))
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
            analytic, _ = cbf_gradient(cbf, ego, agent)
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
            assert abs(cbf.radial_derivative(float(d))) <= m_h * (1.0 + 1e-12)


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
    alpha = ClassKappa.linear(0.1)
    assert alpha.value(0.0) == 0.0
    assert alpha.value(2.0) == pytest.approx(0.2, abs=1e-15)
    assert alpha.value(-2.0) == pytest.approx(-0.2, abs=1e-15)
    assert alpha.lipschitz == 0.1


def test_class_kappa_arctan():
    alpha = ClassKappa.arctan(2.0)
    assert alpha.value(0.0) == 0.0
    assert alpha.lipschitz == pytest.approx(2.0 / np.pi, abs=1e-15)
    # bounded by +-slope/2 and strictly increasing
    rs = np.linspace(-50.0, 50.0, 501)
    values = [alpha.value(float(r)) for r in rs]
    assert all(np.diff(values) > 0.0)
    assert all(abs(v) < 1.0 for v in values)


def test_class_kappa_lipschitz_property():
    rng = np.random.default_rng(17)
    for alpha in (ClassKappa.linear(0.3), ClassKappa.arctan(1.7)):
        r = rng.uniform(-20.0, 20.0, size=(200, 2))
        for x, y in r:
            lhs = abs(alpha.value(float(x)) - alpha.value(float(y)))
            assert lhs <= alpha.lipschitz * abs(x - y) * (1.0 + 1e-12) + 1e-15


def test_class_kappa_validation():
    with pytest.raises(InputError):
        ClassKappa(kind="cubic", slope=1.0)
    with pytest.raises(InputError):
        ClassKappa.linear(0.0)
    with pytest.raises(InputError):
        ClassKappa.linear(-2.0)


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
        h = cbf_value(cbf, (0.0, 0.0), (d0, 0.0))
        assert abs(h) <= 1e-12
        assert cbf_value(cbf, (0.0, 0.0), (0.9 * d0, 0.0)) < 0.0
        assert cbf_value(cbf, (0.0, 0.0), (1.1 * d0, 0.0)) > 0.0


ALPHA = ClassKappa.linear(1.0)


def test_true_constraint_out_of_range_is_vacuous():
    agent = AgentState(agent_id=4, position=[12.0, 0.0], velocity=[5.0, 5.0])
    row = build_true_constraint(CBF, ALPHA, (0.0, 0.0), agent)
    assert np.array_equal(row.normal, [0.0, 0.0])
    assert row.offset == ALPHA.value(0.5)
    assert row.agent_id == 4


def test_true_constraint_resting_agent_offset_is_alpha_h():
    # With a resting agent the flow term vanishes; slope-1 linear alpha
    # leaves exactly the barrier value in the offset.
    agent = AgentState(agent_id=1, position=[5.0, 0.0], velocity=[0.0, 0.0])
    row = build_true_constraint(CBF, ALPHA, (0.0, 0.0), agent)
    assert abs(row.offset - 0.4900990099009901) <= 1e-15
    g_ego, _ = cbf_gradient(CBF, (0.0, 0.0), (5.0, 0.0))
    assert np.array_equal(row.normal, g_ego)


def test_true_constraint_flow_term():
    rng = np.random.default_rng(5)
    for _ in range(25):
        ego = rng.normal(size=2)
        agent_pos = ego + rng.uniform(1.0, 8.0) * np.array([1.0, 0.0])
        vel = rng.normal(size=2)
        agent = AgentState(agent_id=0, position=agent_pos, velocity=vel)
        row = build_true_constraint(CBF, ALPHA, ego, agent)
        h = cbf_value(CBF, ego, agent_pos)
        _, g_agent = cbf_gradient(CBF, ego, agent_pos)
        expected = float(g_agent @ vel) + ALPHA.value(h)
        assert abs(row.offset - expected) <= 1e-12


def test_conformal_equals_true_for_perfect_prediction():
    agent = AgentState(agent_id=9, position=[4.0, 3.0], velocity=[-1.0, 0.5])
    true_row = build_true_constraint(CBF, ALPHA, (1.0, 1.0), agent)
    conf_row = build_conformal_constraint(CBF, ALPHA, (1.0, 1.0), agent, lam=0.0)
    assert np.array_equal(conf_row.normal, true_row.normal)
    assert conf_row.offset == true_row.offset


def test_conformal_margin_is_additive():
    agent = AgentState(agent_id=2, position=[4.0, 3.0], velocity=[-1.0, 0.5])
    base = build_conformal_constraint(CBF, ALPHA, (1.0, 1.0), agent, lam=0.0)
    for lam in (-0.7, 0.3, 2.0):
        row = build_conformal_constraint(CBF, ALPHA, (1.0, 1.0), agent, lam=lam)
        assert row.offset == base.offset + lam
        assert np.array_equal(row.normal, base.normal)


def test_constraint_residual_is_affine():
    agent = AgentState(agent_id=2, position=[4.0, 0.0], velocity=[0.0, 0.0])
    row = build_true_constraint(CBF, ALPHA, (0.0, 0.0), agent)
    u = np.array([2.0, -1.0])
    assert abs(row.residual(u) - (float(row.normal @ u) + row.offset)) <= 1e-15
