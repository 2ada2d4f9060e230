"""Tests for the slack-adaptation loop, window losses and risk bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from _oracles import Window, differentiate, gap_reference, scalar_row, scalar_terms
from conformal_cbf.barrier import BoundSet, PotentialFieldCbf
from conformal_cbf.conformal import (
    NO_AGENTS,
    ConformalState,
    EgoWindow,
    lambda_safe_bound,
    risk_bound,
    squash,
    squash_inverse,
    window_loss,
)
from conformal_cbf.errors import InputError
from conformal_cbf.qp import QpProblem, solve

CBF = PotentialFieldCbf(k_rep=2.0, rho0=10.0, delta=0.5)
ALPHA = 1.0  # alpha_slope


class TestSquashing:
    def test_zero_maps_to_zero(self):
        assert squash(0.0) == 0.0

    def test_range_is_open_half_interval(self):
        for r in (-1e9, -3.0, 0.7, 1e12):
            assert -0.5 < squash(r) < 0.5

    def test_known_value(self):
        # arctan(1)/pi = 1/4
        assert abs(squash(1.0) - 0.25) <= 1e-15

    def test_inverse_roundtrip(self):
        for r in np.linspace(-20.0, 20.0, 41):
            assert abs(squash_inverse(squash(r)) - r) <= 1e-9 * max(1.0, abs(r))

    def test_monotone(self):
        ys = [squash(x) for x in np.linspace(-50, 50, 201)]
        assert all(a < b for a, b in zip(ys, ys[1:]))

    def test_inverse_domain_checked(self):
        for bad in (-0.5, 0.5, 0.7, math.nan):
            with pytest.raises(InputError):
                squash_inverse(bad)

    def test_value_rejects_nan(self):
        with pytest.raises(InputError):
            squash(math.nan)


class TestGap:
    """The per-sample gap as window_loss scores it: the loss of a window of
    two samples 0.1 s apart, the second out of range (where h is 1 - delta
    and the gradient zero, so its gap is lam), is the squashed worst
    gap_reference."""

    EGO = EgoWindow(np.array([[0.0, 0.0], [0.0, 0.0]]), 0.1)

    def worst_gap(self, actual, predicted, lam):
        tracks = [Window(1, 0, 0.1, np.array(t, dtype=np.float64)) for t in (actual, predicted)]
        worst = max(
            gap_reference(
                CBF, ALPHA, self.EGO.positions[f],
                *[x for t in tracks for x in (t.position_at(f), differentiate(t, f))], lam,
            )
            for f in range(2)
        )
        assert window_loss(CBF, ALPHA, [predicted], [actual], self.EGO, lam) == squash(worst)
        return worst

    def test_perfect_prediction_is_zero(self):
        track = [[3.0, 0.0], [3.05, 0.0]]
        assert self.worst_gap(track, track, lam=0.0) == 0.0

    def test_lambda_shifts_gap_exactly(self):
        track = [[3.0, 0.0], [3.05, 0.0]]
        assert self.worst_gap(track, track, lam=0.7) == 0.7

    def test_velocity_error_only(self):
        # Same position at the first sample, different one-sided
        # velocity: the gap there is the flow-term difference
        # grad_agent . (v_hat - v), the position terms cancel.
        actual = [[4.0, 0.0], [14.0, 0.0]]  # v = (100, 0)
        predicted = [[4.0, 0.0], [14.05, 0.0]]  # v = (100.5, 0)
        _, grad_ego = scalar_terms(CBF, [0.0, 0.0], [4.0, 0.0])
        v_hat, v = (differentiate(Window(1, 0, 0.1, np.array(t)), 0) for t in (predicted, actual))
        expected = float(-grad_ego @ (v_hat - v))
        assert expected > 0.0
        assert abs(self.worst_gap(actual, predicted, lam=0.0) - expected) <= 1e-12


class TestWindowLoss:
    def make_windows(self, shift=0.0):
        ego = EgoWindow(np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]), 0.1)
        actual = np.array([
            [[4.0, 0.0], [4.0, 0.5], [4.0, 1.0]],
            [[-3.0, 1.0], [-3.0, 1.0], [-3.0, 1.0]],
        ])
        return ego, actual + [shift, 0.0], actual

    def test_perfect_prediction_zero_lambda(self):
        ego, predicted, actual = self.make_windows()
        loss = window_loss(CBF, ALPHA, predicted, actual, ego, lam=0.0)
        assert loss == 0.0

    def test_perfect_prediction_unit_lambda(self):
        ego, predicted, actual = self.make_windows()
        loss = window_loss(CBF, ALPHA, predicted, actual, ego, lam=1.0)
        assert abs(loss - 0.25) <= 1e-15

    def test_no_agents_sentinel(self):
        ego = EgoWindow(np.array([[0.0, 0.0], [0.1, 0.0]]), 0.1)
        none = np.zeros((0, 2, 2))
        assert window_loss(CBF, ALPHA, none, none, ego, lam=0.0) is NO_AGENTS

    def test_monotone_in_lambda(self):
        ego, predicted, actual = self.make_windows(shift=0.3)
        losses = [
            window_loss(CBF, ALPHA, predicted, actual, ego, lam=lam)
            for lam in (-1.0, 0.0, 1.0, 2.0)
        ]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_matches_manual_reduction(self):
        ego, predicted, actual = self.make_windows(shift=0.25)
        lam = 0.4
        got = window_loss(CBF, ALPHA, predicted, actual, ego, lam=lam)

        worst = -math.inf
        for j in range(2):
            a, p = (Window(j, 0, 0.1, t[j]) for t in (actual, predicted))
            for frame in range(3):
                states = [x for t in (a, p) for x in (t.position_at(frame), differentiate(t, frame))]
                worst = max(worst, gap_reference(CBF, ALPHA, ego.positions[frame], *states, lam))
        expected = math.atan(worst) / math.pi
        assert abs(got - expected) <= 1e-15

    def test_agent_set_mismatch_rejected(self):
        ego, predicted, actual = self.make_windows()
        with pytest.raises(InputError):
            window_loss(CBF, ALPHA, predicted[:1], actual, ego, lam=0.0)

    def test_grid_mismatch_rejected(self):
        # a window one sample longer than the ego's
        ego, predicted, actual = self.make_windows()
        longer = np.concatenate([actual, actual[:, -1:]], axis=1)
        with pytest.raises(InputError):
            window_loss(CBF, ALPHA, longer, longer, ego, lam=0.0)

    def test_short_ego_window_rejected(self):
        ego = EgoWindow(np.array([[0.0, 0.0]]), 0.1)
        none = np.zeros((0, 1, 2))
        with pytest.raises(InputError):
            window_loss(CBF, ALPHA, none, none, ego, lam=0.0)


class TestUpdate:
    def test_basic_step_is_exact(self):
        state = ConformalState(lam=0.0, eta=1.0, epsilon=0.0)
        state.update(0.25)
        assert state.lam == -0.25
        assert state.loss_history == [0.25]

    def test_worked_example(self):
        state = ConformalState(lam=0.5, eta=100.0, epsilon=-0.1)
        state.update(-0.09252)
        assert abs(state.lam - (0.5 + 100.0 * (-0.1 + 0.09252))) <= 1e-12
        assert abs(state.lam - (-0.248)) <= 1e-12

    def test_no_agents_freezes_lambda(self):
        state = ConformalState(lam=0.3, eta=2.0, epsilon=0.1)
        state.update(NO_AGENTS)
        assert state.lam == 0.3
        assert state.loss_history == []

    def test_step_capped_by_eta(self):
        # losses and epsilon both live in (-1/2, 1/2), so one step moves
        # lambda by strictly less than eta
        rng = np.random.default_rng(0)
        for _ in range(300):
            eta = float(rng.uniform(0.01, 50.0))
            state = ConformalState(
                lam=float(rng.uniform(-5, 5)),
                eta=eta,
                epsilon=float(rng.uniform(-0.49, 0.49)),
            )
            before = state.lam
            state.update(float(rng.uniform(-0.499, 0.499)))
            assert abs(state.lam - before) < eta

    def test_unrolled_identity_float(self):
        rng = np.random.default_rng(7)
        state = ConformalState(lam=0.3, eta=0.5, epsilon=-0.05)
        losses = rng.uniform(-0.499, 0.499, size=400)
        for loss in losses:
            state.update(float(loss))
        expected = 0.3 + 0.5 * float(np.sum(-0.05 - losses))
        assert abs(state.lam - expected) <= 1e-9

    def test_unrolled_identity_exact_with_fractions(self):
        state = ConformalState(
            lam=Fraction(1, 3), eta=Fraction(2), epsilon=Fraction(-1, 10)
        )
        losses = [Fraction(k, 1000) - Fraction(1, 4) for k in range(200)]
        for loss in losses:
            state.update(loss)
        expected = Fraction(1, 3) + Fraction(2) * sum(
            Fraction(-1, 10) - loss for loss in losses
        )
        assert state.lam == expected
        assert isinstance(state.lam, Fraction)

    def test_validation(self):
        with pytest.raises(InputError):
            ConformalState(lam=0.0, eta=0.0, epsilon=0.0)
        with pytest.raises(InputError):
            ConformalState(lam=0.0, eta=-1.0, epsilon=0.0)
        for bad_eps in (-0.5, 0.5, 0.7, math.nan):
            with pytest.raises(InputError):
                ConformalState(lam=0.0, eta=1.0, epsilon=bad_eps)
        state = ConformalState(lam=0.0, eta=1.0, epsilon=0.0)
        for bad_loss in (-0.5, 0.5, math.nan):
            with pytest.raises(InputError):
                state.update(bad_loss)


class TestSafetyThreshold:
    def test_zero_bounds_zero_target(self):
        bounds = BoundSet(m_h=3.0, e_v=0.0, e_d=0.0)
        assert lambda_safe_bound(bounds, ALPHA, epsilon_safe=0.0) == 0.0

    def test_worked_example(self):
        # tan(pi * 0.25) = 1, minus e_d = 0.3, minus 1 * 2 * 0.1 = 0.2
        bounds = BoundSet(m_h=2.0, e_v=0.1, e_d=0.3)
        got = lambda_safe_bound(bounds, ALPHA, epsilon_safe=0.25)
        assert abs(got - 0.5) <= 1e-12

    def test_monotone_in_epsilon_safe(self):
        bounds = BoundSet(m_h=2.0, e_v=0.1, e_d=0.3)
        values = [
            lambda_safe_bound(bounds, ALPHA, epsilon_safe=e)
            for e in (-0.4, -0.1, 0.0, 0.2, 0.4)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_larger_error_budgets_need_more_slack(self):
        tight = BoundSet(m_h=2.0, e_v=0.1, e_d=0.1)
        loose = BoundSet(m_h=2.0, e_v=0.5, e_d=0.4)
        assert lambda_safe_bound(loose, ALPHA, 0.1) < lambda_safe_bound(tight, ALPHA, 0.1)

    def test_epsilon_safe_domain(self):
        bounds = BoundSet(m_h=2.0, e_v=0.1, e_d=0.3)
        with pytest.raises(InputError):
            lambda_safe_bound(bounds, ALPHA, epsilon_safe=0.5)
        for slope in (0.0, -1.0, math.nan):
            with pytest.raises(InputError, match="alpha_slope"):
                lambda_safe_bound(bounds, slope, epsilon_safe=0.1)

    def test_make_certificate(self):
        # M_alpha is alpha_slope: tan(pi * 0.25) = 1, minus e_d = 0.3,
        # minus 2 * 2 * 0.1 = 0.4
        bounds = BoundSet(m_h=2.0, e_v=0.1, e_d=0.3)
        assert abs(lambda_safe_bound(bounds, 2.0, epsilon_safe=0.25) - 0.3) <= 1e-12


class TestRiskBound:
    def test_identity_form(self):
        # the bound with lambda_safe = final lambda is the exact unrolled
        # identity plus the eta/(eta K') cushion
        losses = [0.3, -0.2, 0.1, 0.15, -0.25, 0.2]  # sums to 0.3
        state = ConformalState(lam=0.2, eta=0.8, epsilon=0.0)
        for loss in losses:
            state.update(loss)
        assert abs(state.lam - (0.2 - 0.8 * 0.3)) <= 1e-15
        avg, bound = risk_bound(state, lambda_safe=state.lam, k_prime=6)
        identity = 0.0 + (0.2 - state.lam) / (0.8 * 6)
        assert abs(avg - 0.05) <= 1e-15
        assert abs(avg - identity) <= 1e-12
        assert abs(bound - (identity + 1.0 / 6)) <= 1e-12
        assert avg <= bound

    def test_prefix_selection(self):
        state = ConformalState(lam=0.0, eta=1.0, epsilon=0.0)
        for loss in (0.1, 0.2, 0.3, 0.4):
            state.update(loss)
        avg, _ = risk_bound(state, lambda_safe=-10.0, k_prime=2)
        assert abs(avg - 0.15) <= 1e-15

    def test_initial_lambda_admissibility_checked(self):
        state = ConformalState(lam=0.0, eta=1.0, epsilon=0.0)
        state.update(0.1)
        with pytest.raises(InputError):
            risk_bound(state, lambda_safe=2.0, k_prime=1)

    def test_boundary_admissibility_allowed(self):
        # lambda_1 = lambda_safe - eta sits exactly on the admissible edge
        state = ConformalState(lam=0.0, eta=1.0, epsilon=0.0)
        state.update(0.1)
        avg, bound = risk_bound(state, lambda_safe=1.0, k_prime=1)
        assert avg == 0.1
        assert abs(bound - (0.0 + (0.0 - 1.0 + 1.0) / 1.0)) <= 1e-15

    def test_k_prime_validation(self):
        state = ConformalState(lam=0.0, eta=1.0, epsilon=0.0)
        state.update(0.1)
        with pytest.raises(InputError):
            risk_bound(state, lambda_safe=0.0, k_prime=0)
        with pytest.raises(InputError):
            risk_bound(state, lambda_safe=0.0, k_prime=2)

    def test_adversarial_stream_respects_bound(self):
        # adversary pushes the loss as high as the squash range allows
        # whenever lambda is above the safe floor, and concedes epsilon
        # otherwise; the averaged loss must stay under the bound
        rng = np.random.default_rng(11)
        for _ in range(30):
            eta = float(rng.uniform(0.1, 20.0))
            epsilon = float(rng.uniform(-0.4, 0.4))
            lambda_safe = float(rng.uniform(-2.0, 2.0))
            lam0 = lambda_safe - eta + float(rng.uniform(0.0, 3.0))
            state = ConformalState(lam=lam0, eta=eta, epsilon=epsilon)
            for _ in range(200):
                if state.lam > lambda_safe:
                    loss = 0.499
                else:
                    loss = epsilon
                state.update(loss)
            for k_prime in (1, 10, 200):
                avg, bound = risk_bound(state, lambda_safe, k_prime)
                assert avg <= bound + 1e-12


class TestTightDecisionSemantics:
    def test_true_residual_is_negated_gap_on_tight_constraint(self):
        # if the controller sits exactly on the inflated constraint, the
        # margin it actually has on the true one is minus the gap
        ego_pos = np.array([0.0, 0.0])
        position = [4.0, 0.0]
        actual_velocity, predicted_velocity = [-1.0, 0.0], [-1.4, 0.0]
        lam = 0.05

        inflated = scalar_row(CBF, ALPHA, ego_pos, position, predicted_velocity, lam)
        normal, true_offset = scalar_row(CBF, ALPHA, ego_pos, position, actual_velocity, 0.0)

        # drive the reference deep into violation so the row goes active
        # (the ego-side normal points away from the agent, so a reference
        # charging toward the agent violates it)
        reference = np.array([50.0, 0.0])
        sol = solve(QpProblem(reference, [inflated[0]], [inflated[1]], [1]))
        assert abs(float(inflated[0] @ sol.decision) + inflated[1]) <= 1e-8

        g = gap_reference(
            CBF, ALPHA, ego_pos, position, actual_velocity, position, predicted_velocity, lam
        )
        assert abs(float(normal @ sol.decision) + true_offset - (-g)) <= 1e-12
