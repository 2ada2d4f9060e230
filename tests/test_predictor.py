"""Tests for finite-difference velocities and the array predictors."""

import numpy as np
import pytest

from _oracles import scene_from_frames
from conformal_cbf.barrier import PotentialFieldCbf, barrier_terms
from conformal_cbf.conformal import EgoWindow, window_loss
from conformal_cbf.engine import RobotState, SimConfig, _window_edge
from conformal_cbf.errors import InputError
from conformal_cbf.predictor import (
    CONSTANT_VELOCITY,
    GROUND_TRUTH,
    NOISE_BOUNDED,
    PredictorKind,
    predict,
    velocities,
)

CBF = PotentialFieldCbf(k_rep=2.0, rho0=10.0, delta=0.5)


class TestDifferentiate:
    def test_linear_motion_is_exact_everywhere(self):
        v = velocities([[0.0, 0.0], [0.1, 0.2], [0.2, 0.4], [0.3, 0.6]], 0.1)
        assert np.allclose(v, [[1.0, 2.0]] * 4, atol=1e-12)

    def test_stationary_is_zero(self):
        assert np.array_equal(velocities([[2.0, 3.0]] * 5, 0.1), np.zeros((5, 2)))

    def test_quadratic_interior(self):
        # x(t) = t^2 sampled at dt = 0.5; central difference at t = 1 is
        # exact for a parabola: ((1.5^2 - 0.5^2) / 1.0) = 2.0
        ts = np.arange(5) * 0.5
        v = velocities(np.stack([ts**2, np.zeros(5)], axis=1), 0.5)
        assert abs(v[2, 0] - 2.0) <= 1e-12

    def test_edges_are_one_sided(self):
        v = velocities([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], 1.0)
        assert np.allclose(v, [[1.0, 0.0], [1.5, 0.0], [2.0, 0.0]])

    def test_errors(self):
        with pytest.raises(InputError):
            velocities([[0.0, 0.0]], 0.1)


def predict_one(kind, history, horizon, future=None, **kwargs):
    """predict for one agent, id 1, from (n, 2) history and future arrays."""
    if future is not None:
        future = np.asarray(future, dtype=np.float64)
        kwargs.update(futures=future[None], future_lengths=[len(future)])
    return predict(kind, [1], np.asarray(history, dtype=np.float64)[None], horizon, 0.1, **kwargs)


def scene_of(tracks):
    """Scene at 10 fps from agent_id -> {frame: (x, y)}."""
    frames = {}
    for agent_id, samples in tracks.items():
        for f, xy in samples.items():
            frames.setdefault(f, {})[agent_id] = xy
    return scene_from_frames(frames)


def window_at(scene, frame, kind=PredictorKind(kind=CONSTANT_VELOCITY), horizon=4):
    config = SimConfig(dt=0.1, tau_frames=2, horizon_frames=horizon, rho0=1000.0, predictor=kind)
    state = RobotState(position=np.zeros(2), velocity=np.zeros(2))
    predicted = _window_edge(config, config.margin(), scene, state, frame, None).predicted
    return predicted


class TestConstantVelocity:
    def test_extrapolates_linear_motion_exactly(self):
        hist = [[0.0, 0.0], [0.5, 0.25], [1.0, 0.5]]
        out = predict_one(PredictorKind(kind=CONSTANT_VELOCITY), hist, 4)
        assert out.ids.tolist() == [1] and out.lengths.tolist() == [4]
        expected = np.array([[1.5, 0.75], [2.0, 1.0], [2.5, 1.25], [3.0, 1.5]])
        assert np.allclose(out.positions[0], expected, atol=1e-12)
        assert np.allclose(out.velocities[0], [[5.0, 2.5]] * 4, atol=1e-9)

    def test_uses_last_displacement_only(self):
        out = predict_one(
            PredictorKind(kind=CONSTANT_VELOCITY), [[9.0, 9.0], [0.0, 0.0], [1.0, 0.0]], 2
        )
        assert np.allclose(out.positions[0], [[2.0, 0.0], [3.0, 0.0]])

    def test_agents_without_two_history_samples_are_left_out(self):
        # agent 1 appears one frame before the boundary, agent 2 two frames
        scene = scene_of(
            {1: {4: (0.0, 0.0), 5: (1.0, 0.0)}, 2: {3: (0.0, 5.0), 4: (1.0, 5.0), 5: (2.0, 5.0)}}
        )
        assert window_at(scene, 5).ids.tolist() == [2]
        with pytest.raises(InputError):
            predict_one(PredictorKind(kind=CONSTANT_VELOCITY), [[0.0, 0.0]], 3)

    def test_horizon_validation(self):
        for horizon in (0, 1):
            with pytest.raises(InputError):
                predict_one(
                    PredictorKind(kind=CONSTANT_VELOCITY), [[0.0, 0.0], [1.0, 0.0]], horizon
                )


class TestGroundTruthOracle:
    HIST = [[0.0, 0.0], [1.0, 0.0]]

    def test_returns_future_bitwise(self):
        future = np.array([[2.0, 0.5], [3.3, 1.0], [4.0, 1.5]])
        out = predict_one(PredictorKind(kind=GROUND_TRUTH), self.HIST, 3, future)
        assert out.positions[0].tobytes() == future.tobytes()
        assert out.velocities[0].tobytes() == velocities(future, 0.1).tobytes()

    def test_truncates_to_horizon(self):
        future = [[2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]
        out = predict_one(PredictorKind(kind=GROUND_TRUTH), self.HIST, 2, future)
        assert out.lengths.tolist() == [2] and out.positions.shape == (1, 2, 2)

    def test_requires_futures(self):
        with pytest.raises(InputError):
            predict_one(PredictorKind(kind=GROUND_TRUTH), self.HIST, 2)

    def test_future_lengths_must_fit_the_futures(self):
        kind = PredictorKind(kind=GROUND_TRUTH)
        hist = np.array([self.HIST])
        for lengths in ([4], [-1], [2, 2]):
            with pytest.raises(InputError):
                predict(
                    kind, [1], hist, 2, 0.1, futures=np.zeros((1, 3, 2)), future_lengths=lengths
                )

    def test_missing_future_skips_agent(self):
        # agent 1 leaves at the boundary and agent 2 one frame after it;
        # neither has a velocity to predict from
        out = predict(
            PredictorKind(kind=GROUND_TRUTH),
            [1, 2, 3],
            np.zeros((3, 2, 2)),
            4,
            0.1,
            futures=np.arange(18.0).reshape(3, 3, 2),
            future_lengths=[0, 1, 3],
        )
        assert out.ids.tolist() == [3] and out.lengths.tolist() == [3]
        assert out.positions[0].tolist() == [[12.0, 13.0], [14.0, 15.0], [16.0, 17.0]]

    def test_perfect_prediction_gives_zero_window_loss(self):
        # the whole point of the oracle: replaying the future through the
        # same differencing yields a loss of exactly zero at lam = 0
        future = np.array([[6.0, 1.0], [5.5, 1.5], [5.0, 2.0], [5.0, 2.5]])
        out = predict_one(
            PredictorKind(kind=GROUND_TRUTH), [[6.0, 0.0], [6.0, 0.5]], 4, future
        )
        ego = EgoWindow(np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]), 0.1)
        loss = window_loss(CBF, 1.0, out.positions, future[None], ego, lam=0.0)
        assert loss == 0.0


class TestNoiseBoundedOracle:
    HIST = [[5.0, 0.0], [5.0, 0.5]]
    ORIGIN = dict(cbf=CBF, ego_positions=np.array([0.0, 0.0]), start_frame=2, seed=0)

    def future_fixture(self, agent_id=4, n=6):
        rng = np.random.default_rng(agent_id)
        return np.array([5.0, 1.0]) + np.cumsum(rng.uniform(-0.3, 0.3, size=(n, 2)), axis=0)

    def kind(self, value_bound, dynamics_bound):
        return PredictorKind(
            kind=NOISE_BOUNDED, value_bound=value_bound, dynamics_bound=dynamics_bound
        )

    def test_zero_bounds_reproduce_truth(self):
        future = self.future_fixture()
        out = predict_one(self.kind(0.0, 0.0), self.HIST, 6, future, **self.ORIGIN)
        assert np.array_equal(out.positions[0], future)

    def test_requires_cbf_and_ego(self):
        future = self.future_fixture()
        with pytest.raises(InputError):
            predict_one(self.kind(0.1, 0.1), self.HIST, 6, future)
        with pytest.raises(InputError):
            predict_one(self.kind(0.1, 0.1), self.HIST, 6, future, cbf=CBF, start_frame=2, seed=0)
        with pytest.raises(InputError, match="seed"):
            predict_one(
                self.kind(0.1, 0.1), self.HIST, 6, future,
                **{k: v for k, v in self.ORIGIN.items() if k != "seed"},
            )

    def test_bounds_hold_over_many_draws(self):
        # both stated bounds must hold at every instant of the returned
        # window, measured exactly the way a consumer would measure them
        value_bound, dynamics_bound = 0.5, 0.1
        violations = 0
        instants = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(3, 8))
            future = np.array([6.0, -2.0]) + np.cumsum(rng.uniform(-0.4, 0.4, size=(n, 2)), axis=0)
            hist = [future[0] - 0.2, future[0] - 0.1]
            ego = rng.uniform(-1.0, 1.0, size=2)
            out = predict_one(
                self.kind(value_bound, dynamics_bound),
                hist,
                n,
                future,
                cbf=CBF,
                ego_positions=ego,
                start_frame=int(rng.integers(0, 50)),
                seed=seed,
            )
            got = out.positions[0]
            v_true, v_pred = velocities(future, 0.1), velocities(got, 0.1)
            assert v_pred.tobytes() == out.velocities[0].tobytes()
            for i in range(n):
                instants += 1
                if np.linalg.norm(got[i] - future[i]) > value_bound + 1e-12:
                    violations += 1
                _, g_true = barrier_terms(CBF, ego - future[i])
                _, g_pred = barrier_terms(CBF, ego - got[i])
                q_true = float(-g_true @ v_true[i])
                q_pred = float(-g_pred @ v_pred[i])
                if abs(q_pred - q_true) > dynamics_bound + 1e-12:
                    violations += 1
        assert instants >= 150
        assert violations == 0

    def test_actually_perturbs(self):
        future = self.future_fixture()
        out = predict_one(self.kind(0.5, 10.0), self.HIST, 6, future, **dict(self.ORIGIN, seed=3))
        assert not np.array_equal(out.positions[0], future)

    def test_deterministic_per_seed(self):
        future = self.future_fixture()
        a, b, c = (
            predict_one(self.kind(0.5, 0.1), self.HIST, 6, future, **dict(self.ORIGIN, seed=seed))
            for seed in (9, 9, 10)
        )
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)


def test_predict_output_sorted_by_agent_id():
    # the scene lists agents 9, 2 and 5 in that order
    scene = scene_of({a: {f: (float(a), 0.1 * f) for f in range(3)} for a in (9, 2, 5)})
    out = window_at(scene, 2)
    assert out.ids.tolist() == [2, 5, 9]
    assert out.positions[:, 0].tolist() == [[2.0, 0.2], [5.0, 0.2], [9.0, 0.2]]


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        PredictorKind(kind="perfect")
    with pytest.raises(InputError):
        PredictorKind(kind=CONSTANT_VELOCITY, value_bound=-1.0)
