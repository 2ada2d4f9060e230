"""Window prediction on arrays against the per-agent reference, compared with ==.

The engine gathers the histories and futures of every agent sensed at a
window boundary from the track table and predicts them in one predict call.
The reference in _oracles.py builds one Window record per agent from the
frame-by-frame history and future walks, predicts agent by agent, and stacks
the result the way the engine did before.  Both must give the same ids and lengths and
bit-identical positions and velocities, for all three predictor kinds, on
scenes whose tracks have gaps, restart after them, hold a single sample or
end before the horizon.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    future_window,
    history_window,
    noise_reference,
    predict_reference,
    scene_from_frames,
    stack_reference,
)
from conformal_cbf.dynamics import RobotState
from conformal_cbf.engine import SimConfig, _window_edge
from conformal_cbf.errors import InputError
from conformal_cbf.predictor import (
    CONSTANT_VELOCITY,
    GROUND_TRUTH,
    NOISE_BOUNDED,
    PredictorKind,
    predict,
)
from conformal_cbf.scenario import sensed_agents

SETTINGS = settings(max_examples=150, deadline=None)

kinds = st.one_of(
    st.just(PredictorKind(kind=CONSTANT_VELOCITY)),
    st.just(PredictorKind(kind=GROUND_TRUTH)),
    st.builds(
        PredictorKind,
        kind=st.just(NOISE_BOUNDED),
        value_bound=st.sampled_from([0.0, 0.5, 4.0, 30.0]),
        dynamics_bound=st.sampled_from([0.0, 1e-3, 0.1, 1e9]),
    ),
)


# up to six tracks, each present on a random subset of frames, so tracks
# have gaps, restart after them, hold a single sample or end early
@st.composite
def scenes(draw):
    frames = {}
    for agent_id in draw(st.sets(st.integers(-3, 60), max_size=6)):
        present = draw(st.sets(st.integers(-4, 25), max_size=30))
        for f in present:
            xy = draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
            frames.setdefault(f, {})[agent_id] = np.array(xy, dtype=np.float64) / 4.0
    return frames


def reference_window(config, kind, cbf, scene, ego, frame):
    """The per-agent path the engine took: one history and one future
    Window per sensed agent, predict_reference, predictions with fewer
    than two samples dropped, stack_reference."""
    histories = {}
    sensed, _ = sensed_agents(scene, ego, config.rho0, frame)
    for agent_id in sensed.tolist():
        history = history_window(scene.frames, agent_id, frame, config.tau_frames, scene.dt)
        if history is not None and history.n_samples >= 2:
            histories[agent_id] = history
    futures = None
    if kind.kind != CONSTANT_VELOCITY:
        futures = {
            i: future_window(scene.frames, i, frame, config.horizon_frames, scene.dt)
            for i in histories
        }
        futures = {i: f for i, f in futures.items() if f is not None}
        histories = {i: h for i, h in histories.items() if i in futures}
    predictions = predict_reference(
        kind, histories, config.horizon_frames, futures=futures, cbf=cbf, ego_positions=ego,
        seed=config.seed,
    )
    return stack_reference({i: p for i, p in predictions.items() if p.n_samples >= 2})


def assert_same(got, want):
    assert got.ids.tolist() == want.ids.tolist()
    assert got.lengths.tolist() == want.lengths.tolist()
    assert got.positions.shape == want.positions.shape
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.velocities.tobytes() == want.velocities.tobytes()
    assert len(got) == len(want.ids)


def predicted_window(config, kind, scene, ego, frame):
    state = RobotState(position=np.asarray(ego, dtype=np.float64), velocity=np.zeros(2))
    config = replace(config, predictor=kind)
    predicted = _window_edge(config, config.margin(), scene, state, frame, None).predicted
    return predicted


@SETTINGS
@given(
    frames=scenes(),
    kind=kinds,
    ego=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    tau=st.sampled_from([2, 3, 5]),
    extra=st.sampled_from([0, 1, 4, 30]),
    rho0=st.sampled_from([1.25, 5.0, 17.75, 1000.0]),
    k_rep=st.sampled_from([0.5, 50.0, 2000.0]),
    starts=st.sets(st.integers(-5, 27), min_size=1, max_size=8),
    seed=st.integers(0, 5),
)
def test_array_prediction_matches_the_per_agent_reference(
    frames, kind, ego, tau, extra, rho0, k_rep, starts, seed
):
    ego = np.array(ego, dtype=np.float64) / 4.0
    # one agent exactly rho0 away, which must not be sensed
    frames.setdefault(3, {})[1000] = ego + [rho0, 0.0]
    frames.setdefault(2, {})[1000] = ego + [rho0, 1.0]
    scene = scene_from_frames(frames)
    config = SimConfig(
        dt=0.1, tau_frames=tau, horizon_frames=tau + extra, rho0=rho0, k_rep=k_rep, seed=seed
    )
    for frame in sorted(starts | {3}):
        got = predicted_window(config, kind, scene, ego, frame)
        assert_same(got, reference_window(config, kind, config.cbf, scene, ego, frame))
        if frame == 3:
            assert 1000 not in got.ids.tolist()


def line_scene(n_future):
    """Agent 4 walking along a bent path from frame 0; prediction at frame 2
    sees two history samples and n_future recorded samples."""
    rng = np.random.default_rng(4)
    path = np.array([5.0, 1.0]) + np.cumsum(rng.uniform(-0.3, 0.3, (2 + n_future, 2)), axis=0)
    frames = {f: {4: path[f]} for f in range(len(path))}
    return scene_from_frames(frames), path


@SETTINGS
@given(
    n_future=st.integers(2, 12),
    sample=st.integers(0, 11),
    k=st.integers(0, 79),
    value_bound=st.sampled_from([0.5, 3.0]),
    dynamics_bound=st.sampled_from([0.0, 0.05, 1e9]),
    seed=st.integers(0, 3),
    on_truth=st.booleans(),
)
def test_a_coincident_noise_scale_fails_alone(
    n_future, sample, k, value_bound, dynamics_bound, seed, on_truth
):
    """The ego sits exactly on one perturbed sample (or on the truth): that
    scale fails as in the per-agent halving loop and the others are still
    tried."""
    scene, path = line_scene(n_future)
    kind = PredictorKind(kind=NOISE_BOUNDED, value_bound=value_bound, dynamics_bound=dynamics_bound)
    config = SimConfig(dt=0.1, tau_frames=2, horizon_frames=12, rho0=1000.0, k_rep=2.0, seed=seed)
    sample = min(sample, n_future - 1)
    truth = path[2:]
    noise = noise_reference(kind, 2, 4, n_future, seed=seed)
    ego = truth[sample] if on_truth else (truth + math.ldexp(1.0, -k) * noise)[sample]
    got = predicted_window(config, kind, scene, ego, 2)
    assert_same(got, reference_window(config, kind, config.cbf, scene, ego, 2))
    if (ego == truth[sample]).all():  # small scales can round onto the truth
        assert got.positions[0].tobytes() == truth.tobytes()
    elif dynamics_bound == 1e9:
        # every scale off the ego passes, so the coincident one only
        # changes the pick when it is the first
        want = truth + (0.5 if k == 0 else 1.0) * noise
        assert got.positions[0].tobytes() == want.tobytes()


def test_predict_checks_its_inputs():
    ids = np.array([1, 2])
    histories = np.zeros((2, 2, 2))
    cv = PredictorKind(kind=CONSTANT_VELOCITY)
    with pytest.raises(InputError):
        predict(cv, ids, histories[:, :1], 4, 0.1)
    with pytest.raises(InputError):
        predict(cv, ids[:1], histories, 4, 0.1)
    with pytest.raises(InputError):
        predict(cv, ids, histories, 4, 0.0)
    with pytest.raises(InputError), np.errstate(over="ignore"):
        predict(cv, ids, np.full((2, 2, 2), 1e308) * [[[0.0], [1.0]]], 4, 0.1)
    with pytest.raises(InputError):
        predict(
            PredictorKind(kind=GROUND_TRUTH), ids, histories, 4, 0.1,
            futures=np.zeros((1, 3, 2)), future_lengths=[3],
        )
    noise = PredictorKind(kind=NOISE_BOUNDED, value_bound=1.0, dynamics_bound=1.0)
    futures = dict(futures=np.ones((2, 3, 2)), future_lengths=[3, 2])
    with pytest.raises(InputError):
        predict(
            noise, ids, histories, 4, 0.1, cbf=SimConfig().cbf, ego_positions=[0.0, 0.0],
            **futures,
        )
    with pytest.raises(InputError):
        predict(
            noise, ids, histories, 4, 0.1, start_frame=0, seed=0, cbf=SimConfig().cbf,
            ego_positions=np.zeros((2, 2)), **futures,
        )
