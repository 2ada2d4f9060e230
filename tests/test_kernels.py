"""The array kernels against the scalar references in _oracles.py, compared with ==.

barrier_terms, the engine's frame rows, window_loss and velocities evaluate
the same floating-point operations as the per-sample code, so their results
must be bitwise equal to it, not merely close.  Distances and dot products go through np.vecdot and
squares through np.float_power; if a numpy build stops matching
np.linalg.norm, @ and Python's ** there, these tests fail first.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    Window,
    differentiate,
    gap_reference,
    scalar_row,
    scalar_terms,
    stack_reference,
)
from conformal_cbf.barrier import PotentialFieldCbf, barrier_terms
from conformal_cbf.conformal import EgoWindow, window_loss
from conformal_cbf.engine import _rows
from conformal_cbf.errors import InputError, SingularityError
from conformal_cbf.predictor import Predictions, velocities

SETTINGS = settings(max_examples=150, deadline=None)

coord = st.floats(-300.0, 300.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)
# offsets from a point down to where the barrier overflows and below: each
# axis is zero or +-10^e, e in [-170, 1]
tiny = st.builds(
    lambda s, e: s * 10.0**e, st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-170.0, 1.0)
)
cbfs = st.builds(
    PotentialFieldCbf,
    k_rep=st.floats(0.01, 5000.0),
    rho0=st.floats(1.0, 500.0),
    delta=st.floats(0.05, 0.95),
)
slopes = st.floats(0.01, 50.0)


def singular(cbf, ego, agents):
    """Whether the scalar code rejects some pair as coincident; when it
    does, so must the kernels, with no other error or warning."""
    try:
        for agent in agents:
            scalar_terms(cbf, ego, agent)
    except SingularityError:
        return True
    return False


def near(ego, offsets):
    """Agents at the given offsets from the ego."""
    return [(ego[0] + dx, ego[1] + dy) for dx, dy in offsets]


def offsets_of(ego, agents):
    return np.asarray(ego, dtype=np.float64) - np.asarray(agents, dtype=np.float64)


@SETTINGS
@given(
    cbf=cbfs,
    ego=st.one_of(point, st.tuples(tiny, tiny)),
    agents=st.lists(point, max_size=12),
    close=st.lists(st.tuples(tiny, tiny), max_size=2),
)
def test_barrier_terms_match_scalar_barrier(cbf, ego, agents, close):
    agents = agents + near(ego, close)
    if not agents:
        return
    if singular(cbf, ego, agents):
        with pytest.raises(SingularityError):
            barrier_terms(cbf, offsets_of(ego, agents))
        return
    h, grad = barrier_terms(cbf, offsets_of(ego, agents))
    for i, agent in enumerate(agents):
        h_ref, grad_ref = scalar_terms(cbf, ego, agent)
        assert h[i] == h_ref
        assert np.all(grad[i] == grad_ref)


@SETTINGS
@given(cbf=cbfs, ego=point, bearing=st.floats(0.0, 2.0 * math.pi), excess=st.floats(1.0, 50.0))
def test_barrier_terms_vanish_beyond_rho0(cbf, ego, bearing, excess):
    d = cbf.rho0 * excess
    agent = (ego[0] + d * math.cos(bearing), ego[1] + d * math.sin(bearing))
    diff = offsets_of(ego, [agent])
    if np.linalg.norm(diff[0]) < cbf.rho0:
        return  # rounding pulled the agent back inside
    h, grad = barrier_terms(cbf, diff)
    assert h[0] == 1.0 - cbf.delta == scalar_terms(cbf, ego, agent)[0]
    assert np.all(grad[0] == 0.0)


@SETTINGS
@given(
    positions=st.lists(point, min_size=2, max_size=15),
    dt=st.floats(0.001, 2.0),
    start=st.integers(-50, 50),
)
def test_velocities_match_differentiate_at_every_frame(positions, dt, start):
    traj = Window(1, start, dt, np.array(positions))
    got = velocities(traj.positions, dt)
    for i in range(traj.n_samples):
        assert np.all(got[i] == differentiate(traj, start + i))


@SETTINGS
@given(
    cbf=cbfs,
    slope=slopes,
    ego=point,
    agents=st.lists(st.tuples(point, point), min_size=1, max_size=10),
    close=st.lists(st.tuples(tiny, tiny), max_size=2),
    lam=st.floats(-5.0, 5.0),
)
def test_batched_rows_match_build_conformal_constraint(cbf, slope, ego, agents, close, lam):
    """A frame's rows over a batch of agents, for any class-kappa
    slope, against the per-pair row build_conformal_constraint made:
    scalar_row.  Agents closer than min_distance give no row."""
    agents = agents + [(p, (1.0, -2.0)) for p in near(ego, close)]
    ego = np.asarray(ego, dtype=np.float64)
    predicted = Predictions(
        ids=np.arange(len(agents)),
        positions=np.array([[p] for p, _ in agents], dtype=np.float64),
        velocities=np.array([[v] for _, v in agents], dtype=np.float64),
        lengths=np.ones(len(agents), dtype=np.intp),
    )
    normals, offsets, ids = _rows(cbf, slope, predicted, 0, ego, math.inf, lam)
    want = [i for i, (p, _) in enumerate(agents) if not singular(cbf, ego, [p])]
    assert ids.tolist() == want
    for normal, offset, i in zip(normals, offsets, want):
        normal_ref, offset_ref = scalar_row(cbf, slope, ego, *agents[i], lam)
        assert np.all(normal == normal_ref)
        assert offset == offset_ref


@SETTINGS
@given(
    cbf=cbfs,
    ego=point,
    tracks=st.lists(st.lists(point, min_size=4, max_size=4), min_size=1, max_size=6),
    lengths=st.lists(st.integers(1, 4), min_size=6, max_size=6),
    k=st.integers(0, 3),
    close=st.lists(st.tuples(st.integers(0, 5), tiny, tiny), max_size=3),
    lam=st.floats(-5.0, 5.0),
)
def test_engine_frame_rows_match_build_conformal_constraint(
    cbf, ego, tracks, lengths, k, close, lam
):
    """The engine's rows at sample k of a window against the per-pair row
    build_conformal_constraint made (scalar_row), agent by agent."""
    slope = 10.0
    for j, dx, dy in close:  # samples on or next to the ego, which give no row
        if j < len(tracks):
            tracks[j][k] = near(ego, [(dx, dy)])[0]
    predictions = {
        3 * j + 1: Window(3 * j + 1, 40, 0.1, np.array(track[: max(n, 2)]))
        for j, (track, n) in enumerate(zip(tracks, lengths))
    }
    normals, offsets, ids = _rows(
        cbf, slope, stack_reference(predictions), k, np.asarray(ego, dtype=np.float64),
        cbf.rho0, lam,
    )
    expected = []
    for agent_id in sorted(predictions):
        traj = predictions[agent_id]
        if not traj.contains(40 + k):
            continue
        pos = traj.position_at(40 + k)
        dist = float(np.linalg.norm(pos - np.asarray(ego)))
        if dist < cbf.min_distance or dist >= cbf.rho0:
            continue
        row = scalar_row(cbf, slope, ego, pos, differentiate(traj, 40 + k), lam)
        expected.append((agent_id, *row))
    assert ids.tolist() == [agent_id for agent_id, _, _ in expected]
    for normal, offset, (_, normal_ref, offset_ref) in zip(normals, offsets, expected):
        assert np.all(normal == normal_ref)
        assert offset == offset_ref


@SETTINGS
@given(
    cbf=cbfs,
    slope=slopes,
    windows=st.lists(
        st.tuples(st.lists(point, min_size=5, max_size=5), st.lists(point, min_size=5, max_size=5)),
        min_size=1,
        max_size=5,
    ),
    ego=st.lists(point, min_size=5, max_size=5),
    lam=st.floats(-5.0, 5.0),
)
def test_window_loss_matches_per_sample_gaps(cbf, slope, windows, ego, lam):
    predicted = np.array([p for p, _ in windows])
    actual = np.array([a for _, a in windows])
    ego = np.array(ego)
    worst = -math.inf
    try:
        for i in range(len(windows)):
            tracks = [Window(i, 7, 0.1, t[i]) for t in (actual, predicted)]
            for f in range(7, 12):
                states = [x for t in tracks for x in (t.position_at(f), differentiate(t, f))]
                worst = max(worst, gap_reference(cbf, slope, ego[f - 7], *states, lam))
    except SingularityError:  # a coincident sample: the window has no loss
        with pytest.raises(SingularityError):
            window_loss(cbf, slope, predicted, actual, EgoWindow(ego, 0.1), lam)
        return
    got = window_loss(cbf, slope, predicted, actual, EgoWindow(ego, 0.1), lam)
    assert got == math.atan(worst) / math.pi


@SETTINGS
@given(cbf=cbfs, slope=slopes, agents=st.lists(point, min_size=1, max_size=20))
def test_class_kappa_on_arrays_matches_scalars(cbf, slope, agents):
    """A resting agent's row offset is the class-kappa term alone: over a
    frame's rows, slope * h equals the product on each scalar h."""
    ego = np.zeros(2)
    agents = [p for p in agents if not singular(cbf, ego, [p])]
    predicted = Predictions(
        ids=np.arange(len(agents)),
        positions=np.array(agents, dtype=np.float64).reshape(-1, 1, 2),
        velocities=np.zeros((len(agents), 1, 2)),
        lengths=np.ones(len(agents), dtype=np.intp),
    )
    _, offsets, _ = _rows(cbf, slope, predicted, 0, ego, math.inf, 0.0)
    assert offsets.tolist() == [slope * scalar_terms(cbf, ego, p)[0] for p in agents]


# a stack of m windows of up to n samples, each with its own length
stacks = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n + 1),
        st.lists(st.integers(2, n + 1), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
)


@SETTINGS
@given(stack=stacks, dt=st.floats(0.001, 2.0), lead=st.integers(1, 3))
def test_velocities_by_length_match_per_window_calls(stack, dt, lead):
    n, lengths, seed = stack
    p = np.random.default_rng(seed).uniform(-300.0, 300.0, size=(lead, len(lengths), n, 2))
    lengths = np.array(lengths)
    got = velocities(p, dt, lengths)
    # the noise oracle's layout: lengths per agent over (agent, factor)
    swapped = velocities(p.swapaxes(0, 1), dt, lengths[:, None])
    for i in range(lead):
        for j, k in enumerate(lengths.tolist()):
            want = np.zeros((n, 2))
            want[:k] = velocities(p[i, j, :k], dt)
            assert got[i, j].tobytes() == want.tobytes()
            assert swapped[j, i].tobytes() == want.tobytes()
    assert velocities(p, dt, np.full(len(lengths), n)).tobytes() == velocities(p, dt).tobytes()


def test_velocities_reject_lengths_outside_the_window():
    p = np.zeros((2, 4, 2))
    for lengths in ([1, 4], [2, 5], [2.0, 4.0]):
        with pytest.raises(InputError, match="lengths"):
            velocities(p, 0.1, lengths)


def _per_length_loss(cbf, slope, predicted, actual, ego, dt, lam, lengths):
    """The max over one window_loss call per distinct length, the
    scoring the lengths argument replaced."""
    worst = None
    for k in sorted(set(lengths.tolist())):
        group = lengths == k
        loss = window_loss(
            cbf, slope, predicted[group, :k], actual[group, :k], EgoWindow(ego[:k], dt), lam
        )
        worst = loss if worst is None or loss > worst else worst
    return worst


@SETTINGS
@given(
    cbf=cbfs,
    slope=slopes,
    stack=stacks,
    lam=st.floats(-5.0, 5.0),
    padded_on_ego=st.booleans(),
)
def test_masked_window_loss_is_the_max_over_per_length_calls(cbf, slope, stack, lam, padded_on_ego):
    n, lengths, seed = stack
    rng = np.random.default_rng(seed)
    lengths = np.array(lengths)
    scale = 1.5 * cbf.rho0
    predicted = rng.uniform(-scale, scale, size=(len(lengths), n, 2))
    actual = rng.uniform(-scale, scale, size=(len(lengths), n, 2))
    ego = rng.uniform(-scale, scale, size=(n, 2))
    if padded_on_ego:
        # a sample past an agent's length may sit on the ego: it is not scored
        for j, k in enumerate(lengths.tolist()):
            if k < n:
                predicted[j, k] = actual[j, k] = ego[k]
    try:
        want = _per_length_loss(cbf, slope, predicted, actual, ego, 0.1, lam, lengths)
    except SingularityError:
        with pytest.raises(SingularityError):
            window_loss(cbf, slope, predicted, actual, EgoWindow(ego, 0.1), lam, lengths=lengths)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = window_loss(cbf, slope, predicted, actual, EgoWindow(ego, 0.1), lam, lengths=lengths)
    assert got == want


def test_a_coincident_scored_sample_still_raises():
    cbf, slope = PotentialFieldCbf(k_rep=50.0, rho0=60.0, delta=0.5), 1.0
    rng = np.random.default_rng(3)
    predicted, actual = rng.uniform(-40, 40, size=(2, 2, 5, 2))
    ego = rng.uniform(-5, 5, size=(5, 2))
    lengths = np.array([3, 5])
    predicted[0, 2] = ego[2]  # the last scored sample of agent 0
    with pytest.raises(SingularityError):
        window_loss(cbf, slope, predicted, actual, EgoWindow(ego, 0.1), 0.0, lengths=lengths)
    predicted[0, 2], predicted[0, 3] = ego[2] + 10.0, ego[3]  # now past agent 0's length
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = window_loss(cbf, slope, predicted, actual, EgoWindow(ego, 0.1), 0.0, lengths=lengths)
    assert got == _per_length_loss(cbf, slope, predicted, actual, ego, 0.1, 0.0, lengths)


def test_padded_samples_do_not_raise_the_loss():
    # predicted agents standing close where the actual ones stand out of
    # range: every scored gap is below lam, while a padded sample's would
    # read exactly lam
    cbf, slope = PotentialFieldCbf(k_rep=50.0, rho0=60.0, delta=0.5), 1.0
    ego = np.zeros((5, 2))
    predicted = np.broadcast_to([[10.0, 0.0]], (2, 5, 2)).copy()
    actual = np.broadcast_to([[100.0, 0.0]], (2, 5, 2)).copy()
    lengths = np.array([3, 4])
    got = window_loss(cbf, slope, predicted, actual, EgoWindow(ego, 0.1), 0.5, lengths=lengths)
    assert got == _per_length_loss(cbf, slope, predicted, actual, ego, 0.1, 0.5, lengths)
    assert got < math.atan(0.5) / math.pi


def test_barrier_terms_reads_masked_offsets_as_out_of_range():
    cbf = PotentialFieldCbf(k_rep=50.0, rho0=60.0, delta=0.5)
    diff = np.array([[0.0, 0.0], [3.0, 4.0], [1e-200, 0.0]])
    where = np.array([False, True, False])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, grad = barrier_terms(cbf, diff, where=where)
    want_h, want_grad = barrier_terms(cbf, diff[1:2])
    assert h[1] == want_h[0] and grad[1].tobytes() == want_grad[0].tobytes()
    assert h[0] == h[2] == 1.0 - cbf.delta
    assert not grad[[0, 2]].any()
    with pytest.raises(SingularityError):
        barrier_terms(cbf, diff, where=~where)


def test_lengths_need_the_array_form_and_must_fit():
    cbf, slope = PotentialFieldCbf(k_rep=50.0, rho0=60.0, delta=0.5), 1.0
    pred = np.full((2, 4, 2), 30.0)
    ego = EgoWindow(np.zeros((4, 2)), 0.1)
    for lengths in ([1, 4], [2, 5], [2, 3, 4], [2.0, 4.0]):
        with pytest.raises(InputError, match="lengths"):
            window_loss(cbf, slope, pred, pred, ego, 0.0, lengths=lengths)
