"""Package acceptance: one verdict line per guaranteed property.

Run `pytest tests/test_acceptance.py -s` to see the lines; each test
prints PASS only after every assertion in it has held, and FAIL before
re-raising otherwise.  The checks mix exact algebra (rational
arithmetic through the production update), oracle comparisons
(finite differences, grid search), and end-to-end runs on the built-in
crossing scene.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

from _oracles import (
    fd_gradient,
    future_reference,
    gradient_relative_error,
    grid_projection,
    history_window,
    kkt_residual,
    predict_reference,
    rows_to_arrays,
)
from conformal_cbf.barrier import (
    AffineConstraint,
    PotentialFieldCbf,
    barrier_terms,
    bound_set_for,
)
from conformal_cbf.cli import BUILTIN_SCENES, main
from conformal_cbf.conformal import (
    NO_AGENTS,
    ConformalState,
    EgoWindow,
    lambda_safe_bound,
    window_loss,
)
from conformal_cbf.dynamics import RobotState
from conformal_cbf.engine import SimConfig, run
from conformal_cbf.errors import ParseError
from conformal_cbf.predictor import (
    CONSTANT_VELOCITY,
    GROUND_TRUTH,
    NOISE_BOUNDED,
    PredictorKind,
    predict,
)
from conformal_cbf.qp import QpProblem, solve
from conformal_cbf.scenario import (
    RobotTask,
    load_annotations,
    sensed_agents,
    synth_scene,
)

DATA = Path(__file__).parent / "data"


@contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:2d} FAIL  {label}")
        raise
    print(f"[acceptance] {number:2d} PASS  {label}")


# ---------------------------------------------------------------------------
# exact adversarial calibration (shared by the first two checks)

def _rational(x, denominator=1000):
    return Fraction(round(x * denominator), denominator)


def _adversarial_trials():
    """Drive the production margin update with worst-case losses.

    Everything is a Fraction, so the prefix-average inequality and the
    margin floor can be checked with no tolerance at all.  The
    adversary plays the largest admissible loss whenever the margin
    sits above the safe level and the largest loss the safe level
    permits otherwise.
    """
    rng = np.random.default_rng(20260822)
    near_half = Fraction(1, 2) - Fraction(1, 1000)
    floor_eps = Fraction(-499, 1000)
    trials = []
    start = time.perf_counter()
    for trial in range(50):
        eta = max(_rational(rng.uniform(0.1, 100.0)), Fraction(1, 10))
        eps = _rational(rng.uniform(-0.45, 0.45))
        lam_safe = _rational(rng.uniform(-3.0, 3.0))
        # the first trial starts exactly on the admissibility boundary
        offset = Fraction(0) if trial == 0 else _rational(rng.uniform(0.0, 5.0))
        lam_start = lam_safe - eta + offset
        eps_safe = max(eps - _rational(rng.uniform(0.0, 0.04)), floor_eps)
        state = ConformalState(lam=lam_start, eta=eta, epsilon=eps)
        min_lam = state.lam
        worst_margin = None  # tightest slack seen in the prefix bound
        # prefix inequality, cleared of divisions: lhs = eta * sum(l) must
        # stay below rhs = eta*eps*K' + (lam_start - lam_safe + eta).  Both
        # sides are carried from step to step, exactly, so each step adds
        # one term to each instead of recomputing the step-invariant ones.
        rhs_step = eta * eps
        lhs, rhs = Fraction(0), lam_start - lam_safe + eta
        for _ in range(5000):
            loss = near_half if state.lam > lam_safe else eps_safe
            state.update(loss)
            min_lam = min(min_lam, state.lam)
            lhs += eta * loss
            rhs += rhs_step
            slack = rhs - lhs
            if worst_margin is None or slack < worst_margin:
                worst_margin = slack
            if lhs > rhs:
                break
        trials.append(
            {
                "eta": eta,
                "lam_safe": lam_safe,
                "min_lam": min_lam,
                "steps": len(state.loss_history),
                "worst_margin": worst_margin,
            }
        )
    return {"trials": trials, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def adversarial():
    return _adversarial_trials()


def test_01_adversarial_prefix_average_stays_under_ceiling(adversarial):
    with verdict(1, "adversarial prefix averages stay under the guaranteed ceiling"):
        for t in adversarial["trials"]:
            assert t["steps"] == 5000
            assert t["worst_margin"] >= 0
        assert adversarial["elapsed"] < 10.0


def test_02_margin_never_falls_below_floor(adversarial):
    with verdict(2, "margin never falls below the floor under adversarial losses"):
        for t in adversarial["trials"]:
            assert t["min_lam"] >= t["lam_safe"] - t["eta"]


# ---------------------------------------------------------------------------
# certified margin against the noise-bounded predictor

def test_03_certified_margin_keeps_window_loss_at_target():
    cbf = PotentialFieldCbf(k_rep=200.0, rho0=25.0, delta=0.5)
    alpha = 2.0  # alpha_slope
    n = 8
    dt = 0.1
    with verdict(3, "certified margin keeps every window loss at or under target"):
        for pair_index, (e_v, e_d) in enumerate(((0.5, 0.1), (5.0, 1.0))):
            bounds = bound_set_for(cbf, e_v, e_d)
            violations = 0
            for i in range(1000):
                rng = np.random.default_rng([3, pair_index, i])
                eps_safe = float(rng.uniform(-0.45, 0.45))
                lam = lambda_safe_bound(bounds, alpha, eps_safe)
                ego = np.cumsum(
                    np.vstack([rng.uniform(0.0, 100.0, 2), rng.uniform(-3.0, 3.0, (n - 1, 2))]),
                    axis=0,
                )
                theta = rng.uniform(0.0, 2.0 * np.pi)
                agent = np.cumsum(
                    np.vstack(
                        [
                            ego[0] + rng.uniform(6.0, 50.0) * np.array([np.cos(theta), np.sin(theta)]),
                            rng.uniform(-4.0, 4.0, (n - 1, 2)),
                        ]
                    ),
                    axis=0,
                )
                # keep the true path clear of the singularity, so the
                # perturbed one (at most e_v away) stays clear too
                for j in range(n):
                    gap_v = agent[j] - ego[j]
                    d = float(np.linalg.norm(gap_v))
                    if d < 6.0:
                        agent[j] = ego[j] + (6.0 / d if d > 0.0 else 1.0) * (
                            gap_v if d > 0.0 else np.array([6.0, 0.0])
                        )
                history = np.vstack([agent[0] - rng.uniform(-4.0, 4.0, 2), agent[0]])
                predicted = predict(
                    PredictorKind(kind=NOISE_BOUNDED, value_bound=e_v, dynamics_bound=e_d),
                    [9],
                    history[None],
                    n,
                    dt,
                    futures=agent[None],
                    future_lengths=[n],
                    start_frame=100,
                    seed=i,
                    cbf=cbf,
                    ego_positions=ego,
                )
                loss = window_loss(
                    cbf, alpha, predicted.positions, agent[None], EgoWindow(ego, dt), lam
                )
                assert loss is not NO_AGENTS
                if loss > eps_safe:
                    violations += 1
            assert violations == 0


# ---------------------------------------------------------------------------
# projection solver against the solver-free oracle

def test_04_projection_matches_grid_oracle():
    with verdict(4, "projection matches the grid-search oracle on random problems"):
        start = time.perf_counter()
        for i in range(1000):
            rng = np.random.default_rng([4, i])
            anchor = rng.uniform(-3.0, 3.0, 2)
            rows = []
            for j in range(int(rng.integers(0, 6))):
                if rng.uniform() < 0.1:
                    normal = np.zeros(2)
                    offset = float(rng.uniform(0.0, 3.0))
                else:
                    normal = rng.normal(0.0, 1.0, 2) * 10.0 ** rng.uniform(-1.0, 1.0)
                    offset = -float(normal @ anchor) + float(rng.uniform(0.01, 3.0))
                rows.append(AffineConstraint(normal=normal, offset=offset, agent_id=j))
            reference = rng.uniform(-6.0, 6.0, 2)
            solution = solve(QpProblem(reference, *rows_to_arrays(rows)))
            for row in rows:
                assert row.residual(solution.decision) >= -1e-8
            assert kkt_residual(reference, rows, solution.decision) <= 1e-6
            oracle = grid_projection(reference, rows)
            assert oracle is not None
            objective = float(np.sum((solution.decision - reference) ** 2))
            oracle_objective = float(np.sum((oracle - reference) ** 2))
            assert abs(objective - oracle_objective) <= 2e-3
        assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# barrier gradient against extended-precision finite differences

def test_05_barrier_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    with verdict(5, "barrier gradient matches finite differences everywhere"):
        for _ in range(10_000):
            k_rep = float(10.0 ** rng.uniform(0.0, 3.5))
            rho0 = float(10.0 ** rng.uniform(0.7, 2.7))
            delta = float(rng.uniform(0.05, 0.95))
            while True:
                d = rho0 * float(rng.uniform(0.01, 2.0))
                # the barrier is only once differentiable at the sensing
                # boundary; a central difference straddling it measures
                # the kink, so stay a step-width band away
                if abs(d - rho0) > 1e-3:
                    break
            cbf = PotentialFieldCbf(k_rep=k_rep, rho0=rho0, delta=delta)
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            ego = rng.uniform(-50.0, 50.0, 2)
            agent = ego + d * np.array([math.cos(theta), math.sin(theta)])
            _, grad_ego = barrier_terms(cbf, ego - agent)
            _, grad_agent = barrier_terms(cbf, agent - ego)  # ego and agent swapped
            assert np.array_equal(grad_agent, -grad_ego)
            numeric = fd_gradient(k_rep, rho0, delta, ego, agent)
            assert gradient_relative_error(grad_ego, numeric) <= 1e-5


# ---------------------------------------------------------------------------
# closed-loop checks on the built-in crossing scene

CROSSING_CONFIG = SimConfig(
    dt=0.1,
    tau_frames=5,
    horizon_frames=10,
    alpha_slope=10.0,
    k_acc=8.0,
    k_rep=2000.0,
    rho0=75.0,
    delta=0.5,
    eta=0.5,
    epsilon=0.0,
    lambda_initial=0.0,
    predictor=PredictorKind(kind=CONSTANT_VELOCITY),
    max_frames=1150,
    seed=0,
)

# the robot creeps, so each crossing pedestrian is met over and over and
# the run accumulates a couple hundred calibration windows
CROSSING_TASK = RobotTask(
    start=RobotState(position=np.zeros(2), velocity=np.zeros(2)),
    goal=np.array([200.0, 0.0]),
    attract_gain=0.02,
    goal_radius=2.0,
)


def _replay_window_losses(config, scene, trace_path):
    """Rebuild every scored window loss from the frame trace.

    Mirrors the run loop with public pieces and the per-agent predictor
    reference: predictions are reconstructed from the scene at each
    window start, the ego window
    comes from the traced positions, and each agent is scored over the
    common prefix of its prediction and its realized path.
    """
    cbf = config.cbf
    alpha = config.alpha_slope
    tau = config.tau_frames
    rows = [json.loads(line) for line in open(trace_path, encoding="utf-8")]
    position = {r["frame"]: np.asarray(r["position"]) for r in rows}
    margin = {r["frame"]: r["lambda"] for r in rows}
    start = scene.start_frame
    losses = []
    k = 1
    while start + (k + 1) * tau <= start + len(rows):
        w0 = start + k * tau
        ego = np.array([position[w0 + i] for i in range(tau)])
        histories = {}
        sensed, _ = sensed_agents(scene, position[w0], config.rho0, w0)
        for agent_id in sensed.tolist():
            history = history_window(scene.frames, agent_id, w0, tau, scene.dt)
            if history is not None and history.n_samples >= 2:
                histories[agent_id] = history
        predicted = predict_reference(config.predictor, histories, config.horizon_frames)
        worst = None
        for agent_id in sorted(predicted):
            actual = future_reference(scene.frames, agent_id, w0, tau)
            if actual is None:
                continue
            m = min(tau, len(actual[1]), predicted[agent_id].n_samples)
            if m < 2:
                continue
            loss = window_loss(
                cbf,
                alpha,
                predicted[agent_id].positions[None, :m],
                actual[1][None, :m],
                EgoWindow(ego[:m], scene.dt),
                margin[w0],
            )
            if loss is not NO_AGENTS and (worst is None or loss > worst):
                worst = loss
        if worst is not None:
            losses.append(worst)
        k += 1
    return losses


@pytest.fixture(scope="module")
def crossing_runs(tmp_path_factory):
    scene = synth_scene(BUILTIN_SCENES["crossing"])
    out = tmp_path_factory.mktemp("crossing")
    records = []
    start = time.perf_counter()
    for eps in (-0.4, -0.2, 0.0, 0.2, 0.4):
        config = replace(CROSSING_CONFIG, epsilon=eps)
        trace = out / f"eps_{eps:+.1f}.jsonl"
        metrics = run(config, scene, CROSSING_TASK, trace_path=trace)
        losses = _replay_window_losses(config, scene, trace)
        records.append(
            {
                "epsilon": eps,
                "metrics": metrics,
                "losses": losses,
                "min_lambda": min(v for _, v in metrics.lambda_trace),
            }
        )
    return {"records": records, "elapsed": time.perf_counter() - start}


def test_06_perfect_predictions_pin_margin_and_loss_at_zero():
    with verdict(6, "perfect predictions pin margin and loss at exactly zero"):
        for scene_name, frames in (("crossing", 600), ("standing", 300)):
            scene = synth_scene(BUILTIN_SCENES[scene_name])
            config = replace(
                CROSSING_CONFIG,
                predictor=PredictorKind(kind=GROUND_TRUTH),
                max_frames=frames,
            )
            metrics = run(config, scene, CROSSING_TASK)
            assert metrics.l_avg == 0.0
            assert all(lam == 0.0 for _, lam in metrics.lambda_trace)


def test_07_average_loss_converges_to_each_target(crossing_runs):
    with verdict(7, "average loss converges to each target on the crossing scene"):
        for record in crossing_runs["records"]:
            eps = record["epsilon"]
            losses = record["losses"]
            metrics = record["metrics"]
            k_prime = len(losses)
            assert k_prime >= 200
            # the replay must agree exactly with the engine's own record
            assert metrics.l_avg == sum(losses) / k_prime
            eta = CROSSING_CONFIG.eta
            lam_start = CROSSING_CONFIG.lambda_initial
            ceiling = (abs(lam_start - record["min_lambda"]) + eta) / (eta * k_prime)
            assert abs(metrics.l_avg - eps) <= ceiling + 0.05
        assert crossing_runs["elapsed"] < 60.0


def test_08_tighter_targets_give_more_clearance(crossing_runs):
    with verdict(8, "tighter loss targets trade progress for clearance"):
        records = sorted(crossing_runs["records"], key=lambda r: r["epsilon"])
        collisions = [r["metrics"].n_collide for r in records]
        assert collisions == sorted(collisions)
        assert records[0]["metrics"].d_min > records[-1]["metrics"].d_min


# ---------------------------------------------------------------------------
# command-line determinism

def test_09_fixed_seed_outputs_are_byte_identical(tmp_path, monkeypatch):
    scene_path = tmp_path / "standing.yaml"
    assert main(["make-scene", "--name", "standing", "--out", str(scene_path)]) == 0
    config = {
        "dt": 0.1,
        "tau_frames": 5,
        "horizon_frames": 10,
        "alpha_slope": 2.0,
        "k_acc": 4.0,
        "k_rep": 200.0,
        "rho0": 25.0,
        "delta": 0.5,
        "eta": 1.0,
        "epsilon": -0.2,
        "lambda_initial": math.tan(math.pi * -0.2),
        "max_frames": 400,
        "seed": 7,
        "predictor": "noise-bounded-oracle",
        "predictor_value_bound": 2.0,
        "predictor_dynamics_bound": 0.5,
        "goal": [60.0, 0.0],
        "goal_radius": 2.0,
        "attract_gain": 0.5,
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    monkeypatch.delenv("CONFORMAL_CBF_WORKERS", raising=False)

    def invoke(command, out, *extra):
        out_path = tmp_path / out
        code = main(
            [
                command,
                "--config",
                str(config_path),
                "--scene",
                str(scene_path),
                "--out",
                str(out_path),
                *extra,
            ]
        )
        assert code == 0
        return out_path.read_bytes()

    with verdict(9, "fixed-seed run and sweep output identical bytes"):
        assert invoke("run", "run_a.csv") == invoke("run", "run_b.csv")
        grid = ("--grid", "eps=-0.2,0.0,0.2")
        first = invoke("sweep", "sweep_a.csv", *grid, "--workers", "1")
        again = invoke("sweep", "sweep_b.csv", *grid, "--workers", "1")
        pooled = invoke("sweep", "sweep_c.csv", *grid, "--workers", "8")
        assert first == again == pooled


# ---------------------------------------------------------------------------
# annotation ingestion

def test_10_annotation_fixture_parses_to_expected_frames(capsys):
    expected: dict[int, dict[int, tuple]] = {}
    for f in range(10):
        expected.setdefault(f, {})[1] = (100.0 + 2.0 * f, 50.0)
    for f in (*range(5, 8), *range(12, 20)):
        expected.setdefault(f, {})[3] = (205.0 - 3.0 * f, 105.0 + 1.0 * f)
    for f in range(12):
        expected.setdefault(f, {})[5] = (400.0, 300.0 - 5.0 * f)

    with verdict(10, "annotation fixture parses to the exact expected frames"):
        scene = load_annotations(DATA / "annotations_50.txt", fps=10.0)
        assert set(scene.frames) == set(expected)
        for frame, agents in expected.items():
            assert set(scene.frames[frame]) == set(agents)
            for agent_id, position in agents.items():
                assert tuple(scene.frames[frame][agent_id]) == position
        assert scene.labels == {1: "Pedestrian", 3: "Pedestrian", 5: "Pedestrian"}
        assert scene.start_frame == 0
        assert scene.end_frame == 20

        with pytest.raises(ParseError) as info:
            load_annotations(DATA / "annotations_bad.txt", fps=10.0)
        assert info.value.line == 3

        code = main(["validate-annotations", "--annotations", str(DATA / "annotations_bad.txt")])
        captured = capsys.readouterr()
        assert code == 3
        assert "line 3" in captured.err
