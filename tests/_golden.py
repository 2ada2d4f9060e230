"""Behaviour lock: fixed command-line runs whose outputs are kept as files.

Each case is one ``conformal-cbf run`` with a flat config, a scene spec and
``--trace``; its metrics CSV and per-frame trace are stored under
``tests/data/golden/`` and compared byte for byte by ``test_golden.py``.

Cases:

- ``crossing_eps{-0.4,+0.0,+0.4}``: the acceptance crossing config on the
  built-in crossing scene, one per calibration target;
- ``standing_noise``: the noise-bounded oracle on the built-in standing
  scene (the config of the determinism acceptance check);
- ``crowd16``: sixteen pedestrians on seeded piecewise-linear paths around
  the ego's corridor; the scene spec is stored next to the outputs so the
  case does not depend on the generator below;
- ``crowd16_ground_truth``: the same run with the ground-truth oracle, whose
  predictions are the recorded futures, cut short where a track ends.

Regenerate with ``PYTHONPATH=src python tests/_golden.py`` only in a change
that states the drift it causes.
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

GOLDEN = Path(__file__).parent / "data" / "golden"

CROSSING = {
    "dt": 0.1,
    "tau_frames": 5,
    "horizon_frames": 10,
    "alpha_slope": 10.0,
    "k_acc": 8.0,
    "k_rep": 2000.0,
    "rho0": 75.0,
    "delta": 0.5,
    "eta": 0.5,
    "epsilon": 0.0,
    "lambda_initial": 0.0,
    "predictor": "constant-velocity",
    "max_frames": 1150,
    "seed": 0,
    "start": [0.0, 0.0],
    "start_velocity": [0.0, 0.0],
    "goal": [200.0, 0.0],
    "attract_gain": 0.02,
    "goal_radius": 2.0,
}

STANDING_NOISE = {
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

CROWD = dict(CROSSING, max_frames=600, epsilon=-0.2)
CROWD_GROUND_TRUTH = dict(CROWD, predictor="ground-truth-oracle")


def crowd_spec(seed=16, agents=16, duration=60.0):
    """Seeded scene spec: pedestrians walking four-leg paths across the
    corridor the ego drives along, each present for part of the clip."""
    rng = np.random.default_rng(seed)
    out = []
    for agent_id in range(1, agents + 1):
        t0 = float(rng.uniform(0.0, 0.4 * duration))
        t1 = float(rng.uniform(0.6 * duration, duration))
        times = np.linspace(t0, t1, 5)
        xs = rng.uniform(-20.0, 220.0, size=5)
        ys = rng.uniform(-60.0, 60.0, size=5)
        out.append(
            {
                "id": agent_id,
                "label": "Pedestrian",
                "waypoints": [
                    [round(float(t), 3), [round(float(x), 3), round(float(y), 3)]]
                    for t, x, y in zip(times, xs, ys)
                ],
            }
        )
    return {"scene_name": "crowd16", "fps": 10.0, "duration": duration, "agents": out}


def cases():
    """name -> (config mapping, scene spec mapping)."""
    from conformal_cbf.cli import BUILTIN_SCENES

    out = {}
    for eps in (-0.4, 0.0, 0.4):
        out[f"crossing_eps{eps:+.1f}"] = (
            dict(CROSSING, epsilon=eps),
            BUILTIN_SCENES["crossing"],
        )
    out["standing_noise"] = (STANDING_NOISE, BUILTIN_SCENES["standing"])
    with open(GOLDEN / "crowd16_scene.yaml", encoding="utf-8") as fh:
        crowd = yaml.safe_load(fh)
    out["crowd16"] = (CROWD, crowd)
    out["crowd16_ground_truth"] = (CROWD_GROUND_TRUTH, crowd)
    return out


def run_case(name, config, spec, workdir):
    """Run one case through the command line; returns (csv bytes, trace bytes)."""
    from conformal_cbf.cli import main

    workdir = Path(workdir)
    config_path = workdir / f"{name}_config.yaml"
    scene_path = workdir / f"{name}_scene.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    scene_path.write_text(yaml.safe_dump(spec), encoding="utf-8")
    csv_path = workdir / f"{name}.csv"
    trace_path = workdir / f"{name}.jsonl"
    code = main(
        [
            "run",
            "--config", str(config_path),
            "--scene", str(scene_path),
            "--out", str(csv_path),
            "--trace", str(trace_path),
        ]
    )
    if code != 0:
        raise RuntimeError(f"golden case {name} exited {code}")
    return csv_path.read_bytes(), trace_path.read_bytes()


def regenerate():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    spec_path = GOLDEN / "crowd16_scene.yaml"
    if not spec_path.exists():
        spec_path.write_text(yaml.safe_dump(crowd_spec()), encoding="utf-8")
    for name, (config, spec) in cases().items():
        with tempfile.TemporaryDirectory() as workdir:
            csv, trace = run_case(name, config, spec, workdir)
        (GOLDEN / f"{name}.csv").write_bytes(csv)
        (GOLDEN / f"{name}.jsonl").write_bytes(trace)
        print(f"{name}: {csv.decode().splitlines()[1]} ({len(trace)} trace bytes)")


if __name__ == "__main__":
    sys.exit(regenerate())
