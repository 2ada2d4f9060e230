"""Workload definitions and the input files each benchmark run generates.

Two workloads, each a round of program invocations repeated until the run
length is used up:

- ``crowd``: four ``run --annotations --trace`` invocations, one per ego
  task, through a seeded pedestrian crowd in the drone-annotation layout.
- ``calibration-sweep``: one ``sweep`` over epsilon x eta on the built-in
  crossing scene with the acceptance crossing configuration, one worker per
  available core; one cell is then re-run alone with ``run --trace``.

The program only ever receives the files written here.  Every float that
reaches a config file is written with full precision, so the program and
the independent checks see the same numbers.
"""

import os
from dataclasses import dataclass, field

import yaml

import crowd

EPSILONS = (-0.4, -0.2, 0.0, 0.2, 0.4)
ETAS = (0.5, 1.0)

# the acceptance crossing configuration (tests/test_acceptance.py)
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
    "start": [0.0, 0.0],
    "start_velocity": [0.0, 0.0],
    "goal": [200.0, 0.0],
    "attract_gain": 0.02,
    "goal_radius": 2.0,
}

# 30 fps pixel crowd: the sensing radius covers the whole arena, so every
# pedestrian on screen yields a constraint row each frame; the margin
# slope keeps far rows loose for any margin the loss target produces
CROWD = {
    "dt": 1.0 / crowd.FPS,
    "tau_frames": 12,
    "horizon_frames": 24,
    "alpha_slope": 4.0,
    "k_acc": 8.0,
    "k_rep": 1322.0,
    "rho0": 900.0,
    "delta": 0.5,
    "eta": 0.5,
    "epsilon": 0.0,
    "lambda_initial": 0.0,
    "predictor": "constant-velocity",
    "max_frames": 240,
    "relax_max_steps": 40,
    "start_velocity": [0.0, 0.0],
    "attract_gain": 0.1,
    "goal_radius": 10.0,
}
CROWD_AGENTS = 48
CROWD_ARENA = (720, 480)
CROWD_FRAMES = 540
# (start, goal) of each ego task: across the arena both ways, then down and up
CROWD_TASKS = (
    ((40.0, 240.0), (680.0, 240.0)),
    ((680.0, 200.0), (40.0, 280.0)),
    ((300.0, 20.0), (420.0, 460.0)),
    ((420.0, 460.0), (300.0, 20.0)),
)

# Blow-up guard: no commanded speed above this many pixels per second, and
# the ego never further than EXTENT_SLACK pixels outside the scene's box
# (crossing: the corridor plus its goal; crowd: the arena).
SPEED_LIMIT = {"crossing": 100.0, "crowd": 10000.0}
EXTENT_SLACK = 100.0


@dataclass
class Run:
    """One closed-loop run the checks know how to verify."""

    name: str
    config: dict
    csv: str
    trace: str
    scene: str  # "crossing" or "crowd"


@dataclass
class Plan:
    workload: str
    ops: list  # argv lists for the program's command line, one round
    prepare: list  # argv of the first, untimed command, in a fresh interpreter
    probe: list  # scene-source flags for the set-up probe
    probe_config: str
    runs: list = field(default_factory=list)
    sweep: dict | None = None
    crowd_expected: dict | None = None
    workers: int = 1
    tiny: bool = False


def write_yaml(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


def build(workload, seed, workdir, *, tiny=False):
    """Write the inputs of one benchmark run and return its plan.

    tiny shrinks every workload for the self-test, where the epsilon
    properties of full-length runs are not expected to hold; benchmark
    runs never set it.
    """
    os.makedirs(workdir, exist_ok=True)
    j = lambda name: os.path.join(workdir, name)  # noqa: E731
    if workload == "crowd":
        plan = _crowd(seed, j, tiny)
    elif workload == "calibration-sweep":
        plan = _sweep(seed, j, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan.tiny = tiny
    return plan


def _sweep(seed, j, tiny):
    scene = j("crossing.yaml")
    base = dict(CROSSING, seed=int(seed))
    if tiny:
        base["max_frames"] = 60
    prepare = ["make-scene", "--name", "crossing", "--out", scene]
    probe_config = j("crossing_config.yaml")
    write_yaml(probe_config, base)
    workers = len(os.sched_getaffinity(0))
    epsilons = EPSILONS[::2] if tiny else EPSILONS
    plan = Plan("calibration-sweep", [], prepare, ["--scene", scene], probe_config, workers=workers)
    grid_csv = j("grid.csv")
    plan.ops.append(
        [
            "sweep", "--config", probe_config, "--scene", scene, "--out", grid_csv,
            "--grid", "eps=" + ",".join(repr(e) for e in epsilons),
            "--grid", "eta=" + ",".join(repr(e) for e in ETAS),
            "--workers", str(workers),
        ]
    )
    cells = [(eps, eta) for eps in epsilons for eta in ETAS]
    # the seed picks which cell is re-run alone and checked in full
    eps, eta = cells[int(seed) % len(cells)]
    cfg = dict(base, epsilon=eps, eta=eta)
    path = j("cell.yaml")
    write_yaml(path, cfg)
    cell = Run(f"cell eps={eps} eta={eta}", cfg, j("cell.csv"), j("cell.jsonl"), "crossing")
    plan.runs.append(cell)
    plan.sweep = {
        "csv": grid_csv,
        "cells": cells,
        "base": base,
        "rerun_index": int(seed) % len(cells),
        "rerun": ["run", "--config", path, "--scene", scene, "--out", cell.csv, "--trace", cell.trace],
    }
    return plan


def _crowd(seed, j, tiny):
    agents, frames = (8, 120) if tiny else (CROWD_AGENTS, CROWD_FRAMES)
    lines, expected = crowd.generate(
        seed, agents=agents, width=CROWD_ARENA[0], height=CROWD_ARENA[1], frames=frames
    )
    if crowd.max_present(expected) >= 64:
        raise ValueError("crowd puts 64 or more pedestrians in one frame")
    ann = j("crowd.txt")
    with open(ann, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    tasks = CROWD_TASKS[:1] if tiny else CROWD_TASKS
    base = dict(CROWD, seed=int(seed))
    if tiny:
        base["max_frames"] = 96
    plan = Plan(
        "crowd", [], ["validate-annotations", "--annotations", ann],
        ["--annotations", ann], "", crowd_expected=expected,
    )
    for k, (start, goal) in enumerate(tasks):
        cfg = dict(base, start=list(start), goal=list(goal))
        path = j(f"task{k}.yaml")
        write_yaml(path, cfg)
        if k == 0:
            plan.probe_config = path
        run = Run(f"task{k}", cfg, j(f"task{k}.csv"), j(f"task{k}.jsonl"), "crowd")
        plan.runs.append(run)
        plan.ops.append(
            ["run", "--config", path, "--annotations", ann, "--out", run.csv, "--trace", run.trace]
        )
    return plan
