"""Command-line front end: runs, sweeps, annotation checks, scene stamps.

Configs are flat YAML mappings whose keys mirror SimConfig field names
one-to-one, plus the task keys (start, start_velocity, goal, goal_radius,
attract_gain) and the predictor keys (predictor, predictor_value_bound,
predictor_dynamics_bound).  This module only parses them and routes each
key to the type that owns it, SimConfig, RobotTask or PredictorKind, whose
check refuses a bad value by the key's name.  A sweep's --grid values
override the file's cell by cell.  Configs, scene specs and grid values
are the only YAML the package reads, all here and with one loader.  Metric
tables are CSV with a fixed header and repr-formatted floats, so an
identical invocation produces a byte-identical file; a sweep cell that
failed fills its row with "failed" and says why on stderr.
validate-annotations also records the table it checked beside the file,
which later loads of the unchanged file read in place of parsing it
(scenario.record_table).

Exit codes: 0 success, 2 configuration, 3 data (a malformed or unreadable
file, or a scene that puts an agent on the ego, where the barrier is
undefined), 4 infeasible run.
"""

import argparse
import json
import math
import re
import sys
from dataclasses import fields

import yaml

from conformal_cbf.engine import RobotState, RobotTask, SimConfig, run, sweep
from conformal_cbf.errors import (
    InfeasibleError,
    InputError,
    ParseError,
    SingularityError,
    integer,
    point,
    scalar,
)
from conformal_cbf.predictor import CONSTANT_VELOCITY, PredictorKind
from conformal_cbf.scenario import load_annotations, record_table, synth_scene

CSV_HEADER = "epsilon,eta,tau,t_goal,n_collide,d_min,l_avg,inflation_events"

_TASK_KEYS = ("start", "start_velocity", "goal", "goal_radius", "attract_gain")
# sweep flags accept the usual short spellings for the swept quantities
_GRID_ALIASES = {
    "eps": "epsilon",
    "tau": "tau_frames",
    "a": "alpha_slope",
    "lambda": "lambda_initial",
}
# a grid's values must be ints for these fields and become floats for the rest
_INT_FIELDS = {f.name for f in fields(SimConfig) if f.type is int}


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, libyaml's when present, that also reads exponent
    numbers as floats.

    PyYAML's float pattern needs a dot and a signed exponent, so it reads
    1e6, 1.0e6 and 2E-3 as strings; YAML 1.2 reads them as numbers, and
    so does this loader.  yaml's own loaders are left as they are.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def _read_yaml(path, what, error):
    """The YAML document at path, or error naming it as a bad what file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=_Loader)
        except (yaml.YAMLError, ValueError) as exc:
            # ValueError: a value Python refuses, such as an int of 4301
            # digits; PyYAML's message spans lines, which become one
            message = "; ".join(line.strip() for line in str(exc).splitlines())
            raise error(f"bad {what} file {path}: {message}") from None


def _sine_waypoints(x, amp, period, phase, duration):
    # sampled every second; the interpolated polyline keeps segment-to-
    # segment velocity changes small, which a constant-velocity
    # predictor can follow without large window errors
    out = []
    for t in range(int(duration) + 1):
        y = amp * math.sin(2.0 * math.pi * (t + phase) / period)
        out.append([float(t), [float(x), float(y)]])
    return out


def _builtin_scenes() -> dict:
    crossing_duration = 115.0
    return {
        # three pedestrians sweeping across a long slow corridor; the
        # relay keeps at least one of them sensed for hundreds of
        # calibration windows
        "crossing": {
            "scene_name": "crossing",
            "fps": 10.0,
            "duration": crossing_duration,
            "agents": [
                {
                    "id": 1,
                    "label": "Pedestrian",
                    "waypoints": _sine_waypoints(
                        40.0, 35.0, 18.0, 0.0, crossing_duration
                    ),
                },
                {
                    "id": 2,
                    "label": "Pedestrian",
                    "waypoints": _sine_waypoints(
                        90.0, 35.0, 22.0, 5.5, crossing_duration
                    ),
                },
                {
                    "id": 3,
                    "label": "Pedestrian",
                    "waypoints": _sine_waypoints(
                        140.0, 35.0, 20.0, 10.0, crossing_duration
                    ),
                },
            ],
        },
        # one pedestrian parked just off the corridor centerline
        "standing": {
            "scene_name": "standing",
            "fps": 10.0,
            "duration": 40.0,
            "agents": [
                {
                    "id": 1,
                    "label": "Pedestrian",
                    "waypoints": [[0.0, [30.0, 1.5]], [40.0, [30.0, 1.5]]],
                }
            ],
        },
        # standing agents directly ahead of and behind the start, for
        # demonstrating hard infeasibility under a very negative margin
        "flanked": {
            "scene_name": "flanked",
            "fps": 10.0,
            "duration": 10.0,
            "agents": [
                {
                    "id": 1,
                    "label": "Pedestrian",
                    "waypoints": [[0.0, [14.0, 0.0]], [10.0, [14.0, 0.0]]],
                },
                {
                    "id": 2,
                    "label": "Pedestrian",
                    "waypoints": [[0.0, [6.0, 0.0]], [10.0, [6.0, 0.0]]],
                },
            ],
        },
    }


BUILTIN_SCENES = _builtin_scenes()


def read_config_file(path) -> dict:
    doc = _read_yaml(path, "config", InputError)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise InputError(f"config {path} is not a flat key-value mapping")
    return doc


def load_scene_spec(path) -> dict:
    """Read a YAML scene spec; validation happens in synth_scene."""
    spec = _read_yaml(path, "scene spec", ParseError)
    if not isinstance(spec, dict):
        raise ParseError(f"scene spec {path} is not a mapping")
    return spec


def build_setup(doc: dict):
    """Split a flat config mapping into a SimConfig and a RobotTask."""
    sim_names = {f.name for f in fields(SimConfig)} - {"predictor"}
    sim_kwargs: dict = {}
    task_kwargs: dict = {}
    kind = CONSTANT_VELOCITY
    value_bound = 0.0
    dynamics_bound = 0.0
    for key, value in doc.items():
        if key in _TASK_KEYS:
            task_kwargs[key] = value
        elif key == "predictor":
            kind = value
        elif key == "predictor_value_bound":
            value_bound = value
        elif key == "predictor_dynamics_bound":
            dynamics_bound = value
        elif key in sim_names:
            sim_kwargs[key] = value
        else:
            raise InputError(f"unknown config key {key!r}")
    predictor = PredictorKind(kind=kind, value_bound=value_bound, dynamics_bound=dynamics_bound)
    config = SimConfig(predictor=predictor, **sim_kwargs)

    if "goal" not in task_kwargs:
        raise InputError("config must set goal: [x, y]")
    start, velocity, goal = (point(key, task_kwargs.get(key, [0.0, 0.0]))
                             for key in ("start", "start_velocity", "goal"))
    task = RobotTask(
        start=RobotState(position=start, velocity=velocity),
        goal=goal,
        attract_gain=task_kwargs.get("attract_gain", 1.0),
        goal_radius=task_kwargs.get("goal_radius", 2.0),
    )
    return config, task


def load_scene_for(config: SimConfig, args):
    if (args.annotations is None) == (args.scene is None):
        raise InputError("exactly one of --annotations or --scene is required")
    if args.annotations is not None:
        fps = 1.0 / config.dt
        if not math.isfinite(fps):
            raise InputError(f"dt {config.dt!r} is too small: its frame rate 1/dt is not finite")
        # snap to a whole rate, never to 0 frames per second
        whole = round(fps)
        if whole >= 1 and abs(fps - whole) < 1e-6:
            fps = float(whole)
        return load_annotations(args.annotations, fps=fps)
    return synth_scene(load_scene_spec(args.scene))


def parse_grid(grid_args) -> dict:
    grid: dict = {}
    for item in grid_args:
        key, sep, raw = item.partition("=")
        if not sep:
            raise InputError(f"grid {item!r} must look like name=v1,v2,...")
        name = _GRID_ALIASES.get(key.strip(), key.strip())
        if name == "predictor":
            raise InputError("predictor takes no number, so it cannot be swept")
        if name in grid:
            raise InputError(f"duplicate grid key {name!r}")
        tokens = [tok for tok in (s.strip() for s in raw.split(",")) if tok]
        if not tokens:
            raise InputError(f"grid {item!r} has no values")
        grid[name] = [_grid_number(name, item, tok) for tok in tokens]
    if not grid:
        raise InputError("sweep requires at least one --grid")
    return grid


def _grid_number(name, item, token):
    """A token of grid item read as the config file reads a value, as its
    field takes it: an int field's by the integer rule, a float field's
    as a float (an int too large for one is not finite)."""
    try:
        value = yaml.load(token, Loader=_Loader)
    except ValueError as exc:
        # a value Python refuses, such as an int of 4301 digits
        raise InputError(f"grid {item!r}: {exc}") from None
    except yaml.YAMLError:
        value = None
    if type(value) not in (int, float):
        raise InputError(f"grid {item!r} has a non-numeric value")
    if name in _INT_FIELDS:
        return integer(name, value)
    return value if type(value) is float else float(scalar(name, value))


def _num(value) -> str:
    return repr(float(value))


def _metrics_row(epsilon, eta, tau, metrics) -> str:
    t_goal = "unreached" if metrics.t_goal is None else _num(metrics.t_goal)
    return ",".join(
        [
            _num(epsilon),
            _num(eta),
            str(int(tau)),
            t_goal,
            str(metrics.n_collide),
            _num(metrics.d_min),
            _num(metrics.l_avg),
            str(metrics.inflation_events),
        ]
    )


def _failed_row(epsilon, eta, tau) -> str:
    return ",".join(
        [_num(epsilon), _num(eta), str(int(tau))] + ["failed"] * 5
    )


def _write_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def _cmd_run(args) -> int:
    config, task = build_setup(read_config_file(args.config))
    scene = load_scene_for(config, args)
    metrics = run(config, scene, task, trace_path=args.trace)
    _write_csv(
        args.out,
        [_metrics_row(config.epsilon, config.eta, config.tau_frames, metrics)],
    )
    return 0


def _cmd_sweep(args) -> int:
    config, task = build_setup(read_config_file(args.config))
    scene = load_scene_for(config, args)
    grid = parse_grid(args.grid or [])
    rows = sweep(config, grid, scene, task, workers=args.workers)
    lines = []
    for row in rows:
        epsilon = row.params.get("epsilon", config.epsilon)
        eta = row.params.get("eta", config.eta)
        tau = row.params.get("tau_frames", config.tau_frames)
        if row.metrics is None:
            cell = ", ".join(f"{name}={value!r}" for name, value in row.params.items())
            print(f"sweep: cell {cell} failed: {row.error}", file=sys.stderr)
            lines.append(_failed_row(epsilon, eta, tau))
        else:
            lines.append(_metrics_row(epsilon, eta, tau, row.metrics))
    _write_csv(args.out, lines)
    return 0


def _cmd_validate(args) -> int:
    try:
        scene, unrecorded = record_table(args.annotations)
    except ParseError as exc:
        # the message already names the line
        print(f"{args.annotations}: {exc}", file=sys.stderr)
        return 3
    if unrecorded is not None:
        print(f"{args.annotations}: note: no table recorded: {unrecorded}", file=sys.stderr)
    n_frames = scene.n_frames
    print(
        f"{args.annotations}: ok: scene {scene.scene_name!r}, "
        f"{len(scene.labels)} agents, {n_frames} frames in "
        f"[{scene.start_frame}, {scene.end_frame})"
    )
    return 0


def _cmd_make_scene(args) -> int:
    if args.name not in BUILTIN_SCENES:
        known = ", ".join(sorted(BUILTIN_SCENES))
        raise InputError(f"unknown scene {args.name!r}; available: {known}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(BUILTIN_SCENES[args.name], fh, sort_keys=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conformal-cbf",
        description="Safety-filtered navigation runs over recorded or "
        "synthetic pedestrian scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one closed-loop run")
    run_p.add_argument("--config", required=True, help="flat YAML config")
    run_p.add_argument("--annotations", help="tracker annotation file")
    run_p.add_argument("--scene", help="synthetic scene spec (YAML)")
    run_p.add_argument("--out", required=True, help="metrics CSV path")
    run_p.add_argument("--trace", help="optional per-frame JSONL trace path")

    sweep_p = sub.add_parser("sweep", help="run a parameter grid")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--annotations")
    sweep_p.add_argument("--scene")
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument(
        "--grid",
        action="append",
        metavar="NAME=V1,V2,...",
        help="swept values; repeat for a cartesian product",
    )
    sweep_p.add_argument("--workers", type=int, default=1, help="parallel runs (default 1)")

    val_p = sub.add_parser(
        "validate-annotations",
        help="parse-check an annotation file and record its checked table beside it",
    )
    val_p.add_argument("--annotations", required=True)

    mk = sub.add_parser("make-scene", help="write a built-in synthetic scene")
    mk.add_argument("--name", required=True, choices=sorted(BUILTIN_SCENES))
    mk.add_argument("--out", required=True)
    return parser


_DISPATCH = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "validate-annotations": _cmd_validate,
    "make-scene": _cmd_make_scene,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize to the exit contract
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except InfeasibleError as exc:
        print(f"infeasible run: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostics, sort_keys=True), file=sys.stderr)
        return 4
    except ParseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SingularityError as exc:
        print(f"data error: the scene puts an agent on the ego: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
