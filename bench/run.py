"""Closed-loop benchmark of the conformal-cbf command line.

    python3 bench/run.py --workload {crowd,calibration-sweep} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory and nowhere else.  One invocation:

1. writes the workload's inputs from the seed into ``.bench_work/``;
2. runs a first program command in a fresh interpreter (``make-scene`` or
   ``validate-annotations``), which also warms the bytecode cache;
3. times set-up in four more fresh interpreters (bench/probe.py), and in
   four more after step 4;
4. runs whole rounds of the workload's ``run``/``sweep`` invocations in a
   measuring process for at least S seconds (bench/measure.py), with the
   layer timers on when --trace is 1;
5. checks every output against computations made apart from the program
   (bench/checks.py);
6. prints one JSON line: correct, attempted, failed and the metrics, the
   end-to-end set for --trace 0 and the per-layer set for --trace 1.

An operation is one closed-loop run or one sweep cell.  The work
directory is removed at the end.
"""

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import checks
import workloads

# set-up probes, half before and half after the measured rounds: the host's
# speed drifts over seconds, so the probes are spread over the run
PROBES = 8
MIN_FRAMES = 1000
DEADLINE_S = 170  # every child process is stopped by then, so a run ends within 180 s
WORKLOADS = ("crowd", "calibration-sweep")

# per-layer metric -> span timed in measure.py
LAYER_TIMES = {
    "scenario.sense_s": "scenario.sense",
    "scenario.track_s": "scenario.track",
    "predictor.predict_s": "predictor.predict",
    "predictor.differentiate_s": "predictor.differentiate",
    "barrier.rows_s": "barrier.rows",
    "conformal.score_s": "conformal.score",
    "qp.solve_s": "qp.solve",
    "dynamics.integrate_s": "dynamics.integrate",
    "engine.trace_s": "engine.trace",
}
# spans inside a closed-loop run; engine self time is run time minus these
RUN_SPANS = tuple(LAYER_TIMES.values())
LAYER_COUNTS = {
    "scenario.sense_calls": "scenario.sense",
    "scenario.track_calls": "scenario.track",
    "predictor.agents_predicted": "predictor.agents_predicted",
    "barrier.rows_built": "barrier.rows",
    "conformal.windows_scored": "conformal.windows_scored",
    "conformal.windows_unscored": "conformal.windows_unscored",
    "conformal.agent_samples_scored": "conformal.agent_samples_scored",
    "qp.solve_attempts": "qp.solve_attempts",
    "qp.frames_relaxed": "qp.frames_relaxed",
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "conformal_cbf" / "__init__.py").is_file():
        print(f"bench: no program sources under {src}", file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        result = measure(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def program(src):
    """Environment whose Python path starts at the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure(args, src, workdir):
    plan = workloads.build(args.workload, args.seed, str(workdir))
    res, probes = execute(plan, src, workdir, seconds=args.seconds, spans=bool(args.trace))
    problems, attempted, failed = verify(plan, res)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(plan, res, probes)
    else:
        metrics = end_to_end(plan, res, probes)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def execute(plan, src, workdir, *, seconds, spans, probes=PROBES, min_frames=MIN_FRAMES):
    """Run a plan: first command, set-up probes, measured rounds, and the
    sweep cell re-run.  Returns (measuring-process result, probe results)."""
    bench = Path(__file__).resolve().parent
    env = program(src)
    deadline = time.monotonic() + DEADLINE_S

    def child(argv, check=False, capture=False):
        """Run a child in its own process group; past the deadline the
        whole group (sweep workers included) is killed and reaped."""
        pipe = subprocess.PIPE if capture else subprocess.DEVNULL
        with subprocess.Popen(
            argv, env=env, stdout=pipe, text=True, start_new_session=True
        ) as proc:
            try:
                out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        if check and proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        return proc.returncode, out

    cli = [sys.executable, "-m", "conformal_cbf.cli"]
    child(cli + plan.prepare, check=True)

    samples = []

    def probe_setup(n):
        for _ in range(n):
            _, out = child(
                [sys.executable, str(bench / "probe.py"), "--config", plan.probe_config, *plan.probe],
                check=True, capture=True,
            )
            p = json.loads(out.strip().splitlines()[-1])
            if not os.path.realpath(p["module"]).startswith(os.path.realpath(src) + os.sep):
                raise SystemExit(f"bench: program imported from {p['module']}")
            samples.append(p)

    probe_setup(probes // 2)

    cells_dir = Path(workdir) / "cells"
    cells_dir.mkdir()
    measure_plan = {
        "ops": plan.ops,
        "warmup": _warmup_ops(plan, workdir),
        "seconds": seconds,
        "min_frames": min_frames,
        "spans": spans,
        "cells_dir": str(cells_dir),
        "src": str(src),
        "annotations": plan.probe[1] if plan.probe[0] == "--annotations" else None,
        "dt": plan.runs[0].config["dt"],
    }
    plan_path = Path(workdir) / "plan.json"
    plan_path.write_text(json.dumps(measure_plan), encoding="utf-8")
    result_path = Path(workdir) / "result.pkl"
    child([sys.executable, str(bench / "measure.py"), str(plan_path), str(result_path)], check=True)
    with open(result_path, "rb") as fh:
        res = pickle.load(fh)
    probe_setup(probes - probes // 2)
    if plan.sweep is not None:
        res["rerun_code"], _ = child(cli + plan.sweep["rerun"])
    return res, samples


def _warmup_ops(plan, workdir):
    """One short untimed run through the measuring process's code paths."""
    op = list(plan.ops[0])
    if op[0] == "sweep":
        op = list(plan.sweep["rerun"])
    cfg_path = op[op.index("--config") + 1]
    with open(cfg_path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg["max_frames"] = 4 * cfg["tau_frames"]
    warm_cfg = os.path.join(workdir, "warmup.yaml")
    workloads.write_yaml(warm_cfg, cfg)
    op[op.index("--config") + 1] = warm_cfg
    op[op.index("--out") + 1] = os.path.join(workdir, "warmup.csv")
    op[op.index("--trace") + 1] = os.path.join(workdir, "warmup.jsonl")
    return [op]


def verify(plan, res):
    """(problems, operations attempted, operations failed).

    An operation that failed (a run whose invocation exited non-zero, a
    sweep cell whose row reads failed, or every cell of a sweep that exited
    non-zero) is counted in failed and its outputs are not checked.  Every
    other output must pass every check.
    """
    problems = []
    rounds = res["rounds"]
    last = res["codes"][-len(plan.ops):]
    if not res["outputs_identical"]:
        problems.append("determinism: metrics files differ between rounds")
    scene = _scene(plan)

    if plan.sweep is None:
        attempted = rounds * len(plan.ops)
        failed = sum(1 for c in res["codes"] if c != 0)
        problems += _check_runs(plan, scene, [r for r, c in zip(plan.runs, last) if c == 0])
    else:
        sw = plan.sweep
        n = len(sw["cells"])
        attempted = rounds * n
        failed = n * sum(1 for c in res["codes"] if c != 0)
        if last[0] == 0:
            found, rows = checks.check_sweep(sw["csv"], sw["cells"], sw["base"]["tau_frames"])
            problems += found
            if not found:
                failed += sum(1 for r in rows if r is None) * (rounds - failed // n)
                problems += _check_rerun(plan, res, rows)
                if not plan.tiny:
                    problems += _sweep_epsilon(plan, res, rows)

    if plan.crowd_expected is not None:
        problems += _parsed_scene(plan, res)

    count = res["span_count"]
    if "qp.solve" in count:
        # a relaxed frame fails its first attempt and succeeds on a later one
        need = count["qp.solve"] + count.get("qp.frames_relaxed", 0)
        if count.get("qp.solve_attempts", 0) < need:
            problems.append(
                f"attempts: {count.get('qp.solve_attempts', 0)} projection attempts for "
                f"{count['qp.solve']} frames solved, {count.get('qp.frames_relaxed', 0)} of them relaxed"
            )

    for k, s in enumerate(res["solves"]):
        problems += checks.check_projection(*s, f"captured solve {k}")[:1]
        if len(problems) > 50:
            break
    return problems, attempted, failed


def _check_runs(plan, scene, runs):
    problems = []
    for run in runs:
        if not (os.path.exists(run.csv) and os.path.exists(run.trace)):
            problems.append(f"csv: {run.name}: metrics table or trace missing")
            continue
        header, rows = checks.read_csv(run.csv)
        if header != checks.CSV_HEADER or len(rows) != 1:
            problems.append(f"csv: {run.name}: expected the header and one row")
            continue
        problems += checks.check_run(
            run.name, run.config, scene, checks.read_trace(run.trace), checks.parse_row(rows[0]),
            speed_limit=workloads.SPEED_LIMIT[run.scene],
            extent_slack=workloads.EXTENT_SLACK,
        )
    return problems


def _check_rerun(plan, res, rows):
    """The re-run cell must reproduce its sweep row byte for byte and pass
    the per-run checks."""
    sw = plan.sweep
    i = sw["rerun_index"]
    if rows[i] is None:
        return []
    if res["rerun_code"] != 0:
        return [f"sweep: cell {sw['cells'][i]} fails when re-run alone"]
    _, grid_rows = checks.read_csv(sw["csv"])
    _, cell_rows = checks.read_csv(plan.runs[0].csv)
    out = []
    if cell_rows != [grid_rows[i]]:
        out.append(f"sweep: cell {sw['cells'][i]} re-run alone gives {cell_rows}, sweep row {grid_rows[i]!r}")
    return out + _check_runs(plan, _scene(plan), plan.runs)


def _sweep_epsilon(plan, res, rows):
    """Acceptance properties 07/08 for each eta of the sweep.  The number
    of windows whose margin moved bounds the scored windows from below."""
    base = plan.sweep["base"]
    by_cell = {(c["epsilon"], c["eta"]): c for c in res["cells"]}
    out = []
    for eta in sorted({eta for _, eta in plan.sweep["cells"]}):
        records = []
        for (eps, e), row in zip(plan.sweep["cells"], rows):
            if e != eta:
                continue
            cell = by_cell.get((eps, eta))
            if cell is None:
                out.append(f"sweep: no run record for cell eps={eps} eta={eta}")
                continue
            records.append(
                dict(row, windows=cell["lam_moves"], lam_min=cell["lam_min"])
            )
        if records:
            out += checks.epsilon_properties(
                f"sweep eta={eta}", records, eta, base["lambda_initial"],
                min_windows=200,
            )
    return out


def _parsed_scene(plan, res):
    expected = plan.crowd_expected
    parsed = res.get("parsed")
    if parsed is None:
        return ["scene: the parsed crowd was not recorded"]
    out = []
    if set(parsed) != set(expected):
        out.append("scene: parsed frames differ from the generated pedestrian frames")
    for f in sorted(set(parsed) & set(expected)):
        if parsed[f] != expected[f]:
            out.append(f"scene: frame {f} parses to other pedestrians or positions than generated")
            break
    if res.get("parsed_labels") != {"Pedestrian"}:
        out.append(f"scene: parsed labels {res.get('parsed_labels')}")
    if parsed and max(len(r) for r in parsed.values()) >= 64:
        out.append("scene: 64 or more pedestrians in one frame")
    return out


def _scene(plan):
    if plan.crowd_expected is not None:
        return checks.Scene.from_frames(workloads.crowd.FPS, plan.crowd_expected)
    spec_path = plan.probe[1]
    with open(spec_path, encoding="utf-8") as fh:
        return checks.Scene.from_spec(yaml.safe_load(fh))


def _ops_per_round(plan):
    return len(plan.sweep["cells"]) if plan.sweep is not None else len(plan.ops)


def end_to_end(plan, res, probes):
    wall = sum(res["walls"])
    deltas = res["deltas"]
    setup = [p["import_s"] + p["config_s"] + p["load_s"] for p in probes]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "frames_per_s": (res["frames"] / wall, "1/s"),
        "frame_p50_ms": (float(np.percentile(deltas, 50)) * 1e3, "ms"),
        "frame_p99_ms": (float(np.percentile(deltas, 99)) * 1e3, "ms"),
        "cells_per_s": (res["rounds"] * _ops_per_round(plan) / wall, "1/s"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }


def layer_metrics(plan, res, probes):
    """Per-layer figures: times and counts per round, set-up parts per probe."""
    rounds = res["rounds"]
    time, count = res["span_time"], res["span_count"]
    wall = sum(res["walls"])
    parallel = plan.workers if plan.sweep is not None else 1
    frames_solved = max(count.get("qp.solve", 0), 1)
    inner = sum(time.get(n, 0.0) for n in RUN_SPANS)
    accounted = res["busy"] + time.get("cli.config", 0.0) + time.get("scenario.load", 0.0)
    out = {
        "cli.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "cli.config_s": (statistics.median(p["config_s"] for p in probes), "s"),
        "scenario.load_s": (statistics.median(p["load_s"] for p in probes), "s"),
    }
    for metric, span in LAYER_TIMES.items():
        out[metric] = (time.get(span, 0.0) / rounds, "s")
    for metric, counter in LAYER_COUNTS.items():
        out[metric] = (count.get(counter, 0) / rounds, "count")
    out.update(
        {
            "qp.attempts_per_frame": (count.get("qp.solve_attempts", 0) / frames_solved, "count/frame"),
            "qp.rows_per_frame": (count.get("qp.rows", 0) / frames_solved, "count/frame"),
            "engine.trace_bytes": (count.get("engine.trace_bytes", 0) / rounds, "B"),
            "engine.self_s": ((res["busy"] - inner) / rounds, "s"),
            "engine.cell_payload_bytes": (
                count.get("engine.cell_payload_bytes", 0) / max(count.get("engine.cells_sent", 0), 1),
                "B",
            ),
            "engine.pool_efficiency": (res["busy"] / (parallel * wall), "ratio"),
            "trace.frames_per_s": (res["frames"] / wall, "1/s"),
            "trace.accounted_share": (accounted / (parallel * wall), "ratio"),
        }
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
