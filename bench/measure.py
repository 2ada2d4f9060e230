"""Measuring process: drives the program's command line for whole rounds.

    python3 bench/measure.py PLAN.json RESULT.pkl

Run in a fresh interpreter with the program's sources on PYTHONPATH.  The
plan lists one round of command-line invocations; rounds repeat while the
next one is expected to end within the run length, and until at least
``min_frames`` frames were simulated.

Instrumentation is attached from outside, by rebinding names in the
program's modules; no program file is touched.

- Always on: a frame clock (one timestamp per frame, taken where the engine
  asks for the frame's reference velocity) and a wrapper around each
  closed-loop run that records the frame times, the run's busy time, its
  margin trace extremes and the process's peak memory.  Peak memory is
  this process's peak plus, for the sweep, the largest sum of the peaks of
  the workers of one invocation.  Sweep workers are
  forked from this process, inherit both, and leave one record file per
  cell in the plan's cell directory.
- With spans on: timers around calls into each module's public functions
  (sensing, track slicing, prediction, differentiation, row building,
  window scoring, the projection, integration, trace encoding and
  writing, config and scene loading), call and work counters, pickled
  cell payload sizes, and a copy of every projection problem solved in
  the first round, for the solver checks.
"""

import builtins
import json
import os
import pickle
import resource
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

class Recorder:
    """Per-process span totals and per-run records."""

    def __init__(self, cells_dir):
        self.parent = os.getpid()
        self.cells_dir = cells_dir
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self.clock = []
        self.solves = []
        self.capture = False
        self.runs = []
        self._seq = 0

    def begin(self):
        self.clock.clear()
        self.solves = []
        return dict(self.time), dict(self.count)

    def end(self, before, busy, config, metrics):
        t0, c0 = before
        lams = [lam for _, lam in metrics.lambda_trace] if metrics else []
        record = {
            "pid": os.getpid(),
            "busy": busy,
            "frames": len(self.clock),
            "deltas": np.diff(np.array(self.clock)),
            "time": {k: v - t0.get(k, 0.0) for k, v in self.time.items()},
            "count": {k: v - c0.get(k, 0) for k, v in self.count.items()},
            "epsilon": config.epsilon,
            "eta": config.eta,
            "lam_min": min(lams) if lams else None,
            "lam_moves": sum(1 for a, b in zip(lams, lams[1:]) if a != b),
            "solves": self.solves,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        self.solves = []
        if os.getpid() == self.parent:
            self.runs.append(record)
            return
        self._seq += 1
        path = os.path.join(self.cells_dir, f"{os.getpid()}-{self._seq}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(record, fh)

    def timed(self, fn, name):
        tm, ct = self.time, self.count

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tm[name] += perf_counter() - t0
                ct[name] += 1

        return wrapper


def install(rec, spans):
    """Rebind the program's names so that calls go through the recorder."""
    from conformal_cbf import cli, engine, qp
    from conformal_cbf.conformal import ConformalState
    from conformal_cbf.scenario import ScenarioFrameSet

    stamp = rec.clock.append
    real_reference = engine.reference_control

    def reference_control(task, state):
        stamp(perf_counter())
        return real_reference(task, state)

    engine.reference_control = reference_control

    real_run = engine.run

    def run(config, *args, **kwargs):
        before = rec.begin()
        t0 = perf_counter()
        metrics = None
        try:
            metrics = real_run(config, *args, **kwargs)
            return metrics
        finally:
            rec.end(before, perf_counter() - t0, config, metrics)

    engine.run = run
    cli.run = run
    if not spans:
        return

    tm, ct = rec.time, rec.count

    def rebind(owner, name, make):
        """Replace owner.name by make(original); a name the program no
        longer has leaves its layer metrics at zero instead of failing."""
        original = getattr(owner, name, None)
        if original is None:
            print(f"bench: no {owner.__name__}.{name}; its layer timer is off", file=sys.stderr)
            return
        setattr(owner, name, make(original))

    def timer(label):
        return lambda fn: rec.timed(fn, label)

    def counting(label, measure):
        """Timer that also adds measure(args, result) to a counter."""

        def make(fn):
            timed = rec.timed(fn, label)

            def wrapper(*args, **kwargs):
                out = timed(*args, **kwargs)
                for key, n in measure(args, out):
                    ct[key] += n
                return out

            return wrapper

        return make

    def counter(key_of):
        """Untimed counter raised before each call, so calls that raise
        (a projection attempt found infeasible) are counted too."""

        def make(fn):
            def wrapper(*args, **kwargs):
                ct[key_of(args)] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    rebind(engine, "sensed_agents", timer("scenario.sense"))
    rebind(ScenarioFrameSet, "history_of", timer("scenario.track"))
    rebind(ScenarioFrameSet, "future_of", timer("scenario.track"))
    rebind(engine, "differentiate", timer("predictor.differentiate"))
    rebind(engine, "build_conformal_constraint", timer("barrier.rows"))
    rebind(engine, "track_velocity", timer("dynamics.integrate"))
    rebind(engine, "step", timer("dynamics.integrate"))
    rebind(cli, "read_config_file", timer("cli.config"))
    rebind(cli, "build_setup", timer("cli.config"))
    rebind(cli, "load_scene_for", timer("scenario.load"))
    rebind(
        engine, "predict",
        counting("predictor.predict", lambda a, out: [("predictor.agents_predicted", len(out))]),
    )
    # window_loss(cbf, alpha, predicted, actual, ego, lam): agents x samples
    rebind(
        engine, "window_loss",
        counting(
            "conformal.score",
            lambda a, out: [("conformal.agent_samples_scored", len(a[2]) * a[4].n_samples)],
        ),
    )
    # update(self, loss): loss is None for a window that could not be scored
    rebind(
        ConformalState, "update",
        counter(lambda a: "conformal.windows_unscored" if a[1] is None else "conformal.windows_scored"),
    )
    # every attempt of solve_with_relaxation, the infeasible ones included
    rebind(qp, "solve", counter(lambda a: "qp.solve_attempts"))

    def solved(args, out):
        problem, lambda_step = args[0], args[1]
        rows = problem.constraints
        if rec.capture:
            rec.solves.append(
                (
                    problem.reference.copy(),
                    np.array([r.normal for r in rows]).reshape(len(rows), 2),
                    np.array([r.offset for r in rows]),
                    out[0].decision.copy(),
                    out[1],
                    lambda_step,
                )
            )
        return [("qp.rows", len(rows)), ("qp.frames_relaxed", int(out[1] > 0.0))]

    rebind(engine, "solve_with_relaxation", counting("qp.solve", solved))

    class TracedFile:
        def __init__(self, fh):
            self._fh = fh

        def write(self, text):
            t0 = perf_counter()
            n = self._fh.write(text)
            tm["engine.trace"] += perf_counter() - t0
            ct["engine.trace_bytes"] += len(text)
            return n

        def close(self):
            self._fh.close()

    class TracedJson:
        dumps = staticmethod(rec.timed(json.dumps, "engine.trace"))

    # the engine opens only its trace file and encodes only trace rows; the
    # module-level names shadow the builtin open and the json module there
    engine.open = lambda *args, **kwargs: TracedFile(builtins.open(*args, **kwargs))
    engine.json = TracedJson

    def counting_pool(base):
        class CountingPool(base):
            def map(self, fn, payloads, **kwargs):
                payloads = list(payloads)
                for payload in payloads:
                    ct["engine.cell_payload_bytes"] += len(pickle.dumps(payload))
                    ct["engine.cells_sent"] += 1
                return super().map(fn, payloads, **kwargs)

        return CountingPool

    rebind(engine, "ProcessPoolExecutor", counting_pool)


def collect_cells(rec):
    """Move the record files left by sweep workers into rec.runs and
    return the summed peak memory of those workers, in KiB."""
    peak = {}
    for name in sorted(os.listdir(rec.cells_dir)):
        path = os.path.join(rec.cells_dir, name)
        with open(path, "rb") as fh:
            record = pickle.load(fh)
        os.remove(path)
        rec.runs.append(record)
        peak[record["pid"]] = max(peak.get(record["pid"], 0), record["maxrss_kb"])
    return sum(peak.values())


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    result_path = sys.argv[2]
    from conformal_cbf import cli

    root_src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(root_src + os.sep):
        raise SystemExit(f"program imported from {cli.__file__}, not from {root_src}")

    rec = Recorder(plan["cells_dir"])
    install(rec, plan["spans"])

    for argv in plan["warmup"]:
        if cli.main(argv) != 0:
            raise SystemExit(f"warm-up invocation failed: {argv}")
    collect_cells(rec)
    rec.runs.clear()
    base_time, base_count = dict(rec.time), dict(rec.count)

    ops = plan["ops"]
    walls, codes, outputs = [], [], []
    workers_kb = 0  # largest summed worker peak of one invocation
    rounds = 0
    frames = 0
    started = perf_counter()
    while True:
        rec.capture = plan["spans"] and rounds == 0
        outs = []
        for argv in ops:
            out = argv[argv.index("--out") + 1]
            if os.path.exists(out):
                os.remove(out)  # a failed invocation must not leave a stale table behind
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                # an uncaught program error fails the operation, not the run
                traceback.print_exc()
                code = None
            walls.append(perf_counter() - t0)
            codes.append(code)
            workers_kb = max(workers_kb, collect_cells(rec))
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    outs.append(fh.read())
            else:
                outs.append(b"")
        outputs.append(outs)
        rounds += 1
        frames = sum(r["frames"] for r in rec.runs)
        # stop before a round that would end past the run length
        elapsed = perf_counter() - started
        if elapsed * (rounds + 1) / rounds > plan["seconds"] and frames >= plan["min_frames"]:
            break
    rec.capture = False
    parent_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if frames == 0:
        raise SystemExit("bench: the frame clock saw no frame; engine.reference_control is not called per frame")

    parsed = labels = None
    if plan["annotations"]:
        from conformal_cbf.scenario import load_annotations

        scene = load_annotations(plan["annotations"], fps=1.0 / plan["dt"])
        parsed = {f: {a: tuple(p) for a, p in row.items()} for f, row in scene.frames.items()}
        labels = set(scene.labels.values())

    deltas = np.concatenate([r["deltas"] for r in rec.runs])
    solves = [s for r in rec.runs for s in r["solves"]]
    span_time = defaultdict(float)
    span_count = defaultdict(int)
    for k, v in rec.time.items():
        span_time[k] += v - base_time.get(k, 0.0)
    for k, v in rec.count.items():
        span_count[k] += v - base_count.get(k, 0)
    for r in rec.runs:
        if r["pid"] != rec.parent:
            for k, v in r["time"].items():
                span_time[k] += v
            for k, v in r["count"].items():
                span_count[k] += v
    result = {
        "rounds": rounds,
        "walls": walls,
        "codes": codes,
        "outputs_identical": all(o == outputs[0] for o in outputs),
        "frames": frames,
        "deltas": deltas,
        "busy": sum(r["busy"] for r in rec.runs),
        "span_time": dict(span_time),
        "span_count": dict(span_count),
        "rss_mb": (parent_rss_kb + workers_kb) / 1024.0,
        "cells": [
            {k: r[k] for k in ("epsilon", "eta", "lam_min", "lam_moves", "frames")}
            for r in rec.runs[-(len(rec.runs) // rounds):]
        ],
        "solves": solves,
        "parsed": parsed,
        "parsed_labels": labels,
    }
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)


if __name__ == "__main__":
    main()
