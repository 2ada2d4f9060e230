"""Self-test of the benchmark's output checks at tiny sizes.

    python3 bench/selftest.py

Runs each workload once at a tiny size through the same pipeline as a
benchmark run (first command, measuring process with the layer timers on,
sweep cell re-run), requires every check to pass on the real outputs, then
corrupts copies of those outputs one way at a time and requires the named
check to reject each:

- a trace row whose position moved by half a pixel        -> dynamics
- a metrics row whose l_avg is off by 1e-6 relative        -> windows
- a sweep table with one row dropped                       -> sweep
- an ego launched out of the scene from mid-run on         -> guard
- a captured projection whose decision moved               -> kkt
- fewer projection attempts than frames solved plus relaxed -> attempts
- a parsed crowd with one pedestrian moved                 -> scene
- epsilon records whose collisions fall as epsilon grows   -> epsilon

Exits 0 when every clean output passes and every corruption is caught.
Takes well under a minute.
"""

import copy
import json
import math
import os
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main():
    src = ROOT / "src"
    base = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    failures = []
    try:
        for workload in run.WORKLOADS:
            workdir = base / workload
            plan = workloads.build(workload, 3, str(workdir), tiny=True)
            res, _ = run.execute(plan, src, workdir, seconds=0, spans=True, probes=0, min_frames=0)
            failures += case(f"{workload}: clean outputs", plan, res, None)
            for name, corrupt, expect in corruptions(plan, res):
                failures += case(f"{workload}: {name}", plan, res, (corrupt, expect))
        failures += epsilon_case()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for line in failures:
        print(f"selftest: FAIL {line}")
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def case(label, plan, res, corruption):
    """Verify, optionally after corrupting files or results; restores files."""
    if corruption is None:
        problems, _, failed = run.verify(plan, res)
        print(f"selftest: {label}: {len(problems)} problem(s)")
        return [f"{label}: {p}" for p in problems] + ([f"{label}: {failed} failed"] if failed else [])
    corrupt, expect = corruption
    files = [r.trace for r in plan.runs] + [r.csv for r in plan.runs]
    if plan.sweep is not None:
        files.append(plan.sweep["csv"])
    saved = {f: Path(f).read_bytes() for f in files}
    bad = copy.deepcopy(res)
    try:
        corrupt(bad)
        problems, _, _ = run.verify(plan, bad)
    finally:
        for f, data in saved.items():
            with open(f, "wb") as fh:
                fh.write(data)
    caught = [p for p in problems if p.startswith(expect + ":")]
    print(f"selftest: {label}: {'caught' if caught else 'MISSED'} ({caught[:1] or problems[:1]})")
    return [] if caught else [f"{label}: no {expect} problem among {problems[:3]}"]


def corruptions(plan, res):
    trace = plan.runs[0].trace
    csv = plan.runs[0].csv
    cfg = plan.runs[0].config
    out = [
        ("perturbed trace row", lambda r: _edit_trace(trace, _nudge), "dynamics"),
        ("l_avg off by 1e-6 relative", lambda r: _edit_l_avg(csv), "windows"),
        ("launched ego", lambda r: _edit_trace(trace, lambda rows: _launch(rows, cfg)), "guard"),
    ]
    if res["solves"]:
        out.append(("moved captured decision", _move_decision, "kkt"))
    if "qp.solve" in res["span_count"]:
        out.append(("attempts below frames solved plus relaxed", _drop_attempts, "attempts"))
    if plan.sweep is not None:
        out.append(("dropped sweep row", lambda r: _drop_row(plan.sweep["csv"]), "sweep"))
    if plan.crowd_expected is not None:
        out.append(("moved parsed pedestrian", _move_parsed, "scene"))
    return out


def _edit_trace(path, edit):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    edit(rows)
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")


def _nudge(rows):
    rows[len(rows) // 2]["position"][0] += 0.5


def _launch(rows, cfg):
    """From mid-run on, command 50 000 px/s along x and integrate exactly,
    so the rows stay self-consistent while the ego leaves the scene."""
    dt, k_acc = cfg["dt"], cfg["k_acc"]
    start = len(rows) // 2
    for k in range(start, len(rows)):
        prev = rows[k - 1]
        p, v, c = prev["position"], prev["velocity"], prev["command"]
        acc = [-k_acc * (v[j] - c[j]) for j in range(2)]
        rows[k]["position"] = [p[j] + v[j] * dt + 0.5 * acc[j] * dt * dt for j in range(2)]
        rows[k]["velocity"] = [v[j] + acc[j] * dt for j in range(2)]
        rows[k]["command"] = [5.0e4, 0.0]
        rows[k]["tracking_error"] = math.hypot(
            rows[k]["velocity"][0] - 5.0e4, rows[k]["velocity"][1]
        )


def _edit_l_avg(path):
    header, rows = checks.read_csv(path)
    fields = rows[0].split(",")
    fields[6] = repr(float(fields[6]) * (1.0 + 1e-6))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + ",".join(fields) + "\n")


def _drop_row(path):
    header, rows = checks.read_csv(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + rows[:-1]) + "\n")


def _move_decision(res):
    ref, A, b, u, inflation, step = res["solves"][-1]
    res["solves"][-1] = (ref, A, b, u + 0.25 * (u - ref) + 0.01, inflation, step)


def _drop_attempts(res):
    count = res["span_count"]
    count["qp.solve_attempts"] = count["qp.solve"] + count.get("qp.frames_relaxed", 0) - 1


def _move_parsed(res):
    frame = sorted(res["parsed"])[len(res["parsed"]) // 2]
    agent = sorted(res["parsed"][frame])[0]
    x, y = res["parsed"][frame][agent]
    res["parsed"][frame][agent] = (x + 0.5, y)


def epsilon_case():
    records = [
        {"epsilon": e, "l_avg": e, "n_collide": n, "d_min": d, "windows": 230, "lam_min": -1.0}
        for e, n, d in ((-0.4, 5, 30.0), (0.0, 3, 25.0), (0.4, 9, 12.0))
    ]
    problems = checks.epsilon_properties("synthetic", records, 0.5, 0.0, min_windows=200)
    caught = any(p.startswith("epsilon:") for p in problems)
    print(f"selftest: epsilon records with falling collisions: {'caught' if caught else 'MISSED'}")
    return [] if caught else ["epsilon: falling collisions not caught"]


if __name__ == "__main__":
    sys.exit(main())
