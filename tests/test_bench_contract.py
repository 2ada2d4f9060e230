"""The benchmark's instrumentation still attaches to the program.

bench/measure.py times the program's layers by rebinding names in its
modules, and turns a layer's timer off, with a note on stderr, when a name
is gone.  This runs its install() on a short traced crossing run in a fresh
interpreter, so the rebinding stays out of this process, and checks that
every layer the benchmark reports is still reached and that only the names
known to be gone are noted.  Nothing under bench/ is changed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the layers that must count calls on a traced crossing run
COUNTED = [
    "scenario.sense",
    "predictor.predict",
    "conformal.score",
    "conformal.windows_scored",
    "qp.solve",
    "qp.solve_attempts",
    "dynamics.integrate",
    "engine.trace",
]
# the work counters of that run, read from the arguments and results of
# window_loss, predict and solve_with_relaxation and from margin updates
WORK = {
    "conformal.agent_samples_scored": 70,
    "predictor.agents_predicted": 14,
    "qp.rows": 70,
    "conformal.windows_scored": 11,
    "conformal.windows_unscored": 1,
    "qp.solve_attempts": 60,
}
# names the benchmark rebinds that the program no longer has
GONE = {
    "conformal_cbf.engine.differentiate",
    "conformal_cbf.engine.build_conformal_constraint",
    "ScenarioFrameSet.history_of",
    "ScenarioFrameSet.future_of",
}

SCRIPT = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import measure
from conformal_cbf import cli

tmp = {tmp!r}
rec = measure.Recorder(tmp)
measure.install(rec, True)
scene, config = tmp + "/crossing.yaml", tmp + "/config.yaml"
assert cli.main(["make-scene", "--name", "crossing", "--out", scene]) == 0
with open(config, "w") as fh:
    json.dump({config}, fh)
code = cli.main(["run", "--config", config, "--scene", scene,
                 "--out", tmp + "/m.csv", "--trace", tmp + "/t.jsonl"])
print(json.dumps({{"code": code, "stamps": len(rec.clock), "count": dict(rec.count)}}))
"""


def test_bench_instrumentation_reaches_every_layer(tmp_path):
    from _golden import CROSSING

    config = dict(CROSSING, max_frames=60)
    code = SCRIPT.format(
        bench=str(ROOT / "bench"), src=str(ROOT / "src"), tmp=str(tmp_path), config=config
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    frames = len((tmp_path / "t.jsonl").read_text(encoding="utf-8").splitlines())
    assert frames == 60
    assert result["stamps"] == frames  # one frame-clock stamp per frame
    assert {k: result["count"].get(k, 0) > 0 for k in COUNTED} == dict.fromkeys(COUNTED, True)
    assert {k: result["count"].get(k) for k in WORK} == WORK
    notes = re.findall(r"bench: no (\S+); its layer timer is off", done.stderr)
    assert sorted(notes) == sorted(GONE)
