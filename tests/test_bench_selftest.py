"""The benchmark's self-test passes on this checkout.

bench/selftest.py runs each workload once at a tiny size on the program's
real outputs and requires the benchmark's independent checks to pass
(among them the recomputation of d_min and n_collide from the trace and
the scene, the dynamics replay, the sweep cell re-run and the solver's
KKT conditions), then requires each check to reject a corrupted copy.  A
program change that breaks one of those checks fails here before it
fails a benchmark run.  The self-test removes its own work directory.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: ok"
