"""Child processes of the benchmark: one at a time, each with a pinned environment."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 120

# Speed references. Timed operations are paired with reference operations
# that run no qverify code, measured next to them on the same machine: a
# fresh `python -c "import numpy"` before each process-level timing (CLI
# call, set-up), and a numpy + Python loop (worker.warm_reference_s)
# between the segments of each warm operation. Timings are scaled by
# nominal / reference, which cancels the drift in machine speed that a
# shared host shows from one minute to the next. The nominal values are
# typical reference times on the 2-core machine the baseline was taken
# on, so scaled figures read as seconds there.
COLD_REF_NOMINAL_S = 0.18
WARM_REF_NOMINAL_S = 0.008


def child_env() -> dict:
    env = dict(os.environ)
    env["QVERIFY_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    # every process compiles qverify from source the same way, and nothing
    # is written into the checkout's src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_python(argv: list[str]) -> subprocess.CompletedProcess:
    """Run `python <argv>` from the checkout root and wait for it to end."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )



def cold_reference_s() -> float:
    """Wall seconds of a fresh `python -c "import numpy"`."""
    start = time.perf_counter()
    done = run_python(["-c", "import numpy"])
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"import numpy failed: {done.stderr.decode()[-400:]}")
    return elapsed
