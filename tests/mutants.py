"""Mutation checks: each mutant breaks one piece of the library in a copy
of the tree, and the tests selected for it must catch it.

    python tests/mutants.py    # every mutant, two at a time

A mutant is data: a file under src/qverify, the exact old text (which
must occur there exactly once), the new text, a pytest selection and the
fewest failures that selection must show. For each mutant the script
copies src/, tests/ and pyproject.toml to a temporary directory, applies
the mutant there and runs pytest on the copy; the checkout is never
edited. A mutant whose old text is missing is stale: when its code
changes, re-aim or drop it. A mutant whose selection fails fewer tests
than its minimum survived. A mutant whose selection errors (a collection
or setup error, such as new text that does not import) is broken: an
error shows no test catching the change. Each of these verdicts makes
the exit status 1. To try one mutant while re-aiming it, comment out
the others.

pytest collects test_*.py files only, so it never runs this script.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # mutants run at once, one pytest process each


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/qverify
    old: str
    new: str
    selection: tuple[str, ...]  # pytest arguments, relative to the tree's root
    min_failures: int


PROTOCOL = ("tests/test_protocol.py",)

MUTANTS = [
    # the sampler's guide-table pick (protocol._picker); random draws never
    # equal a cumulative weight, so only the pick test's probes bite
    Mutant(
        "pick-lookahead-compare", "protocol.py",
        "picks += u >= cumulative.take(picks)", "picks += u > cumulative.take(picks)",
        ("tests/test_protocol.py::test_guide_table_pick_matches_searchsorted",), 45,
    ),
    Mutant(
        "pick-table-floor", "protocol.py",
        "edges = np.ceil(scaled)", "edges = np.floor(scaled)",
        PROTOCOL, 62,
    ),
    Mutant(
        "pick-lift-index", "protocol.py",
        "np.minimum(picks + step - 1, last)", "np.minimum(picks + step, last)",
        PROTOCOL, 37,
    ),
    Mutant(
        "pick-one-lift-fewer", "protocol.py",
        "range(lookahead.bit_length() - 1, 0, -1)", "range(lookahead.bit_length() - 2, 0, -1)",
        PROTOCOL, 38,
    ),
    # exact copy counts: the tie at (1 - delta_eps)**n == delta, and the
    # float quotient's error bound
    Mutant(
        "count-tie-strict", "samplecount.py",
        "x << max(s, 0) <= c << max(-s, 0)", "x << max(s, 0) < c << max(-s, 0)",
        ("tests/test_samplecount.py", "tests/test_cli.py", "tests/test_golden_cli.py"), 3,
    ),
    Mutant(
        "count-error-bound", "samplecount.py",
        "math.ceil(quotient * (1.0 - 2.0**-47)), math.ceil(quotient * (1.0 + 2.0**-47))",
        "math.ceil(quotient * (1.0 - 2.0**-60)), math.ceil(quotient * (1.0 + 2.0**-60))",
        ("tests/test_samplecount.py", "tests/test_cli.py", "tests/test_golden_cli.py"), 4,
    ),
    # a setting's checks run in order: the walk's failure must wait for
    # the eigen checks of the settings before it
    Mutant(
        "settings-walk-first", "strategy.py",
        "    if end:\n        head = stack[:end]",
        "    if cheap is not None:\n        raise cheap\n    if end:\n        head = stack[:end]",
        ("tests/test_stacked_settings.py", "tests/test_strategy.py"), 10,
    ),
    # lines that each had one test written for them
    Mutant(
        "operator-empty-stack", "qcore.py",
        "    if not k:\n        return []", "    if k < 0:\n        return []",
        ("tests/test_strategy.py::test_from_json_rejects_a_document_without_settings",), 1,
    ),
    Mutant(
        "figure-hull-points", "cli.py",
        "rows = adversary.hull_boundary(theta)\n", "rows = adversary.hull_boundary(theta, 100)\n",
        ("tests/test_cli.py", "-k", "test_figure_passes_library_rows_unconverted"), 1,
    ),
    # the one state reader, qcore._state
    Mutant(
        "state-dimension", "qcore.py",
        "value.dim != dim:", "value.dim != value.dim:",
        PROTOCOL + ("tests/test_error_contract.py",), 6,
    ),
    Mutant(
        "state-eigenvalue-bound", "qcore.py",
        "if low < -TOL_DERIVED:", "if low < -1.0:",
        PROTOCOL, 5,
    ),
    Mutant(
        "state-verdict-uncached", "qcore.py",
        "    @cached_property\n    def _density_defect", "    @property\n    def _density_defect",
        ("tests/test_protocol.py::"
         "test_a_checked_state_is_eigen_solved_once_however_often_it_is_read",), 1,
    ),
]

_FAILED = re.compile(r"(\d+) failed\b")
_ERRORS = re.compile(r"\d+ errors?\b")


def run(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail) of one mutant: killed, survived, broken or stale."""
    with tempfile.TemporaryDirectory(prefix="qverify-mutant-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        source = tree / "src" / "qverify" / mutant.path
        text = source.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"old text occurs {text.count(mutant.old)} times in {mutant.path}"
        source.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no",
             f"--maxfail={mutant.min_failures}", *mutant.selection],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr
    if proc.returncode not in (0, 1, 4, 5) or _ERRORS.search(summary):
        return "broken", f"pytest exit status {proc.returncode}: {summary}"
    if proc.returncode in (4, 5):  # usage error or no test collected
        return "stale", f"selection {' '.join(mutant.selection)} collects no test"
    failures = sum(int(n) for n in _FAILED.findall(summary))
    if failures < mutant.min_failures:
        return "survived", f"{failures} of at least {mutant.min_failures} failures: {summary}"
    return "killed", summary


def main() -> int:
    start = time.perf_counter()
    with ThreadPoolExecutor(JOBS) as pool:
        verdicts = list(pool.map(run, MUTANTS))
    bad = 0
    for mutant, (verdict, detail) in zip(MUTANTS, verdicts):
        bad += verdict != "killed"
        print(f"{verdict:8} {mutant.name}: {detail}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
