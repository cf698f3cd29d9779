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
STABILIZER_ARRAYS = ("tests/test_stabilizer_arrays.py",)

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
        "    if cheap is not None:\n        buf[end:k] = buf[-1] = 0.0\n",
        "    if cheap is not None:\n        raise cheap\n",
        ("tests/test_stacked_settings.py", "tests/test_strategy.py"), 10,
    ),
    # the one buffer of a dense strategy: the partial transposes' rows of
    # its spectrum, the Hermitian row of its residual pass, and Omega's
    # upper spectral bound
    Mutant(
        "fused-pt-rows", "strategy.py",
        "vals[k:-1, 0]", "vals[: len(local), 0]",
        ("tests/test_stacked_settings.py", "tests/test_strategy.py"), 8,
    ),
    Mutant(
        "fused-residual-rows", "qcore.py",
        "zip(finite, residuals[0])", "zip(finite, residuals[-1])",
        ("tests/test_stacked_settings.py",), 1,
    ),
    Mutant(
        "omega-upper-bound", "strategy.py",
        "if vals[0] < -TOL_DERIVED or vals[-1] > 1.0 + TOL_DERIVED:",
        "if vals[0] < -TOL_DERIVED:",
        ("tests/test_stacked_settings.py", "tests/test_strategy.py"), 1,
    ),
    # lines that each had one test written for them
    Mutant(
        "operator-empty-stack", "strategy.py",
        "    if not k:\n        return None", "    if k < 0:\n        return None",
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
    # the process entry: a lost stdout flush drops a short output, and a
    # closed pipe reads as success
    Mutant(
        "entry-unflushed-stdout", "cli.py",
        "for stream in (sys.stdout, sys.stderr):", "for stream in (sys.stderr,):",
        ("tests/test_cli.py", "-k", "process_entry"), 2,
    ),
    # a long output's write into a closed pipe is no internal error
    Mutant(
        "stdout-closed-write", "cli.py",
        "    except BrokenPipeError:\n        return _stdout_closed()",
        "    except BrokenPipeError:\n        raise",
        ("tests/test_cli.py", "-k", "closed_pipe"), 2,
    ),
    # the transcript formatter: its lines must stay json.dumps of the records
    Mutant(
        "transcript-label-separator", "cli.py",
        'drawn = ", ".join(', 'drawn = ",".join(',
        ("tests/test_cli.py", "-k", "transcript"), 5,
    ),
    Mutant(
        "transcript-rejected-accepted", "cli.py",
        '{"true" if entry["accepted"] else "false"}', '{"true" if entry["accepted"] else "true"}',
        ("tests/test_cli.py", "-k", "transcript"), 9,
    ),
    # an odd first chunk starts the next chunk at an odd copy, where the
    # counter c // 2 resumes one copy's draws early
    Mutant(
        "first-chunk-odd", "protocol.py",
        "_FIRST_CHUNK = 32  #", "_FIRST_CHUNK = 31  #",
        PROTOCOL, 11,
    ),
    # the certificate's crossing rows come from the equalizing ridge: each
    # column's guess must be checked, below it at g - 1 and at g itself
    Mutant(
        "ridge-guess-unchecked", "adversary.py",
        "kept = ((g == hi) | pred(g)) & ((g == 0) | ~pred(g - 1))", "kept = g == g",
        ("tests/test_adversary.py", "-k", "first_true or grid_min"), 7,
    ),
    Mutant(
        "ridge-guess-check-at-guess", "adversary.py",
        "((g == 0) | ~pred(g - 1))", "((g == 0) | ~pred(g))",
        ("tests/test_adversary.py", "-k", "first_true or grid_min"), 4,
    ),
    # the worst orthogonal state's tie rule: the lowest index whose Pi_bb is
    # within TOL_DERIVED of the largest, not the eigensolver's last bits
    Mutant(
        "worst-case-tie-rule", "adversary.py",
        "b = int(np.argmax(weights >= weights.max() - TOL_DERIVED))",
        "b = int(np.argmax(weights))",
        ("tests/test_adversary.py", "-k", "worst_state"), 19,
    ),
    # the game value by the paper's identity, 1 - eps (1 - q)
    Mutant(
        "game-value-identity", "adversary.py",
        "value = accept = 1.0 - strategy.metrics.delta_eps(epsilon)",
        "value = accept = 1.0 - strategy.metrics.delta_eps(epsilon) / 2.0",
        ("tests/test_adversary.py", "-k", "game_value"), 18,
    ),
    # an array of reals holds only real cells: no bool, as a real number is
    # none, and no numeric str
    Mutant(
        "reals-bool", "qcore.py",
        '                raise TypeError("no array of reals")\n',
        "                pass\n",
        ("tests/test_qcore.py",), 14,
    ),
    # the stabilizer layer's array passes: the row pivot's tie window, the
    # label letters and sign, and the local-Clifford frame of the pass
    # probabilities (its target image b0, its H qubits Q, Gamma's diagonal)
    Mutant(
        "row-pivot-window", "stabilizer.py",
        "mags.max(axis=1)[:, None] - TOL_INPUT", "mags.max(axis=1)[:, None] + TOL_INPUT",
        STABILIZER_ARRAYS, 43,
    ),
    Mutant(
        "label-letters", "stabilizer.py",
        '_LETTERS = "IXZY"', '_LETTERS = "IXYZ"',
        STABILIZER_ARRAYS, 29,
    ),
    Mutant(
        "label-sign-mod-2", "stabilizer.py",
        "phases != _popcount(xs & zs) % 4", "phases != _popcount(xs & zs) % 2",
        STABILIZER_ARRAYS, 22,
    ),
    Mutant(
        "frame-b0-off-by-one-bit", "stabilizer.py",
        "[0]).argmax())", "[0]).argmax()) ^ 1",
        STABILIZER_ARRAYS, 64,
    ),
    Mutant(
        "frame-q-from-p", "stabilizer.py",
        "q_mask = sum(1 << bit for bit in _gauss_jordan((z & ~p_mask, 0) for z in z_only)[0])",
        "q_mask = p_mask",
        STABILIZER_ARRAYS, 44,
    ),
    Mutant(
        "frame-gamma-diagonal-dropped", "stabilizer.py",
        "diagonal = sum(z & 1 << bit for bit, z in gamma.items())", "diagonal = 0",
        STABILIZER_ARRAYS, 44,
    ),
    # the full and generator stabilizer q, read from the pass counts
    Mutant(
        "stabilizer-q", "stabilizer.py",
        "StrategyMetrics(int(counts[1:].max()) / k, ",
        "StrategyMetrics(int(counts[1:].max()) / k + 1e-9, ",
        ("tests/test_pauli_strategy.py", "tests/test_stabilizer.py"), 202,
    ),
    # closed forms: the Wilson interval's centre, the two-qubit q and the Bell q
    Mutant(
        "wilson-centre", "protocol.py",
        "center = (p_hat + z * z / (2.0 * trials)) / denom",
        "center = (p_hat + z * z / trials) / denom",
        PROTOCOL + ("tests/test_golden_cli.py",), 10,
    ),
    Mutant(
        "two-qubit-q", "samplecount.py",
        "return (2 * d + n) / (4 * d + n), ", "return (2 * d + n) / (4 * d + n) + 1e-9, ",
        ("tests/test_closed_forms.py", "tests/test_cli.py", "tests/test_golden_cli.py",
         "tests/test_strategy.py", "tests/test_samplecount.py"), 23,
    ),
    Mutant(
        "bell-q", "samplecount.py",
        "q, trace = 1.0 / 3.0, 2.0", "q, trace = 1.0 / 3.0 + 1e-9, 2.0",
        ("tests/test_closed_forms.py", "tests/test_cli.py", "tests/test_golden_cli.py",
         "tests/test_strategy.py"), 9,
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
