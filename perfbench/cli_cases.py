"""The cli-cold invocation list and the checks on each call's output.

Every random input (angles, simulate seeds) comes from the workload seed.
Output files go under a directory relative to the checkout root, so the
metadata header that echoes the command line, and with it the output
bytes, do not depend on where the checkout lives.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from measure import Checks, binomial_plausible, exact_count, full_q, two_qubit_q
from procs import ROOT, run_python

OUT_DIR = ".perfbench_out/cli"
SIM_TRIALS = 3000
HONEST_TRIALS = 2000


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    files: tuple[str, ...]
    check: Callable[[str, dict[str, bytes]], dict[str, bool]]


def seeded_angle(rng: random.Random) -> float:
    """An angle in (0, pi/2) at least 0.05 from the special values 0, pi/4, pi/2."""
    while True:
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        if abs(theta - math.pi / 4) >= 0.05:
            return round(theta, 6)


def _header_and_body(text: str) -> tuple[dict[str, str], list[str]]:
    header, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        else:
            body.append(line)
    return header, body


def _record(text: str) -> dict[str, str]:
    """key,value body of a record-style CSV output."""
    _, body = _header_and_body(text)
    return dict(row for row in csv.reader(body[1:]))


def _close(value: str, expected: float, tol: float) -> bool:
    return abs(float(value) - expected) <= tol


def cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    theta_a = seeded_angle(rng)
    theta_b = seeded_angle(rng)
    sim_seed = rng.randrange(1, 2**31)
    honest_seed = rng.randrange(1, 2**31)
    fig2_path = f"{OUT_DIR}/fig2.csv"
    transcript_path = f"{OUT_DIR}/transcript.jsonl"
    q_pi8 = two_qubit_q(math.pi / 8)

    def strategy_bell(out, files):
        header, _ = _header_and_body(out)
        return {"q_one_third": _close(header["q"], 1.0 / 3.0, 1e-10), "settings": header["settings"] == "3"}

    def strategy_two_qubit(out, files):
        doc = json.loads(out)
        result = doc["result"]
        return {
            "q_closed_form": abs(result["q"] - two_qubit_q(theta_a)) <= 1e-10,
            "settings": result["settings"] == 4 and len(doc["rows"]) == 4,
        }

    def samplecount_bell(out, files):
        rec = _record(out)
        return {"n_exact_345": rec["n_exact"] == "345", "q_one_third": _close(rec["q"], 1.0 / 3.0, 1e-10)}

    def samplecount_ghz12(out, files):
        rec = _record(out)
        q = full_q(12)
        return {
            "q_full_law": _close(rec["q"], q, 1e-12),
            "n_exact": int(rec["n_exact"]) == exact_count(0.01 * (1.0 - q), 0.1),
        }

    def parity_check(out, files):
        header, body = _header_and_body(out)
        rows = list(csv.reader(body[1:]))
        expected = [
            [str(1 - ((k >> (2 - j)) & 1)) for k in range(8)] for j in range(3)
        ]
        return {
            "table": [r[1:] for r in rows] == expected,
            "special_columns": header.get("special_columns") == "1 2 4",
        }

    def subset(out, files):
        rec = _record(out)
        return {
            "degenerate": rec["degenerate"] == "true",
            "stabilized_dimension": rec["stabilized_dimension"] == "2",
            "fooling_acceptance": float(rec["fooling_acceptance"]) >= 1.0 - 1e-10,
        }

    def figure2(out, files):
        _, body = _header_and_body(files[fig2_path].decode())
        rows = [[float(v) for v in r] for r in csv.reader(body[1:])]
        local = [r[1] for r in rows]
        return {
            "stdout_empty": out == "",
            "rows": len(rows) == 61,
            "n_local_monotone": all(a >= b for a, b in zip(local, local[1:])),
            "local_above_global": all(r[1] >= r[2] for r in rows),
        }

    def figure1(out, files):
        rows = json.loads(out)["rows"]
        by_family = {}
        for row in rows:
            by_family.setdefault(row[4], []).append(row[2])
        return {
            "endpoints_230": rows[0][2] == 230 and rows[-1][2] == 230,
            "bell_345": by_family.get("bell") == [345],
        }

    def landscape(out, files):
        rec = _record(out)
        return {
            "passed": rec["passed"] == "true",
            "q_closed_form": _close(rec["q_closed_form"], two_qubit_q(theta_b), 1e-10),
        }

    def simulate_iid(out, files):
        rec = _record(out)
        lines = files[transcript_path].decode().splitlines()
        records = [json.loads(line) for line in lines]
        accepted = sum(r["accepted"] for r in records)
        predicted = (1.0 - 0.1 * (1.0 - q_pi8)) ** 100
        labels_ok = all(
            len(r["setting_labels_drawn"])
            == (r["n"] if r["accepted"] else r["first_failure_index"] + 1)
            for r in records
        )
        return {
            "transcript_trials": len(records) == SIM_TRIALS,
            "transcript_matches_rate": accepted == round(float(rec["accept_rate"]) * SIM_TRIALS),
            "predicted": _close(rec["predicted_acceptance"], predicted, 1e-12),
            "binomial": binomial_plausible(accepted, SIM_TRIALS, predicted),
            "labels": labels_ok,
        }

    def simulate_honest(out, files):
        rec = _record(out)
        return {
            "accept_rate_one": rec["accept_rate"] == "1.0",
            "predicted_one": rec["predicted_acceptance"] == "1.0",
        }

    return [
        Case("strategy-bell", ("strategy", "--bell"), (), strategy_bell),
        Case(
            "strategy-two-qubit-json",
            ("strategy", "--two-qubit", "--theta", repr(theta_a), "--format", "json"),
            (),
            strategy_two_qubit,
        ),
        Case("samplecount-bell", ("samplecount", "--bell"), (), samplecount_bell),
        Case(
            "samplecount-ghz12",
            ("samplecount", "--stabilizer-full", "--preset", "ghz12"),
            (),
            samplecount_ghz12,
        ),
        Case(
            "stabilizer-parity-check",
            ("stabilizer", "--preset", "ghz3", "--parity-check"),
            (),
            parity_check,
        ),
        Case(
            "stabilizer-subset",
            ("stabilizer", "--preset", "ghz4", "--subset", "1,2,4"),
            (),
            subset,
        ),
        Case(
            "figure-fig2-out",
            ("figure", "--which", "fig2", "--theta", repr(theta_b), "--out", fig2_path),
            (fig2_path,),
            figure2,
        ),
        Case("figure-fig1-json", ("figure", "--which", "fig1", "--format", "json"), (), figure1),
        Case("landscape", ("landscape", "--theta", repr(theta_b)), (), landscape),
        Case(
            "simulate-transcript",
            (
                "simulate", "--two-qubit", "--theta", "pi/8", "--device", "worst-iid",
                "--epsilon", "0.1", "--n", "100", "--trials", str(SIM_TRIALS),
                "--seed", str(sim_seed), "--transcript", transcript_path, "--record-labels",
            ),
            (transcript_path,),
            simulate_iid,
        ),
        Case(
            "simulate-honest",
            (
                "simulate", "--bell", "--device", "honest", "--n", "100",
                "--trials", str(HONEST_TRIALS), "--seed", str(honest_seed),
            ),
            (),
            simulate_honest,
        ),
    ]


def check_output(case: Case, out: str, files: dict[str, bytes]) -> dict[str, bool]:
    """The case's checks; a parse error in the output fails the call."""
    try:
        return case.check(out, files)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return {f"parse_{type(exc).__name__}": False}


def read_outputs(case: Case) -> dict[str, bytes]:
    return {name: (ROOT / name).read_bytes() for name in case.files if (ROOT / name).exists()}


class ColdCli:
    """Fresh `python -m qverify.cli` processes with output and byte checks.

    Repeated identical calls must write identical bytes: stdout and every
    output file are compared with the first call of the same case.
    """

    def __init__(self, seed: int, only: str | None = None) -> None:
        self.cases = [c for c in cases(seed) if only in (None, c.name)]
        self.first_bytes: dict[str, bytes] = {}
        self.call_s: list[float] = []
        self.next = 0
        (ROOT / OUT_DIR).mkdir(parents=True, exist_ok=True)

    def call(self, chk: Checks) -> None:
        """Run the next case of the list, cycling."""
        case = self.cases[self.next % len(self.cases)]
        self.next += 1
        for name in case.files:
            (ROOT / name).unlink(missing_ok=True)
        start = time.perf_counter()
        done = run_python(["-m", "qverify.cli", *case.argv])
        self.call_s.append(time.perf_counter() - start)
        files = read_outputs(case)
        checks = {"exit_code": done.returncode == 0, "files_written": len(files) == len(case.files)}
        if all(checks.values()):
            checks.update(check_output(case, done.stdout.decode(), files))
        written = done.stdout + b"".join(files[name] for name in sorted(files))
        if case.name in self.first_bytes:
            checks["bytes_identical"] = written == self.first_bytes[case.name]
        else:
            self.first_bytes[case.name] = written
        chk.record(f"cli.{case.name}", checks)
