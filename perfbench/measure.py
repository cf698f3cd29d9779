"""Statistics and output checks shared by the benchmark's processes.

Standard library only: the orchestrator (run.py) never imports numpy or
qverify, so its own memory and start-up stay out of the measurements.
"""

from __future__ import annotations

import math
from collections import Counter

# Per-check false-alarm rate of the Monte Carlo checks. A run makes at
# most a few hundred binomial checks, so 1e-9 per check keeps the chance
# of any false alarm in 100 runs below 1e-4.
MC_ALPHA = 1e-9


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest sample with ten samples beyond it.

    With fewer than eleven samples no such sample exists and the maximum
    is reported, at percentile 100.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no values")
    if len(ordered) < 11:
        return float(ordered[-1]), 100.0
    rank = len(ordered) - 11
    return float(ordered[rank]), 100.0 * (rank + 1) / len(ordered)


def _log_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def binomial_plausible(successes: int, trials: int, p: float, alpha: float = MC_ALPHA) -> bool:
    """Exact two-sided binomial test: False when either tail is below alpha/2."""
    if not 0 <= successes <= trials:
        return False
    lower = math.fsum(math.exp(_log_pmf(i, trials, p)) for i in range(successes + 1))
    upper = math.fsum(
        math.exp(_log_pmf(i, trials, p)) for i in range(successes, trials + 1)
    )
    return min(lower, upper) >= alpha / 2.0


def exact_count(delta_eps: float, delta: float) -> int:
    """Copies rejecting a per-copy gap delta_eps with confidence 1 - delta."""
    return math.ceil(math.log(1.0 / delta) / -math.log1p(-delta_eps))


def two_qubit_q(theta: float) -> float:
    """Closed-form optimum q = (2 + sin 2t)/(4 + sin 2t)."""
    s = math.sin(2.0 * theta)
    return (2.0 + s) / (4.0 + s)


def full_q(num_qubits: int) -> float:
    return (2 ** (num_qubits - 1) - 1) / (2**num_qubits - 1)


def generator_q(num_qubits: int) -> float:
    return 1.0 - 1.0 / num_qubits


class Checks:
    """Operations attempted and failed, with the name of every failed check.

    One operation is one CLI call, one estimate_power block or one analysis
    task; it fails when any of its checks fails.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()

    def record(self, op: str, checks: dict[str, bool]) -> None:
        self.attempted += 1
        bad = [f"{op}.{name}" for name, ok in checks.items() if not ok]
        if bad:
            self.failed += 1
            self.failures.update(bad)

    def merge(self, doc: dict) -> None:
        self.attempted += int(doc["attempted"])
        self.failed += int(doc["failed"])
        self.failures.update(doc["failures"])

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": dict(self.failures),
        }
