"""Span recorder for the traced benchmark run.

Spans are recorded in the benchmark's own code around each call into a
qverify module: name, start, end and parent. They stay in memory and are
written out once, when the run ends. A span's self time is its duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

_LINALG_SOLVES = ("eigh", "eigvalsh")
_LINALG_WRAPPED = _LINALG_SOLVES + ("qr",)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: duration minus time covered by its children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
            if c.end > span.start and c.start < span.end
        ]
        out[span.id] = span.duration - covered_length(clipped)
    return out


class Recorder:
    """Records spans and named counters in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock(), 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def totals(self) -> dict[str, dict[str, float]]:
        """Summed duration, self time and call count per span name."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            entry["total_s"] += span.duration
            entry["self_s"] += selfs[span.id]
            entry["calls"] += 1
        return out

    def dump(self) -> dict:
        selfs = self_times(self.spans)
        return {
            "spans": [dict(asdict(s), self_s=selfs[s.id]) for s in self.spans],
            "counters": dict(self.counters),
        }


class NullRecorder:
    """Stand-in for the untraced run: records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, amount: float = 1) -> None:
        pass


@contextlib.contextmanager
def wrap_linalg(recorder: Recorder):
    """Count and time numpy.linalg eigensolves and QR calls while active.

    qverify calls these through the numpy.linalg attributes, so replacing
    the attributes sees every call. Only the traced run does this.
    """
    import numpy

    originals = {name: getattr(numpy.linalg, name) for name in _LINALG_WRAPPED}

    def wrapped(name, fn):
        key = "qcore.eigensolves" if name in _LINALG_SOLVES else "qcore.qr_calls"

        def call(*args, **kwargs):
            start = recorder.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.add(key)
                if name in _LINALG_SOLVES:
                    recorder.add("qcore.eigensolve_s", recorder.clock() - start)

        return call

    for name, fn in originals.items():
        setattr(numpy.linalg, name, wrapped(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(numpy.linalg, name, fn)
