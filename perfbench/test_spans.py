"""Self-time arithmetic of the span recorder on synthetic span trees.

    python3 -m pytest perfbench/test_spans.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, Span, covered_length, self_times  # noqa: E402


def test_covered_length_merges_overlaps_and_gaps():
    assert covered_length([]) == 0.0
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]) == pytest.approx(6.0)
    assert covered_length([(2.0, 3.0), (1.0, 5.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "b", 0, 3.0, 6.0),  # overlaps a: root loses 1..6 once
        Span(3, "c", 1, 2.0, 3.0),
        Span(4, "d", 0, 9.0, 12.0),  # runs past its parent: clipped to 9..10
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_recorder_nests_spans_and_sums_by_name():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    rec = Recorder(clock=lambda: next(ticks))
    with rec.span("pass"):
        with rec.span("call"):
            pass
        with rec.span("call"):
            pass
    assert [(s.name, s.parent, s.start, s.end) for s in rec.spans] == [
        ("pass", None, 0.0, 10.0),
        ("call", 0, 1.0, 3.0),
        ("call", 0, 4.0, 7.0),
    ]
    totals = rec.totals()
    assert totals["pass"] == {"total_s": 10.0, "self_s": 5.0, "calls": 1}
    assert totals["call"] == {"total_s": 5.0, "self_s": 5.0, "calls": 2}
