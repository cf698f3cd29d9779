"""The committed benchmark trajectory: one BENCH_<workload>.json per
workload of BENCHMARK.json at the repository root.

Each file holds the workload's name and a list of entries, one per side
(parent or change) of a benchmarked commit. An entry names the commit
and its parent, the date, the environment, the seeds and the run count,
the side, the failed operations and, per end-to-end metric, the median
and the interquartile range. A transcribed entry carries only the
medians that were recorded for it, and an IQR that was not recorded is
null; a measured entry carries every end-to-end metric with its IQR.
"""

import json
import numbers
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
ENTRY_KEYS = {"commit", "parent", "date", "env", "seeds", "runs", "side", "failed", "source",
              "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_bench_file_parses_and_every_entry_has_its_keys(workload):
    doc = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert doc["workload"] == workload
    assert doc["entries"]
    for entry in doc["entries"]:
        assert ENTRY_KEYS <= set(entry), sorted(ENTRY_KEYS - set(entry))
        assert entry["side"] in ("parent", "change")
        assert entry["source"] in ("transcribed", "measured")
        assert entry["seeds"] and all(isinstance(seed, int) for seed in entry["seeds"])
        assert isinstance(entry["runs"], int) and entry["runs"] >= 1
        assert isinstance(entry["failed"], int) and entry["failed"] >= 0
        assert entry["metrics"] and set(entry["metrics"]) <= END_TO_END
        for value in entry["metrics"].values():
            assert set(value) == {"median", "iqr"}
            assert isinstance(value["median"], numbers.Real) and value["median"] > 0
            assert value["iqr"] is None or (
                isinstance(value["iqr"], numbers.Real) and value["iqr"] >= 0
            )
        if entry["source"] == "measured":
            assert set(entry["metrics"]) == END_TO_END
            assert all(value["iqr"] is not None for value in entry["metrics"].values())
            assert len(entry["seeds"]) == entry["runs"]
