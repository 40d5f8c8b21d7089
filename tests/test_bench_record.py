"""The committed bench records, one file per workload: their schema, and
summaries that agree with the pairs they summarise."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")
WORKLOADS = ("certify-2e6", "zeta-points")


def _record(workload):
    return json.loads((ROOT / f"BENCH_{workload}.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_record_schema(workload):
    record = _record(workload)
    assert record["workload"] == workload
    assert record["metrics"] == list(METRICS)
    assert f"--workload {workload}" in record["command"]
    entries = record["entries"]
    assert entries and any(e["source"] == "measured" for e in entries)
    for i, entry in enumerate(entries):
        assert entry["source"] in ("measured", "CHANGES.md"), entry["title"]
        # sha.change is null only on the last entry: the change that adds it
        change = entry["sha"]["change"]
        if change is not None or i < len(entries) - 1:
            assert isinstance(change, str) and len(change) >= 7, entry["title"]
        assert entry["title"] and entry["pair_count"] >= 1
        for key in ("machine", "python", "numpy"):
            assert isinstance(entry[key], str) and entry[key], key
        assert isinstance(entry["sha"]["parent"], str) and len(entry["sha"]["parent"]) >= 7
        for side in SIDES:
            for metric in METRICS:
                stats = entry[side][metric]
                assert stats["median"] > 0, (entry["title"], side, metric)
                if "q1" in stats:
                    assert stats["q1"] <= stats["median"] <= stats["q3"]


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_measured_summaries_are_those_of_their_pairs(workload, side):
    # quartiles as statistics.quantiles(n=4) gives them, as perfbench does
    for entry in (e for e in _record(workload)["entries"] if e["source"] == "measured"):
        pairs = entry["pairs"]
        assert len(pairs) == entry["pair_count"] >= 10
        assert len({p["seed"] for p in pairs}) == len(pairs)
        for metric in METRICS:
            values = [p[side][metric] for p in pairs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            assert entry[side][metric] == pytest.approx(
                {"median": median, "q1": q1, "q3": q3}, rel=1e-9), metric
            lower = sum(p["change"][metric] < p["parent"][metric] for p in pairs)
            assert entry["lower_in_pairs"][metric] == lower, metric
