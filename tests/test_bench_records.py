"""Checked-in ``BENCH_*.json`` records speak the benchmark's declared terms."""

import glob
import json
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return {w["name"] for w in bench["workloads"]}, units


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_uses_declared_workloads_metrics_and_units(path):
    workloads, units = _declared()
    with open(path) as f:
        record = json.load(f)
    for key in ("parent", "change"):
        assert isinstance(record[key], str) and len(record[key]) == 40, key
    assert _is_number(record["run_seconds"])
    claim = record.get("claim")
    if claim is not None:
        assert claim["workload"] in record["workloads"]
        assert claim["metric"] in record["workloads"][claim["workload"]]["metrics"]
    assert record["workloads"], "no workloads recorded"
    for name, wl in record["workloads"].items():
        assert name in workloads, f"undeclared workload {name}"
        assert wl["seeds"] and all(isinstance(s, int) for s in wl["seeds"])
        pairs = wl["pairs"]
        assert isinstance(pairs, int) and pairs == len(wl["seeds"])
        for metric, m in wl["metrics"].items():
            assert metric in units, f"undeclared metric {metric}"
            assert m["unit"] == units[metric], f"{metric}: unit {m['unit']}"
            assert isinstance(m["wins"], int) and 0 <= m["wins"] <= pairs
            for side in ("parent", "change"):
                stats = m[side]
                assert len(stats["runs"]) == pairs
                for v in [stats["median"], stats["q1"], stats["q3"], *stats["runs"]]:
                    assert _is_number(v), f"{name}/{metric}/{side}: {v!r}"
                assert stats["q1"] <= stats["median"] <= stats["q3"]
