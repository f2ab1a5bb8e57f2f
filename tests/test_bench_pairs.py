"""tools/bench_pairs.py's verdicts on synthetic runs; no benchmark process
is started."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
#: quartiles 1.0 and 2.0: a spread of 1.0, wider than 0.25 of the median 1.5
WIDE = [1.0, 2.0] * 5


@pytest.mark.parametrize("parent, change, want", [
    # lower in 10/10, medians 0.2 apart, the parent's spread 0.045
    (PARENT, [v - 0.2 for v in PARENT], "lower"),
    # 8 lower and 2 ties: ties count for neither, so 8/10 is not enough
    (PARENT, [v - 0.2 for v in PARENT[:8]] + PARENT[8:], "within bound"),
    (PARENT, [v * 1.3 for v in PARENT], "worse"),
    (PARENT, [v * 1.2 for v in PARENT], "within bound"),
    (PARENT, PARENT, "within bound"),
    (WIDE, WIDE[::-1], "unresolved"),
    # every change run below every parent run settles a wide spread
    (WIDE, [0.9] * 10, "within bound"),
])
def test_verdict(bench_pairs, parent, change, want):
    lower = sum(c < p for p, c in zip(parent, change))
    assert bench_pairs.verdict(parent, change, lower, len(parent),
                               0.25) == want


def test_summary_reads_every_metric_bound(bench_pairs):
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(bench_pairs.METRICS) <= set(bounds)
    runs = [{"pair": k + 1, "workload": workload, "side": side,
             "result": {"correct": True, "metrics": {
                 metric: {"value": value} for metric in bench_pairs.METRICS}}}
            for workload in bench_pairs.WORKLOADS
            for k, (p, c) in enumerate(zip(PARENT, [v * 1.2 for v in PARENT]))
            for side, value in (("parent", p), ("change", c))]
    out = bench_pairs.summary(runs, len(PARENT), bounds)
    for workload in bench_pairs.WORKLOADS:
        assert out[workload]["correct"] is True
        got = {metric: out[workload][metric]["verdict"]
               for metric in bench_pairs.METRICS}
        # +20 %: inside the 25 % time bounds, past peak_rss_mb's 10 %
        assert got == {metric: "worse" if bounds[metric] < 0.2
                       else "within bound" for metric in bench_pairs.METRICS}
        assert out[workload]["wall_s"]["pairs_change_lower"] == "0/10"


def test_traced_keeps_each_side_and_every_batch(bench_pairs, monkeypatch,
                                               tmp_path):
    layers = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    calls = []

    def run(checkout, workload, seed, trace=0):
        calls.append((checkout.name, workload, seed, trace))
        value = 267 if checkout.name == "change" else 248
        return {"correct": True, "metrics": {
            "arrangements.lp_calls": {"value": value}}}, []

    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "bench.json"
    out.write_text('{"seed 1": {}}')
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--out",
            str(out), "--traced", "certify-d3"]
    assert bench_pairs.main(argv) == 0 and bench_pairs.main(argv) == 0
    assert calls == [("parent", "certify-d3", 1, 1),
                     ("change", "certify-d3", 1, 1)] * 2
    data = json.loads(out.read_text())
    assert list(data) == ["seed 1", "traced certify-d3 seed 1",
                          "traced certify-d3 seed 1 batch 2"]
    first = data["traced certify-d3 seed 1"]
    assert "arrangements.lp_calls" in layers
    assert first["layers"] == {"arrangements.lp_calls": {"parent": 248,
                                                         "change": 267}}
    assert first["runs"]["change"]["correct"] is True
    assert "--trace 1" in first["command"]
