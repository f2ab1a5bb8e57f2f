"""Alternating before/after runs of bench/run.py on two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --out BENCH_27.json

PARENT and CHANGE are two checkouts of the repository, each with its own
bench/ and src/.  Each pair runs every workload once on each side for
SECONDS, untraced, one process at a time: the parent first in odd pairs
and the change first in even ones, so a slow phase of the machine falls
on both sides.  The runs go into the "seed <seed>" key of --out, or
"seed <seed> batch <n>" when an earlier batch holds it, so that no run is
dropped: "runs" holds each run's last JSON line verbatim, and "summary"
gives, per workload and end-to-end metric, the median and quartiles of
each side, in how many pairs the change read lower, and a verdict against
the metric's bound in BENCHMARK.json (see verdict).  Other keys of an
existing --out file are kept.

    python3 tools/bench_pairs.py PARENT CHANGE --traced certify-d3 --out F

runs instead one traced run (--trace 1) of the workload on each side, the
parent first, into the "traced <workload> seed <seed>" key: each run's last
JSON line, and each per-layer metric of BENCHMARK.json on both sides.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("reproduce", "coverage-sweep", "certify-d3")
METRICS = ("setup_s", "wall_s", "case_p50_s", "case_tail_s", "peak_rss_mb")
#: --seconds of every bench/run.py process: BENCHMARK.json's run_seconds
SECONDS = 24


def run(checkout: Path, workload: str, seed: int, trace: int = 0
        ) -> tuple[dict, list[str]]:
    """One bench/run.py process: its last stdout line, parsed, and the
    lines before it (the machine, the library versions, the metrics)."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    *head, last = out.strip().splitlines()
    return json.loads(last), head


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], lower: int,
            pairs: int, bound: float) -> str:
    """How a lower-is-better metric moved, with bound the relative worsening
    the benchmark allows: "lower" when the change read lower in at least
    9/10 of the pairs (ties count for neither) and the medians differ by
    more than the parent's quartile spread; "worse" when the change median
    exceeds the parent's by more than the bound; "unresolved" when the
    parent's quartile spread exceeds the bound, unless every change run
    reads lower than every parent run; "within bound" otherwise."""
    p, c = quartiles(parent), quartiles(change)
    spread = p["q3"] - p["q1"]
    if lower >= 0.9 * pairs and p["median"] - c["median"] > spread:
        return "lower"
    if c["median"] > (1.0 + bound) * p["median"]:
        return "worse"
    if spread > bound * p["median"] and not max(change) < min(parent):
        return "unresolved"
    return "within bound"


def summary(runs: list[dict], pairs: int, bounds: dict[str, float]) -> dict:
    """Per workload and metric of METRICS: each side's quartiles, the
    pairs in which the change read lower, and the verdict under
    bounds[metric]."""
    out = {}
    for workload in WORKLOADS:
        side = {s: [{k: v["value"] for k, v in r["result"]["metrics"].items()}
                    for r in runs
                    if r["workload"] == workload and r["side"] == s]
                for s in ("parent", "change")}
        out[workload] = {}
        for metric in METRICS:
            parent = [m[metric] for m in side["parent"]]
            change = [m[metric] for m in side["change"]]
            lower = sum(c < p for p, c in zip(parent, change))
            out[workload][metric] = {
                "parent": quartiles(parent), "change": quartiles(change),
                "pairs_change_lower": f"{lower}/{pairs}",
                "verdict": verdict(parent, change, lower, pairs,
                                   bounds[metric])}
        out[workload]["correct"] = all(
            r["result"]["correct"] for r in runs if r["workload"] == workload)
    return out


def free_key(data: dict, key: str) -> str:
    """key, or "<key> batch <n>" with the least n >= 2 that data does not
    hold when it holds key, so that no earlier run is dropped."""
    name, batch = key, 1
    while name in data:
        batch += 1
        name = f"{key} batch {batch}"
    return name


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--traced", choices=WORKLOADS)
    args = p.parse_args(argv)
    benchmark = json.loads((Path(__file__).resolve().parents[1]
                            / "BENCHMARK.json").read_text())
    if args.traced:
        return traced(args, [m["name"] for m in benchmark["per_layer"]])
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for workload in WORKLOADS:
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result, head = run(checkout, workload, args.seed)
                runs.append({"pair": pair, "workload": workload,
                             "side": side, "result": result})
                print(pair, workload, side,
                      result["metrics"]["setup_s"]["value"], file=sys.stderr)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[free_key(data, f"seed {args.seed}")] = {
        "command": (f"python3 bench/run.py --workload <workload> --seed "
                    f"{args.seed} --seconds {SECONDS} --trace 0"),
        "environment": head, "summary": summary(runs, args.pairs, bounds),
        "runs": runs}
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


def traced(args, layers: list[str]) -> int:
    """One traced run of args.traced per side, into --out (see the module
    docstring)."""
    runs = {side: run(checkout, args.traced, args.seed, trace=1)[0]
            for side, checkout in (("parent", args.parent),
                                   ("change", args.change))}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[free_key(data, f"traced {args.traced} seed {args.seed}")] = {
        "command": (f"python3 bench/run.py --workload {args.traced} --seed "
                    f"{args.seed} --seconds {SECONDS} --trace 1"),
        "layers": {name: {side: r["metrics"][name]["value"]
                          for side, r in runs.items()}
                   for name in layers
                   if all(name in r["metrics"] for r in runs.values())},
        "runs": runs}
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
