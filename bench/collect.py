"""Run every workload over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1 --traced-seeds 1
    python3 bench/collect.py --seeds 1-10 --traced-seeds 1 --out runs.json

``bench/baseline.json`` is the summary of
``--seeds 201-210 --traced-seeds 201`` at the commit that added the benchmark.

Every workload BENCHMARK.json declares runs, for its ``run_seconds``, once per
(seed, trace), each run one ``bench/run.py`` process after another; each run's
metrics are printed by name with their unit, after its failed fraction.  For
every metric the summary holds the values in seed order, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median; it also keeps the first run's environment line and every
problem line.  Exits 1 if a run fails, prints no result, or reports
incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = tuple(w["name"] for w in DECLARED["workloads"])


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(ln[4:]) for ln in lines
                          if ln.startswith("env ")), {})
    result["problems"] = [ln for ln in proc.stderr.splitlines()
                          if ln.startswith("problem ")]
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def collect(workload: str, seeds: list[int], seconds: float,
            trace: int) -> dict:
    runs = []
    for seed in seeds:
        result = run_one(workload, seed, seconds, trace)
        runs.append(result)
        print(f"{workload} seed {seed} trace {trace}: correct "
              f"{result['correct']} failed_frac "
              f"{result['failed'] / result['attempted']:.4g} "
              f"({result['failed']}/{result['attempted']})", flush=True)
        for k, v in result["metrics"].items():
            print(f"  {k} {v['value']:.6g} {v['unit']}", flush=True)
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": first["unit"], "values": values}
        if len(values) > 1:
            metrics[name].update(summarise(values))
            if not trace:
                print(f"{workload} {name}: median {metrics[name]['median']:.6g}"
                      f" {first['unit']}, spread {metrics[name]['spread']:.4f}",
                      flush=True)
    return {"seeds": seeds, "metrics": metrics,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": [r["correct"] for r in runs],
            "problems": sorted({ln for r in runs for ln in r["problems"]}),
            "env": runs[0]["env"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10",
                   help="end-to-end runs, e.g. 1-10 or 1,4,9; '' for none")
    p.add_argument("--traced-seeds", default="",
                   help="traced (per-layer) runs, same syntax")
    p.add_argument("--out", default="")
    args = p.parse_args(argv)
    summary = {}
    for workload in NAMES:
        summary[workload] = {}
        for key, spec, trace in (("end_to_end", args.seeds, 0),
                                 ("per_layer", args.traced_seeds, 1)):
            if spec:
                summary[workload][key] = collect(
                    workload, _seeds(spec), DECLARED["run_seconds"], trace)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    ok = all(all(part["correct"]) for w in summary.values()
             for part in w.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
