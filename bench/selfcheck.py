"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

- self-time arithmetic on hand-built nested spans;
- per workload, two traced runs of one seed: both correct, every count
  metric (unit count, bytes or iterations) equal, layer spans covering at
  least 90% of the traced case time;
- coverage-sweep makes no cone solve (its d = 2 gauges are planar);
- the metric names printed are exactly those BENCHMARK.json declares.

Each traced run also checks on its own that every layer expected on its
workload recorded a span, and every run that each case's output repeats bit
for bit.
Runs are of seed SEED and SECONDS seconds.  Exits 1 on the first failed
check.
"""

from __future__ import annotations

import sys

from collect import DECLARED, NAMES, run_one
from spans import check_self_time_arithmetic

EXACT_UNITS = ("count", "bytes", "iterations")
SEED = 1
SECONDS = 8.0


def _declared(result: dict) -> list[tuple[str, str]]:
    return [(k, m["unit"]) for k, m in result["metrics"].items()]


def _names(entries: list[dict]) -> list[tuple[str, str]]:
    return [(m["name"], m["unit"]) for m in entries]


def main() -> int:
    check_self_time_arithmetic()
    print("ok self-time arithmetic on nested spans")
    failures = []
    e2e = run_one(NAMES[0], SEED, SECONDS, 0)
    if _declared(e2e) != _names(DECLARED["end_to_end"]):
        failures.append(f"end-to-end metrics {_declared(e2e)}")
    for name in NAMES:
        a, b = (run_one(name, SEED, SECONDS, 1) for _ in range(2))
        if not (a["correct"] and b["correct"]):
            failures.append(f"{name}: incorrect traced run {a['problems']}"
                            f" {b['problems']}")
        if _declared(a) != _names(DECLARED["per_layer"]):
            failures.append(f"{name}: per-layer metrics {_declared(a)}")
        differ = [k for k, m in a["metrics"].items()
                  if m["unit"] in EXACT_UNITS
                  and m["value"] != b["metrics"][k]["value"]]
        if differ:
            failures.append(f"{name}: counts differ between runs: {differ}")
        cover = min(r["metrics"]["trace.span_coverage_frac"]["value"]
                    for r in (a, b))
        if cover < 0.9:
            failures.append(f"{name}: spans cover only {cover:.3f}")
        if name == "coverage-sweep" and a["metrics"]["solver.pdhg_solves"]["value"]:
            failures.append("coverage-sweep made cone solves")
        print(f"{'FAIL' if failures else 'ok'} {name}: counts repeat, "
              f"span coverage {cover:.4f}")
        if failures:
            break
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
