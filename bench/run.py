"""relu_lab benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload coverage-sweep --seed 1 --seconds 24 --trace 0

``bench/collect.py`` runs every workload over several seeds, and
``bench/selfcheck.py`` checks the benchmark itself.

Workloads (see bench/workloads.py): ``reproduce`` (CLI reproductions),
``coverage-sweep`` (criterion 09b-shaped flow + dual recovery) and
``certify-d3`` (arrangements + dual-feasibility gauge in d = 3 and 4).

A run builds the workload's list of cases from the seed, sets up, runs the
list in passes until --seconds are up and prints one JSON object as its last
line:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With ``--trace 0`` the metrics are the end-to-end ones: set-up seconds, the
seconds of the whole list and of its median and slowest case, each case
timed as the median of its passes, and peak memory.  With ``--trace 1`` a
fixed number of passes runs, each case once plain and once with every public
relu_lab function wrapped in spans, and the metrics are per layer.  A case
that raises, ends a cone solve in a status other than "optimal", or fails its
gate makes the run incorrect.  Earlier lines record the machine, the library
versions and each metric by name and unit.  The program is imported from
``src/`` beside this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()
# one BLAS/OpenMP thread, pinned before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
NAMES = ("reproduce", "coverage-sweep", "certify-d3")
MIN_PASSES = 3          # an untraced run passes over its cases until
                        # --seconds are up, and at least this often
SETUP_PROBES = 4        # extra set-up rounds, each in a fresh interpreter


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": [round(v, 2) for v in os.getloadavg()],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                               "openblas configuration")
                     if k in blas},
            "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}


def _digest(summary: dict) -> str:
    return hashlib.sha256(pickle.dumps(summary, protocol=4)).hexdigest()


class Runner:
    """Runs cases, keeps their times, outcomes and (traced) spans."""

    def __init__(self, name: str, trace: bool):
        from spans import StatusWatch, Tracer, unpatch
        self.name = name
        self.unpatch = unpatch
        self.watch = StatusWatch()
        self.tracer = Tracer() if trace else None
        self.plain_times: dict[str, list[float]] = {}
        self.traced_times: list[float] = []
        self.bytes_written = 0
        self.attempted = 0
        self.failed = 0
        self.incorrect = False
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def note(self, msg: str, incorrect: bool = False):
        self.incorrect |= incorrect
        if msg not in self.problems:
            self.problems.append(msg)
            print(f"problem {msg}", file=sys.stderr)

    def _execute(self, case, traced: bool):
        """One timed execution; returns (seconds, summary or None)."""
        tracer = self.tracer if traced else None
        patched = (tracer or self.watch).install()
        before = self.watch.not_optimal
        first_span = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        try:
            summary, error = case.run(), None
        except Exception as exc:
            summary, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            self.unpatch(patched)
        self.attempted += 1
        if tracer is None:
            bad = self.watch.not_optimal - before
        else:
            bad = sum(1 for sp in tracer.spans[first_span:]
                      if sp.name == "solve" and sp.info["status"] != "optimal")
        if error is None and bad:
            error = f"{bad} cone solve(s) not optimal"
        if error is not None:
            self.failed += 1
            self.note(f"{case.name}: failed: {error}", incorrect=True)
            return elapsed, None
        problems = case.gate(summary)
        digest = _digest(summary)
        if self.digests.setdefault(case.name, digest) != digest:
            problems.append("output differs from the case's first run")
        if problems:
            self.failed += 1
            for msg in problems:
                self.note(f"{case.name}: incorrect: {msg}", incorrect=True)
        return elapsed, summary

    def run_pass(self, cases) -> None:
        for i, case in enumerate(cases):
            times = self.plain_times.setdefault(case.name, [])
            if self.tracer is None:
                times.append(self._execute(case, False)[0])
                continue
            # a plain and a traced run of each case, in alternating order
            self.tracer.case = case.name
            first = (i + len(times)) % 2 == 0
            for traced in (not first, first):
                t, summary = self._execute(case, traced)
                if traced:
                    self.traced_times.append(t)
                    self.bytes_written += (summary or {}).get("bytes", 0)
                else:
                    times.append(t)

    def plain_total(self) -> float:
        return sum(sum(v) for v in self.plain_times.values())


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """Each case's time is the median of its passes."""
    case_s = sorted(statistics.median(v) for v in runner.plain_times.values())
    passes = [sum(p) for p in zip(*runner.plain_times.values())]
    print(f"info seconds per pass {json.dumps(passes)}")
    print(f"info case_tail_s is the slowest of {len(case_s)} cases")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(sum(case_s), "s"),
            "case_p50_s": _metric(statistics.median(case_s), "s"),
            "case_tail_s": _metric(case_s[-1], "s"),
            "peak_rss_mb": _metric(rss_mb, "MB")}


def per_layer(runner: Runner) -> dict:
    """Totals over the traced executions of the run's case list."""
    from spans import layer_totals
    counts, secs = layer_totals(runner.tracer.spans)

    def count(key):
        return _metric(counts[key], "count")

    def second(key):
        return _metric(secs[key], "s")

    def rate(num, den, scale, unit):
        return _metric(scale * num / den if den else 0.0, unit)

    lp = counts["lp_calls"]
    iters = counts["pdhg_iters"]
    traced = sum(runner.traced_times)
    return {
        "arrangements.enumerate_s": second("enumerate"),
        "arrangements.lp_calls": count("lp_calls"),
        "arrangements.lp_ms": rate(secs["lp"], lp, 1e3, "ms"),
        "arrangements.lp_useful_frac": rate(counts["lp_witnesses"], lp, 1.0,
                                            "frac"),
        "arrangements.masks": count("masks"),
        "solver.pdhg_solves": count("pdhg_solves"),
        "solver.pdhg_iters": count("pdhg_iters"),
        "solver.pdhg_iters_per_solve": rate(iters, counts["pdhg_solves"], 1.0,
                                            "iterations"),
        "solver.pdhg_us_per_iter": rate(secs["pdhg"], iters, 1e6, "us"),
        "solver.pdhg_s": second("pdhg"),
        "solver.pdhg_not_optimal": _metric(
            counts["pdhg_solves"] - counts["status_optimal"], "count"),
        "solver.status_optimal": count("status_optimal"),
        "solver.status_max_iters": count("status_max_iters"),
        "solver.status_infeasible_suspected":
            count("status_infeasible-suspected"),
        "solver.face_s": second("face"),
        "solver.face_probes": count("face_probes"),
        "solver.face_max_iters_probes": count("face_max_iters_probes"),
        "solver.lp_inconclusive": count("lp_inconclusive"),
        "geometry.gauge_s": second("gauge"),
        "geometry.gauge_calls": count("gauge_calls"),
        "geometry.subproblems": count("subproblems"),
        "geometry.us_per_subproblem": rate(secs["subproblem"],
                                           counts["subproblems"], 1e6, "us"),
        "convex.primal_s": second("primal"),
        "convex.primal_iters": count("primal_iters"),
        "convex.dual_s": second("dual"),
        "convex.dual_iters": count("dual_iters"),
        "flow.run_s": second("flow"),
        "flow.steps": count("flow_steps"),
        # run_flow self time per configured step, so deleting step() calls
        # inside the loop does not change what is counted
        "flow.us_per_step": rate(secs["flow_self"], counts["flow_steps"], 1e6,
                                 "us"),
        "flow.recover_dual_s": second("recover_dual"),
        "certify.dual_feasible_s": second("dual_feasible"),
        "certify.extract_kkt_s": second("extract_kkt"),
        "certify.coverage_s": second("coverage"),
        "cli.self_s": second("cli_self"),
        "cli.bytes_written": _metric(runner.bytes_written, "bytes"),
        "trace.overhead_frac": _metric(
            traced / runner.plain_total() - 1.0, "frac"),
        "trace.span_coverage_frac": _metric(secs["top_level"] / traced,
                                            "frac"),
    }


def _check_layers(runner: Runner, expected) -> None:
    from spans import LAYER_OF
    seen = {LAYER_OF[sp.name] for sp in runner.tracer.spans}
    for layer in expected:
        if layer not in seen:
            runner.note(f"layer {layer} recorded no span on {runner.name}",
                        incorrect=True)


def _setup_probes(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "relu_lab" / "__init__.py").is_file():
        print(f"error: no relu_lab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relu_lab
    if Path(relu_lab.__file__).resolve().parent != SRC / "relu_lab":
        print(f"error: relu_lab imported from {relu_lab.__file__}",
              file=sys.stderr)
        return 2
    import workloads
    OUT_ROOT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        cases = workloads.WORKLOADS[args.workload](args.seed, out)
        workloads.warm_up()
        setup_first = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_first))
            return 0
        return measure(args, cases, setup_first)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(args, cases, setup_first: float) -> int:
    import workloads
    from spans import check_self_time_arithmetic
    print("env " + json.dumps(environment(), sort_keys=True))
    setup_s = statistics.median([setup_first] + _setup_probes(args))
    runner = Runner(args.workload, bool(args.trace))
    start = time.perf_counter()
    passes = 0
    if args.trace:
        # a fixed number of passes, so that counts repeat; a traced pass
        # executes every case twice, so it makes half as many
        passes = workloads.traced_passes(args.workload, args.seconds)
        for _ in range(passes):
            runner.run_pass(cases)
    else:
        while (passes < MIN_PASSES
               or time.perf_counter() - start < args.seconds):
            runner.run_pass(cases)
            passes += 1
    measured = time.perf_counter() - start
    if args.trace:
        check_self_time_arithmetic()
        _check_layers(runner, workloads.EXPECTED_LAYERS[args.workload])
        metrics = per_layer(runner)
    else:
        metrics = end_to_end(runner, setup_s)
    print(f"info workload {args.workload} seed {args.seed}: {passes} "
          f"passes over {len(cases)} cases in {measured:.2f} s")
    print(f"info failed_frac {runner.failed / runner.attempted!r} "
          f"({runner.failed}/{runner.attempted})")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not runner.incorrect,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
