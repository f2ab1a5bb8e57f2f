"""Command-line front end: reproducible experiments and figure/table export.

Subcommands: arrangements, solve, flow, certify, geometry-export, reproduce;
each takes only the options it reads (see build_parser).  solve and
reproduce take the solver tolerance --tol (default solver.DEFAULT_TOL),
certify the dual-feasibility tolerance --tol-cert and the dual scale
--lambda-scale (each a finite number > 0).  solve runs one primal solve for
every --which: the dual it reports is that solve's certified multiplier.
Exit codes:
0 success, 1 numerical failure (a solve that does not end optimal included),
2 usage error.  Every command that writes files also writes a manifest.json
alongside them.  --deterministic drops the timestamp header line of CSV
files and the manifest's wall_time, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .arrangements import (check_sign_pattern_size, cover_bound,
                           enumerate_masks, matrix_rank)
from .certify import dual_feasible, extract_kkt, ortho_coverage, spike_free
from .convex import NetworkParams, build_primal, solve_primal
from .datasets import (BUILTIN_DATASETS, Dataset, builtin_dataset,
                       dataset_to_json, is_orthogonal_separable, json_numbers,
                       load_dataset)
from .flow import FlowConfig, network_dual, run_flow
from .geometry import (GAUGE_SOLVE_TOL, extreme_points, masked_vectors,
                       rectified_ellipsoid_samples)
from .solver import (DEFAULT_TOL, DegenerateError, SolverError,
                     optimal_face_bounds)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


class UsageError(RuntimeError):
    pass


class FlowAborted(RuntimeError):
    """A flow stopped on non-finite parameters; stderr already says where."""


def _dataset_from_args(args) -> Dataset:
    name = args.dataset
    if name in BUILTIN_DATASETS:
        return builtin_dataset(name)
    path = Path(name)
    if path.exists():
        return load_dataset(path)
    raise UsageError(f"unknown dataset {name!r}: not a built-in "
                     f"({sorted(BUILTIN_DATASETS)}) and no such file")


def write_manifest(args, ds: Dataset, outputs: list[str],
                   wall_time: float) -> None:
    """manifest.json in --out-dir next to `outputs` (each must exist): the
    command, its options, the dataset's name and hash, the package versions
    and, unless --deterministic, the run's wall time."""
    out = Path(args.out_dir)
    for rel in outputs:
        if not (out / rel).exists():
            raise SolverError(f"manifest references missing output {rel}")
    blob = json.dumps(dataset_to_json(ds), sort_keys=True).encode()
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "dataset_name": ds.name,
        "dataset_sha256": hashlib.sha256(blob).hexdigest(),
        "outputs": outputs,
        "versions": {"relu_lab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__}}
    if not args.deterministic:
        manifest["wall_time"] = round(wall_time, 6)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _csv_header(args) -> list[str]:
    if args.deterministic:
        return []
    return [f"# generated {datetime.now(timezone.utc).isoformat()}"]


def _write_csv(path: Path, header_cols: list[str], rows, args):
    lines = _csv_header(args)
    lines.append(",".join(header_cols))
    for row in rows:
        lines.append(",".join("" if v is None else
                              (f"{v:.12g}" if isinstance(v, float) else str(v))
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_arrangements(args) -> tuple[Dataset, list[str]]:
    ds = _dataset_from_args(args)
    masks = enumerate_masks(ds.X)
    # samples as rows, one column per arrangement
    table = np.array([m.bits for m in masks]).T
    print(table)
    r = matrix_rank(ds.X)
    bound = cover_bound(ds.N, r) if ds.N >= 2 and r >= 1 else float("inf")
    print(f"{len(masks)} arrangements; counting bound "
          f"2r(e(N-1)/r)^r = {bound:.4f} at rank {r}")
    if args.json:
        # JSON has no infinity: an undefined or overflowing bound is null
        print(json.dumps({"masks": [m.as_string() for m in masks],
                          "count": len(masks),
                          "bound": bound if np.isfinite(bound) else None}))
    return ds, []


def _solve(args, ds: Dataset, masks):
    """Build and solve the primal at --tol and require it optimal; returns
    (problem, lam, report, primal), primal the solution's JSON: objective,
    active groups and lambda."""
    problem = build_primal(ds.X, ds.y, masks)
    sol, lam, report = solve_primal(problem, tol=args.tol)
    report.require_optimal("primal")
    groups = [{"mask": masks[j].as_string(), "sign": side,
               "u": [float(v) for v in vec]}
              for j, side, vec in sol.active_groups()]
    primal = {"objective": float(sol.objective), "groups": groups,
              "lambda": [float(v) for v in lam]}
    return problem, lam, report, primal


def cmd_solve(args) -> tuple[Dataset, list[str]]:
    ds = _dataset_from_args(args)
    if not ds.is_binary:
        raise UsageError("solve currently drives binary datasets; "
                         "encode multiclass data per class")
    masks = enumerate_masks(ds.X)
    payload: dict = {}
    _, lam, report, primal = _solve(args, ds, masks)
    if args.which in ("primal", "both"):
        print(f"primal objective {report.objective:.6f} "
              f"({report.iterations} rounds)")
        payload["primal"] = primal
    if args.which in ("dual", "both"):
        dobj = float(ds.y @ lam)
        print(f"dual objective {dobj:.6f} (same solve, certified)")
        payload["dual"] = {"objective": dobj,
                           "lambda": [float(v) for v in lam]}
    if args.json:
        print(json.dumps(payload))
    if not args.out_dir:
        return ds, []
    (_out_dir(args) / "solution.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    return ds, ["solution.json"]


def _parse_checkpoints(spec: str, iters: int) -> tuple[int, ...]:
    """The listed checkpoints (default 10, 100, 1000, 10000 up to iters)
    and iters itself, sorted; FlowConfig checks that each is in [1, iters]."""
    try:
        points = ({int(tok) for tok in spec.split(",") if tok} if spec else
                  {c for c in (10, 100, 1000, 10_000) if c <= iters})
    except ValueError as exc:
        raise UsageError(f"bad checkpoint list {spec!r}") from exc
    return tuple(sorted(points | ({iters} if iters >= 1 else set())))


def _flow_config(args) -> FlowConfig:
    """FlowConfig from the flow options of flow and certify."""
    return FlowConfig(m=args.m, init_scale=args.init_scale, step=args.step,
                      iters=args.iters,
                      checkpoints=_parse_checkpoints(args.checkpoints,
                                                     args.iters),
                      seed=args.seed)


def _write_flow_trace(path: Path, trace, d: int, args):
    """flow_trace.csv: one row per neuron per recorded iteration."""
    cols = (["iter", "loss", "margin", "neuron_id", "r"]
            + [f"u{i + 1}" for i in range(d)] + ["s", "mask", "alignment"])
    rows = ((rec.iteration, rec.loss, rec.margin, i, nr.r,
             *[float(v) for v in nr.u], nr.s, nr.mask.as_string(),
             nr.alignment)
            for rec in trace.records for i, nr in enumerate(rec.neurons))
    _write_csv(path, cols, rows, args)


def _report_abort(trace, tag: str = "") -> bool:
    """Say on stderr where a flow aborted; True when it did."""
    if trace.aborted_at is None:
        return False
    print(f"{tag}aborted at iteration {trace.aborted_at} "
          f"(non-finite parameters)", file=sys.stderr)
    return True


def cmd_flow(args) -> tuple[Dataset, list[str]]:
    ds = _dataset_from_args(args)
    trace = run_flow(ds, _flow_config(args))
    traces = trace if isinstance(trace, list) else [trace]
    aborted = False
    for k, tr in enumerate(traces):
        tag = f"class {k + 1}: " if len(traces) > 1 else ""
        final = tr.final()
        margin = "n/a" if final.margin is None else f"{final.margin:.6f}"
        print(f"{tag}iteration {final.iteration}: loss {final.loss:.6e}, "
              f"margin {margin}, sign flips {tr.w2_sign_flips}, "
              f"max balance drift {tr.max_balance_drift:.3e}")
        aborted = _report_abort(tr, tag) or aborted
    if aborted:
        raise FlowAborted
    if not args.out_dir:
        return ds, []
    out = _out_dir(args)
    outputs = []
    for k, tr in enumerate(traces):
        name = "flow_trace.csv" if len(traces) == 1 else f"flow_trace_class{k + 1}.csv"
        _write_flow_trace(out / name, tr, ds.d, args)
        outputs.append(name)
    return ds, outputs


def _load_network(path: str) -> NetworkParams:
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load network file {path!r}: {exc}") from exc
    if not (isinstance(spec, dict) and "W1" in spec and "w2" in spec):
        raise UsageError(f"cannot load network file {path!r}: it must be a "
                         f"JSON object with W1 and w2")
    try:
        W1, w2 = json_numbers(spec["W1"], "W1"), json_numbers(spec["w2"], "w2")
    except ValueError as exc:
        raise UsageError(f"cannot load network file {path!r}: {exc}") from exc
    return NetworkParams(W1=W1, w2=w2)


def cmd_certify(args) -> tuple[Dataset, list[str]]:
    ds = _dataset_from_args(args)
    if not ds.is_binary:
        raise UsageError("certify drives binary datasets")
    # checked first, in both modes; a --network run does not read it
    cfg = _flow_config(args)
    masks = enumerate_masks(ds.X)
    if args.network:
        net = _load_network(args.network)
        if net.W1.shape[0] != ds.d:
            raise UsageError(f"network W1 has {net.W1.shape[0]} rows but "
                             f"the dataset has d = {ds.d}")
        nets = [(None, net)]
    else:
        trace = run_flow(ds, cfg)
        if _report_abort(trace):
            raise FlowAborted
        nets = [(rec.iteration, NetworkParams(W1=rec.W1, w2=rec.w2))
                for rec in trace.records if rec.iteration > 0]
    certificates = []
    separable = is_orthogonal_separable(ds)
    for it, net in nets:
        tag = "" if it is None else f"[iter {it}] "
        lam, _ = network_dual(ds.X, ds.y, net)
        lam = lam * args.lambda_scale
        cert = dual_feasible(ds.X, masks, lam, tol=args.tol_cert)
        print(f"{tag}dual-feasible: {str(cert.verdict).lower()} ({cert.detail})")
        certificates.append((it, cert))
        extraction = extract_kkt(ds.X, ds.y, net.W1, net.w2, lam)
        if separable:
            cov = ortho_coverage(extraction, ds.y)
            print(f"{tag}ortho-coverage: {str(cov.verdict).lower()}")
            certificates.append((it, cov))
    try:
        check_sign_pattern_size(ds.X)
    except ValueError as exc:
        print(f"spike-free: not checked ({exc})", file=sys.stderr)
    else:
        sf = spike_free(ds.X)
        print(f"spike-free: {str(sf.verdict).lower()} ({sf.detail})")
        certificates.append((None, sf))
    records = [{"iteration": it, **c.to_json()} for it, c in certificates]
    if args.json:
        print(json.dumps(records))
    if not args.out_dir:
        return ds, []
    (_out_dir(args) / "certificates.json").write_text(
        json.dumps(records, indent=2) + "\n")
    return ds, ["certificates.json"]


def _write_ellipsoid(out: Path, X: np.ndarray, samples: int, args) -> str:
    """ellipsoid.csv: the rectified-ellipsoid trace at `samples` angles."""
    thetas, pts = rectified_ellipsoid_samples(X, samples)
    _write_csv(out / "ellipsoid.csv",
               ["theta"] + [f"q{i + 1}" for i in range(X.shape[0])],
               ((float(t), *[float(v) for v in row])
                for t, row in zip(thetas, pts)), args)
    return "ellipsoid.csv"


def _write_extreme_points(out: Path, X: np.ndarray, masks, lam: np.ndarray,
                          args) -> str:
    """extreme_points.csv: the max and min extreme point of every mask
    along v = X^T D_j lam, with value v^T u."""
    V = masked_vectors(X, masks, lam)
    U, L = extreme_points(X, masks, V)
    rows = [(mask.as_string(), sense, float(u[0]), float(u[1]), float(v @ u))
            for mask, v, hi, lo in zip(masks, V, U, L)
            for sense, u in (("max", hi), ("min", lo))]
    _write_csv(out / "extreme_points.csv",
               ["mask", "sense", "u1", "u2", "value"], rows, args)
    return "extreme_points.csv"


def cmd_geometry_export(args) -> tuple[Dataset, list[str]]:
    ds = _dataset_from_args(args)
    if ds.d != 2:
        raise UsageError("geometry export requires d = 2")
    out = _out_dir(args)
    outputs = [_write_ellipsoid(out, ds.X, args.samples, args)]
    outputs.append(_write_extreme_points(out, ds.X, enumerate_masks(ds.X),
                                         ds.y / np.linalg.norm(ds.y), args))
    print(f"wrote ellipsoid.csv and extreme_points.csv to {out}")
    return ds, outputs


#: width up to which a face interval counts as pinned: the exact face gives
#: 0.0 on every notebook functional
FACE_TOL = 1e-6

#: masks whose groups on each side sum to one of the notebook's two neurons
NOTEBOOK_PAIRS = {"+": ("100", "110"), "-": ("011", "111")}


def notebook_face_functionals(problem):
    """(label, functional) for the split-invariant functionals that pin the
    notebook optimal set: each coordinate of the two pair sums
    (positive_sum_coordK, negative_sum_coordK), then each coordinate of every
    other group (inactive_<mask><side>_coordK), in mask order."""
    def functional(js, side, coord):
        f = np.zeros(problem.prog.num_vars)
        for j in js:
            f[problem.group_slice(j, side)][coord] = 1.0
        return f

    names = [m.as_string() for m in problem.masks]
    pairs = {side: [j for j, name in enumerate(names) if name in pair]
             for side, pair in NOTEBOOK_PAIRS.items()}
    for label, side in (("positive", "+"), ("negative", "-")):
        for coord in range(problem.d):
            yield (f"{label}_sum_coord{coord + 1}",
                   functional(pairs[side], side, coord))
    for j, name in enumerate(names):
        for side in ("-", "+"):
            if j not in pairs[side]:
                for coord in range(problem.d):
                    yield (f"inactive_{name}{side}_coord{coord + 1}",
                           functional([j], side, coord))


def _reproduce_notebook(args, ds: Dataset, out: Path,
                        cfg: FlowConfig) -> list[str]:
    masks = enumerate_masks(ds.X)
    outputs = []
    table = np.array([m.bits for m in masks]).T
    (out / "masks.txt").write_text(f"{table}\n")
    outputs.append("masks.txt")
    problem, _, report, primal = _solve(args, ds, masks)
    (out / "primal.json").write_text(json.dumps(primal, indent=2) + "\n")
    outputs.append("primal.json")

    labels, functionals = zip(*notebook_face_functionals(problem))
    face = {label: list(bounds) for label, bounds in zip(
        labels, optimal_face_bounds(problem.prog, report.objective,
                                    np.array(functionals)))}
    gaps = max(hi - lo for lo, hi in face.values())
    face["verified"] = gaps <= FACE_TOL
    (out / "optimal_face.json").write_text(json.dumps(face, indent=2) + "\n")
    outputs.append("optimal_face.json")

    trace = run_flow(ds, cfg)
    _write_flow_trace(out / "flow_trace.csv", trace, ds.d, args)
    outputs.append("flow_trace.csv")

    duals = []
    margin_rows = []
    for rec in trace.records:
        if rec.iteration == 0:
            continue
        net = NetworkParams(W1=rec.W1, w2=rec.w2)
        lam, gauge_net = network_dual(ds.X, ds.y, net)
        cert = dual_feasible(ds.X, masks, lam)
        duals.append({"iteration": rec.iteration,
                      "lambda": [float(v) for v in lam],
                      "gauge_network": gauge_net,
                      "gauge_all": max(cert.slacks.values()),
                      "dual_feasible": cert.verdict})
        margin_rows.append((rec.iteration, rec.margin))
    (out / "duals.json").write_text(json.dumps(duals, indent=2) + "\n")
    outputs.append("duals.json")
    _write_csv(out / "margins.csv", ["iter", "margin"], margin_rows, args)
    outputs.append("margins.csv")
    # a flow that never separates the data has no margin
    margin = margin_rows[-1][1] if margin_rows else None
    margin_text = "none" if margin is None else f"{margin:.4f}"
    print(f"notebook reproduction in {out}: primal {report.objective:.4f}, "
          f"final margin {margin_text}, "
          f"optimal set verified: {face['verified']}")
    return outputs


def _reproduce_appendix(args, ds: Dataset, out: Path,
                        cfg: FlowConfig) -> list[str]:
    outputs = [_write_ellipsoid(out, ds.X, 1024, args)]
    masks = enumerate_masks(ds.X)
    _, lam, report, primal = _solve(args, ds, masks)
    (out / "primal.json").write_text(json.dumps(primal, indent=2) + "\n")
    outputs.append("primal.json")
    outputs.append(_write_extreme_points(out, ds.X, masks, lam, args))

    trace = run_flow(ds, cfg)
    _write_flow_trace(out / "flow_trace.csv", trace, ds.d, args)
    outputs.append("flow_trace.csv")
    print(f"{ds.name} reproduction in {out}: primal {report.objective:.4f}, "
          f"{len(masks)} arrangements")
    return outputs


def cmd_reproduce(args) -> tuple[Dataset, list[str]]:
    ds = builtin_dataset(args.target)
    # the flow configuration is checked before anything is solved or written
    if args.target == "notebook":
        reproduce = _reproduce_notebook
        cfg = FlowConfig(m=8, init_scale=args.init_scale, step=1.0,
                         iters=10_000, checkpoints=(10, 100, 1000, 10_000),
                         seed=args.seed)
    else:
        reproduce = _reproduce_appendix
        cfg = FlowConfig(m=10, init_scale=args.init_scale, step=0.1,
                         iters=10_000, checkpoints=(1, 10, 100, 1000, 10_000),
                         seed=args.seed)
    args.dataset = args.target
    return ds, reproduce(args, ds, _out_dir(args), cfg)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _tolerance(text: str) -> float:
    """A finite number > 0 (--tol, --tol-cert, --lambda-scale), else a
    usage error."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relu-lab",
        description="Convex max-margin ReLU training experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--dataset": dict(default="notebook",
                          help="built-in name or JSON file path"),
        "--tol": dict(type=_tolerance, default=DEFAULT_TOL,
                      help="solver tolerance (finite, > 0)"),
        "--m": dict(type=int, default=8, help="neuron count"),
        "--init-scale": dict(type=float, default=1e-4),
        "--step": dict(type=float, default=1.0),
        "--iters": dict(type=int, default=10_000),
        "--checkpoints": dict(default="", help="comma-separated iterations "
                              "in [1, --iters]; --iters is always recorded"),
        "--seed": dict(type=int, default=1),
        "--json": dict(action="store_true",
                       help="print machine-readable JSON"),
        "--out-dir": dict(default="", help="write outputs and manifest here"),
        "--deterministic": dict(action="store_true", help="omit CSV "
                                "timestamps and the manifest's wall_time"),
    }
    flow = ("--m", "--init-scale", "--step", "--iters", "--checkpoints",
            "--seed")
    written = ("--out-dir", "--deterministic")

    def add(p, *names):
        for name in names:
            p.add_argument(name, **shared[name])

    p = sub.add_parser("arrangements", help="enumerate activation masks")
    add(p, "--dataset", "--json")
    p.set_defaults(func=cmd_arrangements)

    p = sub.add_parser("solve", help="solve the convex max-margin program")
    add(p, "--dataset", "--tol")
    p.add_argument("--which", choices=("primal", "dual", "both"),
                   default="both")
    add(p, "--json", *written)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("flow", help="run the subgradient-descent simulator")
    add(p, "--dataset", *flow, *written)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("certify", help="certificates for a trained network")
    add(p, "--dataset")
    p.add_argument("--network", default="",
                   help="JSON file with W1 (d x m) and w2 (m)")
    add(p, *flow)
    p.add_argument("--lambda-scale", type=_tolerance, default=1.0,
                   help="scale the recovered dual (negative-control hook; "
                        "finite, > 0)")
    p.add_argument("--tol-cert", type=_tolerance, default=GAUGE_SOLVE_TOL,
                   help="dual-feasibility tolerance (finite, > 0)")
    add(p, "--json", *written)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("geometry-export",
                       help="rectified-ellipsoid trace and extreme points")
    add(p, "--dataset")
    p.add_argument("--samples", type=int, default=1024)
    add(p, *written)
    p.set_defaults(func=cmd_geometry_export,
                   out_dir="relu-lab-geometry-export")

    p = sub.add_parser("reproduce",
                       help="regenerate the reference experiment outputs")
    p.add_argument("target",
                   choices=("notebook", "appendix-ortho",
                            "appendix-nonspikefree"))
    add(p, "--tol", "--init-scale", "--seed", *written)
    p.set_defaults(func=cmd_reproduce, out_dir="relu-lab-reproduce")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        ds, outputs = args.func(args)
        if outputs:
            write_manifest(args, ds, outputs, time.perf_counter() - start)
    except FlowAborted:
        return EXIT_NUMERICAL
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateError, SolverError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
