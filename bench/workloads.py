"""The benchmark's workloads: seeded inputs, cases and correctness gates.

A workload turns a seed into a fixed list of cases, which a run executes in
several passes; ``PASS_SECONDS`` sets how many passes fill a traced run.  A
case is a callable that drives relu_lab's public API and returns a result
summary (compared bit for bit across the passes) or raises.  Each case also
has a gate that checks its summary and returns a list of problems (empty when
the output is correct).  Program calls go through module attributes
(``rl.arrangements.enumerate_masks``) so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import relu_lab.arrangements
import relu_lab.certify
import relu_lab.cli
import relu_lab.convex
import relu_lab.datasets
import relu_lab.flow
import relu_lab.geometry
import relu_lab.solver

rl = relu_lab

#: seconds one untraced pass over a workload's cases takes on a 2-CPU Xeon at
#: the seed commit; a traced run of --seconds s makes seconds / PASS_SECONDS
#: / 2 passes (at least one), each case once plain and once traced
PASS_SECONDS = {"reproduce": 3.0, "coverage-sweep": 8.0, "certify-d3": 6.0}

GAUGE_TOL = 1e-6        # dual-feasibility tolerance of criterion 09b
SPHERE_SAMPLES = 8192   # unit directions of the sampled gauge lower bound


class CaseFailure(Exception):
    """A program call reported failure without raising (exit code, status)."""


@dataclass
class Case:
    name: str
    run: Callable[[], dict]
    gate: Callable[[dict], list[str]]


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# ---------------------------------------------------------------------------
# reproduce: the paper's reference reproductions through the CLI
# ---------------------------------------------------------------------------

#: criterion 05 reference groups (sign -> direction), atol 0.02
APPENDIX_GROUPS = {
    "appendix-ortho": {"+": [0.58, -0.16], "-": [-0.23, 0.66]},
    "appendix-nonspikefree": {"+": [0.43, 0.59]},
}


def _read_outputs(out: Path) -> dict:
    """Every output file's bytes, the manifest without its wall_time."""
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        files[str(path.relative_to(out))] = data
    return files


def _cli_case(argv: list[str], out: Path) -> dict:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = rl.cli.main(argv + ["--out-dir", str(out), "--deterministic"])
    if code != 0:
        raise CaseFailure(f"exit code {code}: {sink.getvalue()[-300:]}")
    files = _read_outputs(out)
    return {"files": files, "bytes": sum(len(v) for v in files.values())}


def _gate_appendix(name: str):
    def gate(summary: dict) -> list[str]:
        groups = json.loads(summary["files"]["primal.json"])["groups"]
        want = APPENDIX_GROUPS[name]
        got = {g["sign"]: g["u"] for g in groups}
        if len(groups) != len(want) or set(got) != set(want):
            return [f"{name}: active groups {sorted(got)} != {sorted(want)}"]
        return [f"{name}: group {s} at {got[s]} not near {want[s]}"
                for s in want if not np.allclose(got[s], want[s], atol=0.02)]
    return gate


def _gate_notebook_solve(summary: dict) -> list[str]:
    sol = json.loads(summary["files"]["solution.json"])
    return [f"notebook {which} objective {sol[which]['objective']} not 2.0"
            for which in ("primal", "dual")
            if abs(sol[which]["objective"] - 2.0) > 1e-3]


#: split-invariant functionals of the notebook optimal set whose penalty
#: ladder converges at the seed commit: (label, masks summed, side, coord)
NOTEBOOK_FACES = (("positive_sum_coord1", ("100", "110"), "+", 0),
                  ("negative_sum_coord2", ("011", "111"), "-", 1))
FACE_SLACK = 5e-8       # the notebook reproduction's face slack


def _notebook_faces() -> dict:
    ds = rl.datasets.builtin_dataset("notebook")
    masks = rl.arrangements.enumerate_masks(ds.X)
    problem = rl.convex.build_primal(ds.X, ds.y, masks)
    _, _, report = rl.convex.solve_primal(problem)
    if report.status != "optimal":
        raise CaseFailure(f"notebook primal: {report.status}")
    bounds = {}
    for label, pair, side, coord in NOTEBOOK_FACES:
        f = np.zeros(problem.prog.num_vars)
        for j, mask in enumerate(masks):
            if mask.as_string() in pair:
                f[problem.group_slice(j, side)][coord] = 1.0
        bounds[label] = rl.solver.optimal_face_bounds(
            problem.prog, report.objective, f, slack=FACE_SLACK)
    return {"objective": report.objective, "bounds": bounds}


def _gate_faces(summary: dict) -> list[str]:
    # both functionals equal 1 on the whole optimal set
    return [f"face {k}: [{lo}, {hi}] does not pin 1.0 within 1e-3"
            for k, (lo, hi) in summary["bounds"].items()
            if not (hi - lo <= 1e-3 and lo - 1e-3 <= 1.0 <= hi + 1e-3)]


def reproduce_cases(seed: int, out: Path) -> list[Case]:
    """Four cases whose outputs are byte-identical in every pass."""
    cases = []
    for target in ("appendix-ortho", "appendix-nonspikefree"):
        argv = ["reproduce", target, "--seed", str(seed)]
        cases.append(Case(target,
                          lambda a=argv, o=out / target: _cli_case(a, o),
                          _gate_appendix(target)))
    argv = ["solve", "--dataset", "notebook", "--which", "both"]
    cases.append(Case("notebook-solve",
                      lambda: _cli_case(argv, out / "notebook-solve"),
                      _gate_notebook_solve))
    cases.append(Case("notebook-face", _notebook_faces, _gate_faces))
    return cases


# ---------------------------------------------------------------------------
# coverage-sweep: criterion 09b-shaped orthogonally separable d=2 data
# ---------------------------------------------------------------------------

def orthogonal_separable(rng: np.random.Generator, n_pos: int, n_neg: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Positives within 0.29 rad of a random unit v, negatives within 0.29
    rad of -v, norms in [0.5, 2]: same-label angles stay below pi/2 and
    cross-label angles above it."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    rows, labels = [], []
    for sign, count in ((1, n_pos), (-1, n_neg)):
        for _ in range(count):
            phi = theta + rng.uniform(-0.29, 0.29) + (0.0 if sign > 0 else np.pi)
            rows.append(rng.uniform(0.5, 2.0) * np.array([np.cos(phi), np.sin(phi)]))
            labels.append(sign)
    X, y = np.array(rows), np.array(labels, dtype=float)
    G = X @ X.T
    same = y[:, None] == y[None, :]
    if not (np.all(G[same] > 0) and np.all(G[~same] < 0)):
        raise AssertionError("generator produced a non-separable set")
    return X, y


def _coverage_case(X: np.ndarray, y: np.ndarray, flow_seed: int) -> dict:
    masks = rl.arrangements.enumerate_masks(X)
    cfg = rl.flow.FlowConfig(m=8, init_scale=1e-4, step=0.5, iters=4000,
                             checkpoints=(4000,), seed=flow_seed)
    ds = rl.datasets.Dataset(X=X, labels=y.astype(int))
    rec = rl.flow.run_flow(ds, cfg).final()
    params = rl.convex.NetworkParams(W1=rec.W1, w2=rec.w2)
    lam, gauge_net, gauge_all = rl.flow.recover_dual(X, y, params, masks)
    extraction = rl.certify.extract_kkt(X, y, rec.W1, rec.w2, lam)
    covered = rl.certify.ortho_coverage(extraction, y).verdict
    return {"masks": len(masks), "lam": lam.tobytes(), "gauge_net": gauge_net,
            "gauge_all": gauge_all, "covered": bool(covered)}


def _gate_coverage(summary: dict) -> list[str]:
    if summary["covered"] and not summary["gauge_all"] <= 1.0 + GAUGE_TOL:
        return [f"covered but gauge_all {summary['gauge_all']!r} > 1 + 1e-6"]
    return []


COVERAGE_CASES = 18


def coverage_cases(seed: int, out: Path) -> list[Case]:
    """Fresh datasets, two per (positives, negatives) in {1, 2, 3}^2."""
    cases = []
    for i in range(COVERAGE_CASES):
        n_pos, n_neg = 1 + i % 3, 1 + (i // 3) % 3
        rng = _rng(seed, i)
        X, y = orthogonal_separable(rng, n_pos, n_neg)
        flow_seed = int(rng.integers(0, 2**31))
        cases.append(Case(f"coverage-{i:03d}-p{n_pos}n{n_neg}",
                          lambda X=X, y=y, s=flow_seed: _coverage_case(X, y, s),
                          _gate_coverage))
    return cases


# ---------------------------------------------------------------------------
# certify-d3: arrangement enumeration and dual feasibility in d = 3
# ---------------------------------------------------------------------------

#: the dataset family of certify-d3: (N, d) of each member
CERTIFY_SHAPES = ((6, 3), (6, 3), (6, 3), (6, 4))
CERTIFY_FAMILY_SEED = 20211012


def certify_family() -> list[tuple[np.ndarray, np.ndarray]]:
    """Gaussian X and a sign-consistent unit dual lam, one per shape.

    The family is the same for every run seed: its members' conditioning
    sets how many PDHG iterations a gauge takes, and a run's cost should not
    hang on the luck of a draw of a few datasets."""
    family = []
    for i, (N, d) in enumerate(CERTIFY_SHAPES):
        rng = np.random.default_rng([CERTIFY_FAMILY_SEED, i])
        X = rng.standard_normal((N, d))
        y = rng.choice((-1.0, 1.0), size=N)
        lam = y * np.abs(rng.standard_normal(N))
        family.append((X, lam / np.linalg.norm(lam)))
    return family


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniformly random d x d rotation or reflection (QR of a Gaussian
    matrix with the signs of R's diagonal moved into Q)."""
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def general_position_masks(N: int, d: int) -> int:
    """Regions of a central arrangement of N hyperplanes in general position
    in R^d (Gaussian rows are, almost surely)."""
    return 2 * sum(math.comb(N - 1, k) for k in range(d))


def sampled_gauge_lower_bound(X: np.ndarray, lam: np.ndarray,
                              rng: np.random.Generator) -> float:
    """max |lam^T (X u)_+| over random unit u: every unit u lies in the cone
    of its own mask, so the polar gauge is at least this value."""
    U = rng.standard_normal((X.shape[1], SPHERE_SAMPLES))
    U /= np.linalg.norm(U, axis=0, keepdims=True)
    return float(np.abs(lam @ np.maximum(X @ U, 0.0)).max())


def gauge_slack(X: np.ndarray, lam: np.ndarray) -> float:
    """How far below the true gauge a subproblem solve that met the gauge
    tolerance may land.  Each subproblem has a unit-norm objective over the
    unit ball (|objective| <= 1); the stopping test bounds the relative gap
    by tol (1 + 2) and each relative residual by tol (1 + 1), so at most
    7 tol, times the largest objective norm ||X^T D lam|| <= ||X^T|| ||lam||.
    """
    return 7.0 * rl.geometry.GAUGE_SOLVE_TOL * float(
        np.linalg.norm(X, 2) * np.linalg.norm(lam))


def _certify_case(X: np.ndarray, lam: np.ndarray) -> dict:
    masks = rl.arrangements.enumerate_masks(X)
    cert = rl.certify.dual_feasible(X, masks, lam)
    return {"masks": masks, "slacks": cert.slacks,
            "gauge": max(cert.slacks.values()), "verdict": bool(cert.verdict)}


def _gate_certify(X: np.ndarray, lam: np.ndarray, lower_bound: float):
    def gate(summary: dict) -> list[str]:
        masks = summary["masks"]
        problems = [f"mask {m.as_string()} witness fails"
                    for m in masks
                    if not rl.arrangements.verify_mask_witness(X, m)]
        N, d = X.shape
        bound = rl.arrangements.cover_bound(N, rl.arrangements.matrix_rank(X))
        if len(masks) > bound:
            problems.append(f"{len(masks)} masks exceed the bound {bound:.1f}")
        if len(masks) != general_position_masks(N, d):
            problems.append(f"{len(masks)} masks, general position has "
                            f"{general_position_masks(N, d)}")
        if summary["gauge"] < lower_bound - gauge_slack(X, lam):
            problems.append(f"gauge {summary['gauge']!r} below the sampled "
                            f"lower bound {lower_bound!r}")
        return problems
    return gate


def certify_cases(seed: int, out: Path) -> list[Case]:
    """The dataset family in fresh coordinates: the seed draws, per member,
    a random rotation of R^d and a row order (the problem is equivalent, its
    floating-point input is new) and the sphere directions of the gauge's
    sampled lower bound."""
    cases = []
    for i, (X0, lam0) in enumerate(certify_family()):
        rng = _rng(seed, i)
        order = rng.permutation(X0.shape[0])
        X = X0[order] @ random_orthogonal(rng, X0.shape[1])
        lam = lam0[order]
        lower = sampled_gauge_lower_bound(X, lam, rng)
        cases.append(Case(f"certify-m{i}",
                          lambda X=X, lam=lam: _certify_case(X, lam),
                          _gate_certify(X, lam, lower)))
    return cases


def warm_up() -> None:
    """Touch every layer once on tiny inputs so lazy imports (HiGHS,
    scipy.special) and first-call costs land in set-up, not in a case."""
    X = np.array([[1.0, 0.2], [-0.3, 1.0]])
    y = np.array([1.0, -1.0])
    X3 = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]])
    masks = rl.arrangements.enumerate_masks(X)
    rl.convex.solve_primal(rl.convex.build_primal(X, y, masks), tol=1e-4)
    cfg = rl.flow.FlowConfig(m=2, iters=10, checkpoints=(10,), seed=0)
    ds = rl.datasets.Dataset(X=X, labels=y.astype(int))
    final = rl.flow.run_flow(ds, cfg).final()
    lam = rl.flow.lambda_tilde(X, y, rl.convex.NetworkParams(W1=final.W1,
                                                             w2=final.w2))
    rl.certify.extract_kkt(X, y, final.W1, final.w2, lam)
    rl.certify.dual_feasible(X3, rl.arrangements.enumerate_masks(X3),
                             np.array([0.3, -0.2]))
    with contextlib.redirect_stdout(io.StringIO()):
        rl.cli.main(["arrangements", "--dataset", "appendix-ortho"])


WORKLOADS = {
    "reproduce": reproduce_cases,
    "coverage-sweep": coverage_cases,
    "certify-d3": certify_cases,
}

#: layers (relu_lab modules) that must record spans on each workload
EXPECTED_LAYERS = {
    "reproduce": ("cli", "arrangements", "solver", "convex", "flow", "geometry"),
    "coverage-sweep": ("arrangements", "solver", "flow", "geometry", "certify"),
    "certify-d3": ("arrangements", "solver", "geometry", "certify"),
}


def traced_passes(name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[name] / 2))
