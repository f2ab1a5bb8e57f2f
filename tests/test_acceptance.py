"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Criterion 09a checks the spike-free verdicts against the exact 2x2 maximum
of ||z||. The second reference matrix (`appendix-nonspikefree`) is boundary
spike-free, max ||z|| = 1: its rows have a positive inner product, so the
clipped branch peaks on the other row's normal, where z = u. 09a checks it
as such.
"""

import time

import numpy as np
import pytest

from conftest import GD_SEED, random_orthogonal_separable
from oracles import (convex_kkt_residuals, g_min_max, network_from_convex,
                     positive_support, stationary_directions, sweep_masks)
from relu_lab.arrangements import (cover_bound, enumerate_masks,
                                   enumerate_sign_patterns, matrix_rank)
from relu_lab.certify import extract_kkt, ortho_coverage, spike_free
from relu_lab.cli import FACE_TOL, notebook_face_functionals
from relu_lab.convex import (NetworkParams, build_primal, solve_dual,
                             solve_primal)
from relu_lab.flow import FlowConfig, recover_dual, run_flow
from relu_lab.geometry import GAUGE_SOLVE_TOL
from relu_lab.solver import optimal_face_bounds

#: values of the notebook pair-sum face functionals on the optimal set; every
#: other (inactive) coordinate is 0 there; criterion 03 holds the width and
#: position of each face interval to FACE_TOL
PAIR_SUM_TARGETS = {"positive_sum_coord1": 1.0, "positive_sum_coord2": 0.0,
                    "negative_sum_coord1": 0.0, "negative_sum_coord2": 1.0}


def verdict(num: str, ok: bool, desc: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


@pytest.fixture(scope="module")
def alignment_traces(ortho_ds):
    out = {}
    for eps in (1e-4, 1e-6):
        cfg = FlowConfig(m=8, init_scale=eps, step=0.1, iters=100_000,
                         checkpoints=(100_000,), seed=GD_SEED)
        out[eps] = run_flow(ortho_ds, cfg)
    return out


def test_criterion_01_notebook_primal_and_dual(notebook_ds, notebook_masks):
    start = time.perf_counter()
    problem = build_primal(notebook_ds.X, notebook_ds.y, notebook_masks)
    sol, dual, report = solve_primal(problem)
    dv, dobj, dreport = solve_dual(notebook_ds.X, notebook_ds.y,
                                   notebook_masks)
    elapsed = time.perf_counter() - start
    ok_primal = abs(report.objective - 2.0) <= 1e-3
    ok_duality = abs(dobj - report.objective) <= 1e-3
    ok_time = elapsed < 10.0
    ok = verdict("01", ok_primal and ok_duality and ok_time,
                 f"primal {report.objective:.6f}, dual {dobj:.6f}, "
                 f"{elapsed:.2f}s")
    assert ok


def test_criterion_02_arrangement_enumeration(notebook_ds):
    masks = enumerate_masks(notebook_ds.X)
    ok_notebook = [m.as_string() for m in masks] == [
        "000", "001", "011", "100", "110", "111"]
    rng = np.random.default_rng(2024)
    ok_oracle = True
    for _ in range(20):
        N = int(rng.integers(2, 9))
        X = rng.normal(size=(N, 2))
        exact = [m.bits for m in enumerate_masks(X)]
        sweep = [m.bits for m in sweep_masks(X)]
        ok_oracle = ok_oracle and (exact == sweep)
    ok = verdict("02", ok_notebook and ok_oracle,
                 "6 reference masks; enumerator == sweep on 20 random sets")
    assert ok


def test_criterion_03_optimal_set_verification(notebook_solved):
    problem, _, _, report = notebook_solved
    ok = True
    details = []
    labels, functionals = zip(*notebook_face_functionals(problem))
    bounds = optimal_face_bounds(problem.prog, report.objective,
                                 np.array(functionals))
    for label, (lo, hi) in zip(labels, bounds):
        if label in PAIR_SUM_TARGETS:
            target = PAIR_SUM_TARGETS[label]
            ok = ok and (hi - lo <= FACE_TOL) and abs(lo - target) <= FACE_TOL \
                and abs(hi - target) <= FACE_TOL
            details.append(f"{label}:[{lo:+.7f},{hi:+.7f}]")
        else:
            ok = ok and (-FACE_TOL <= lo <= hi <= FACE_TOL)
    # 4 pair sums and 16 inactive coordinates (6 masks, 2 sides, d = 2)
    ok = ok and len(labels) == 20 and set(PAIR_SUM_TARGETS) <= set(labels)
    ok = verdict("03", ok, "active pair sums pinned to [1,0]/[0,1], "
                           "inactive coordinates within 1e-6 "
                 + " ".join(details))
    assert ok


def test_criterion_04_gd_property_band(notebook_ds, notebook_masks,
                                       notebook_flow):
    margins = [rec.margin for rec in notebook_flow.records
               if rec.iteration > 0]
    final_loss = notebook_flow.final().loss
    ok_loss = final_loss <= 1e-4
    ok_margins = (all(m is not None for m in margins)
                  and all(a > b for a, b in zip(margins, margins[1:]))
                  and 2.0 <= margins[-1] <= 2.10)
    ok_duals = True
    for rec in notebook_flow.records:
        if rec.iteration == 0:
            continue
        params = NetworkParams(W1=rec.W1, w2=rec.w2)
        _, _, gauge_all = recover_dual(notebook_ds.X, notebook_ds.y, params,
                                       notebook_masks)
        ok_duals = ok_duals and gauge_all <= 1.0 + GAUGE_SOLVE_TOL
    ok = verdict("04", ok_loss and ok_margins and ok_duals,
                 f"loss {final_loss:.2e}, margins "
                 f"{['%0.3f' % m for m in margins]}, duals feasible")
    assert ok


def test_criterion_05_appendix_solutions(ortho_ds, nonspikefree_ds):
    masks_o = enumerate_masks(ortho_ds.X)
    sol_o, _, _ = solve_primal(build_primal(ortho_ds.X, ortho_ds.y, masks_o))
    active_o = sol_o.active_groups()
    vals = {side: vec for _, side, vec in active_o}
    ok_ortho = (len(active_o) == 2
                and np.allclose(vals["+"], [0.58, -0.16], atol=0.02)
                and np.allclose(vals["-"], [-0.23, 0.66], atol=0.02))
    masks_n = enumerate_masks(nonspikefree_ds.X)
    sol_n, _, _ = solve_primal(build_primal(nonspikefree_ds.X,
                                            nonspikefree_ds.y, masks_n))
    active_n = sol_n.active_groups()
    ok_nsf = (len(active_n) == 1
              and np.allclose(active_n[0][2], [0.43, 0.59], atol=0.02))
    ok = verdict("05", ok_ortho and ok_nsf,
                 "two groups near [0.58,-0.16]/[-0.23,0.66]; "
                 "one group near [0.43,0.59]")
    assert ok


def test_criterion_06_alignment_condition(ortho_ds, alignment_traces):
    ok = True
    detail = []
    for eps, trace in alignment_traces.items():
        init = trace.records[0]
        final = trace.final()
        # neurons with sign(y^T (X w1_i)_+) == sign(w2_i), both nonzero, at
        # initialization
        qualifying = []
        for i, w2 in enumerate(init.w2):
            v = float(ortho_ds.y @ np.maximum(ortho_ds.X @ init.W1[:, i], 0.0))
            if v != 0.0 and w2 != 0.0 and np.sign(v) == np.sign(w2):
                qualifying.append(i)
        best = max((final.neurons[i].alignment for i in qualifying
                    if final.neurons[i].alignment is not None),
                   default=-np.inf)
        ok = ok and qualifying != [] and best >= 0.95
        detail.append(f"eps={eps:g}: align {best:.6f}")
    ok = verdict("06", ok, "; ".join(detail))
    assert ok


def test_criterion_07_balance_conservation(notebook_ds, notebook_flow,
                                           alignment_traces):
    cfg_half = FlowConfig(m=8, init_scale=1e-4, step=0.5, iters=20_000,
                          checkpoints=(20_000,), seed=GD_SEED)
    half = run_flow(notebook_ds, cfg_half)
    ratio = notebook_flow.max_balance_drift / half.max_balance_drift
    ok_ratio = 1.6 <= ratio <= 2.4
    ok_flips = (notebook_flow.w2_sign_flips == 0
                and all(t.w2_sign_flips == 0
                        for t in alignment_traces.values()))
    ok = verdict("07", ok_ratio and ok_flips,
                 f"drift ratio {ratio:.3f}, sign flips "
                 f"{notebook_flow.w2_sign_flips}")
    assert ok


def test_criterion_08_fixed_point_and_kkt(notebook_ds, notebook_masks,
                                          notebook_solved, ortho_ds):
    # the exact stationary sets contain the reference neuron directions
    lam_o = ortho_ds.y / np.linalg.norm(ortho_ds.y)
    fp = 0.0
    for X, masks, lam, target in (
            (notebook_ds.X, notebook_masks, notebook_ds.y / 4.0, [1.0, 0.0]),
            (ortho_ds.X, enumerate_masks(ortho_ds.X), lam_o,
             [0.96174359, -0.27395121])):
        found = stationary_directions(X, masks, lam)
        fp = max(fp, min((float(np.linalg.norm(u - target))
                          for u, _ in found), default=np.inf))
    ok_fp = fp <= 1e-8
    # KKT extraction at the solved optimum
    problem, sol, lam, _ = notebook_solved
    net = network_from_convex(sol)
    ex = extract_kkt(notebook_ds.X, notebook_ds.y, net.W1, net.w2, lam)
    direction = max(n.direction_residual for n in ex.neurons)
    ok_extract = (direction <= 1e-5
                  and max(n.norm_residual for n in ex.neurons) <= 1e-5)
    families = max(convex_kkt_residuals(problem, sol, lam).values())
    ok_kkt = families <= 1e-4
    ok = verdict("08", ok_fp and ok_extract and ok_kkt,
                 f"fixed-point {fp:.1e}, extraction {direction:.1e}, "
                 f"families {families:.1e}")
    assert ok


def _max_z_norm_2x2(X: np.ndarray) -> float:
    """Exact max ||z|| over z = X^-1 (Xu)_+, ||u|| <= 1, for invertible 2x2 X.

    Where Xu >= 0, z = u. Where only row i is positive, z lies on the unit
    normal n_j of the other row and ||z|| = x_i^T u / |x_i^T n_j|. Over the
    half-disc x_j^T u <= 0 that ratio peaks at 1/|sin theta| (u along x_i)
    when x_1^T x_2 < 0, and at 1 (u on n_j, where z = u) otherwise.
    """
    x1, x2 = np.asarray(X, dtype=float)
    if x1 @ x2 >= 0.0:
        return 1.0
    sin_theta = abs(np.linalg.det(X)) / (np.linalg.norm(x1)
                                         * np.linalg.norm(x2))
    return 1.0 / sin_theta


def test_criterion_09a_spike_free_verdicts(ortho_ds, nonspikefree_ds):
    # the second matrix is boundary spike-free (rows at an acute angle, so
    # max ||z|| = 1) and is checked as such; appendix-ortho's rows are at an
    # obtuse angle, so its max ||z|| = 1/|sin theta| > 1
    identity = spike_free(np.eye(2))
    ortho = spike_free(ortho_ds.X)
    second = spike_free(nonspikefree_ds.X)
    exact = [_max_z_norm_2x2(X)
             for X in (np.eye(2), ortho_ds.X, nonspikefree_ds.X)]
    ok_exact = exact[0] == 1.0 and exact[1] > 1.0 and exact[2] == 1.0
    ok_identity = identity.verdict and identity.slacks["max_z_norm"] == \
        pytest.approx(exact[0], abs=1e-12)
    ok_ortho = not ortho.verdict and ortho.slacks["max_z_norm"] == \
        pytest.approx(exact[1], rel=1e-6)
    ok_second = second.verdict and second.slacks["max_z_norm"] == \
        pytest.approx(exact[2], abs=1e-9)
    ok = verdict("09a", ok_exact and ok_identity and ok_ortho and ok_second,
                 f"I2 {identity.verdict}, ortho {ortho.verdict}, second "
                 f"{second.verdict} (second matrix is boundary spike-free)")
    assert ok


def test_criterion_09b_coverage_implies_feasibility(notebook_ds, ortho_ds):
    rng = np.random.default_rng(99)
    checked = 0
    covered = 0
    ok = True
    cases = [(notebook_ds.X, notebook_ds.y), (ortho_ds.X, ortho_ds.y)]
    while len(cases) < 52:
        cases.append(random_orthogonal_separable(
            rng, int(rng.integers(1, 4)), int(rng.integers(1, 4))))
    for X, y in cases:
        masks = enumerate_masks(X)
        cfg = FlowConfig(m=8, init_scale=1e-4, step=0.5, iters=4000,
                         checkpoints=(4000,), seed=GD_SEED)
        from relu_lab.datasets import Dataset
        rec = run_flow(Dataset(X=X, labels=y.astype(int)), cfg).final()
        params = NetworkParams(W1=rec.W1, w2=rec.w2)
        lam, _, gauge_all = recover_dual(X, y, params, masks)
        ex = extract_kkt(X, y, rec.W1, rec.w2, lam)
        checked += 1
        if ortho_coverage(ex, y).verdict:
            covered += 1
            ok = ok and (gauge_all <= 1.0 + GAUGE_SOLVE_TOL)
    ok = ok and covered >= 40  # the implication must actually fire
    ok = verdict("09b", ok,
                 f"{covered}/{checked} covered, all covered duals feasible")
    assert ok


def test_criterion_10_bound_and_gmin(notebook_ds):
    rng = np.random.default_rng(7)
    ok_bound = True
    for _ in range(50):
        N = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(N, d))
        p = len(enumerate_masks(X))
        ok_bound = ok_bound and p <= cover_bound(N, matrix_rank(X))
    pats = enumerate_sign_patterns(notebook_ds.X)
    gmin, gmax, minimizers, _ = g_min_max(notebook_ds.X, notebook_ds.y, pats)
    supports = {positive_support(p.signs) for p in minimizers}
    ok_gmin = abs(gmin - 0.25) <= 1e-12 and (0,) in supports
    ok = verdict("10", ok_bound and ok_gmin,
                 f"|P| <= bound on 50 sets; g_min {gmin} with support {{0}}")
    assert ok
