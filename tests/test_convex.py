import numpy as np
import pytest

import relu_lab.convex
from relu_lab.arrangements import ActivationMask, enumerate_masks
from relu_lab.certify import dual_feasible
from relu_lab.convex import (NetworkParams, build_primal, margin_objective,
                             solve_dual, solve_primal)
from relu_lab.datasets import builtin_dataset
from relu_lab.geometry import polar_gauge
from relu_lab.solver import DEFAULT_TOL, solve

from conftest import generic_gaussian_draws
from oracles import convex_from_network, group_cones, network_from_convex


def brute_force_single_mask_dual(X, y):
    """Grid + refinement for max y.lam s.t. lam >= 0 (y = 1), ||lam|| <= 1
    (the X = I, D = I reduction of the dual)."""
    best = -np.inf
    center = np.zeros(2)
    width = 1.0
    for _ in range(12):
        grid = np.linspace(-width, width, 41)
        for a in center[0] + grid:
            for b in center[1] + grid:
                lam = np.array([a, b])
                if np.all(lam >= -1e-12) and np.linalg.norm(lam) <= 1 + 1e-12:
                    val = float(y @ lam)
                    if val > best:
                        best = val
                        new_center = lam
        center = new_center
        width /= 4
    return best


class TestBuildPrimal:
    def test_notebook_shapes(self, notebook_solved):
        problem, _, _, _ = notebook_solved
        prog = problem.prog
        # 12 norm groups of 2; A x + b >= 0 holds the 3 margin rows alone
        assert prog.group == 2
        assert prog.A.shape == (3, 24)
        np.testing.assert_array_equal(prog.b, -np.ones(3))
        # each group's own cone: the 3 rows X, signed 2 D_j - I by its mask
        assert prog.signs.shape == (12, 3) and prog.rows.shape == (3, 2)
        assert np.all(prog.signs != 0)

    def test_counts_scale_with_masks(self, ortho_ds):
        masks = enumerate_masks(ortho_ds.X)
        prog = build_primal(ortho_ds.X, ortho_ds.y, masks).prog
        p, N, d = len(masks), ortho_ds.N, ortho_ds.d
        assert prog.A.shape == (N, 2 * p * d)
        assert prog.group == d
        assert prog.num_vars // prog.group == 2 * p == len(prog.signs)

    def test_one_cone_matrix_per_mask(self):
        # a 10 x 4 Gaussian set: 261 masks, so 522 groups of 4 variables;
        # A keeps its N rows, every group shares the cone rows X and both
        # groups of a mask share one sign row, 2 D_j - I
        X = np.random.default_rng([0, 247]).standard_normal((10, 4))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        masks = enumerate_masks(X)
        prog = build_primal(X, y, masks).prog
        assert len(masks) == 261
        assert prog.A.shape == (10, 2088)
        assert prog.rows is X
        assert prog.signs.dtype == np.int8 and prog.signs.shape == (522, 10)
        for j, mask in enumerate(masks):
            sign = 2.0 * mask.diag_vector() - 1.0
            np.testing.assert_array_equal(prog.signs[2 * j], sign)
            np.testing.assert_array_equal(prog.signs[2 * j + 1], sign)

    def test_single_all_ones_mask_identity_data(self):
        # reduces to min ||u'|| s.t. u' >= 1 componentwise
        X = np.eye(2)
        y = np.array([1.0, 1.0])
        masks = [ActivationMask(bits=(1, 1))]
        sol, _, report = solve_primal(build_primal(X, y, masks))
        assert report.objective == pytest.approx(np.sqrt(2.0), abs=1e-6)
        np.testing.assert_allclose(sol.x[0, 1], [1.0, 1.0], atol=1e-5)

    def test_empty_masks_rejected(self, notebook_ds):
        with pytest.raises(ValueError):
            build_primal(notebook_ds.X, notebook_ds.y, [])

    @pytest.mark.parametrize("name", ["notebook", "appendix-ortho",
                                      "appendix-nonspikefree"])
    def test_solution_matches_program_rows(self, name):
        # ConvexProblem.solution and outputs evaluate the margin rows that
        # A x + b holds and the cone rows of each group g, at the solved x
        ds = builtin_dataset(name)
        problem = build_primal(ds.X, ds.y, enumerate_masks(ds.X))
        prog = problem.prog
        sol, _, _ = solve_primal(problem)
        # sol.x is (p, 2, d), the flat x group by group: u_j, then u'_j
        assert sol.x.shape == (problem.p, 2, problem.d)
        groups = sol.x.reshape(-1, problem.d)
        x = sol.x.reshape(-1)
        slack = prog.A @ x + prog.b
        cone = np.concatenate([M @ g for M, g in zip(group_cones(prog),
                                                     groups)])
        scale = 1e-12 * (1.0 + np.abs(prog.A).sum(axis=1).max()
                         * np.abs(x).max())
        np.testing.assert_allclose(
            problem.y * problem.outputs(sol.x) - 1.0,
            slack, rtol=0.0, atol=scale)
        assert sol.margin_slack == pytest.approx(slack.min(), abs=scale)
        assert sol.cone_slack == cone.min()


class TestNotebookOptimum:
    def test_primal_value(self, notebook_solved):
        _, _, _, report = notebook_solved
        assert report.objective == pytest.approx(2.0, abs=1e-3)

    def test_margin_and_cone_feasibility(self, notebook_solved):
        _, sol, _, _ = notebook_solved
        assert sol.margin_slack >= -1e-6
        assert sol.cone_slack >= -1e-6

    def test_dual_socp_strong_duality(self, notebook_ds, notebook_masks,
                                      notebook_solved):
        _, _, _, report = notebook_solved
        lam, dobj, dreport = solve_dual(notebook_ds.X, notebook_ds.y,
                                        notebook_masks)
        assert dreport.status == "optimal"
        assert dobj == pytest.approx(report.objective, abs=1e-3)
        assert np.all(notebook_ds.y * lam >= -1e-6)

    def test_complementary_slackness(self, notebook_solved):
        problem, sol, lam, _ = notebook_solved
        outputs = sum(
            m.diag_vector() * (problem.X @ (sol.x[j, 1] - sol.x[j, 0]))
            for j, m in enumerate(problem.masks))
        margins = problem.y * outputs
        assert float(np.abs(lam * (margins - 1.0)).max()) <= 1e-6

    def test_active_groups_split_positive_neuron(self, notebook_solved):
        problem, sol, _, _ = notebook_solved
        total_pos = np.zeros(2)
        total_neg = np.zeros(2)
        for j, side, vec in sol.active_groups():
            if side == "+":
                total_pos += vec
            else:
                total_neg += vec
        np.testing.assert_allclose(total_pos, [1.0, 0.0], atol=1e-5)
        np.testing.assert_allclose(total_neg, [0.0, 1.0], atol=1e-5)


class TestCertifiedDual:
    @pytest.mark.parametrize("name", ["notebook", "appendix-ortho",
                                      "appendix-nonspikefree"])
    def test_exactly_dual_feasible(self, name):
        ds = builtin_dataset(name)
        masks = enumerate_masks(ds.X)
        lam, dobj, report = solve_dual(ds.X, ds.y, masks)
        assert report.status == "optimal"
        assert dual_feasible(ds.X, masks, lam, tol=1e-12).verdict
        assert np.all(ds.y * lam >= 0.0)
        # the one solve: solve_primal returns the same certified dual
        _, primal_lam, _ = solve_primal(build_primal(ds.X, ds.y, masks))
        assert np.array_equal(primal_lam, lam)
        if name == "notebook":
            # weak duality against the exact p* = 2
            assert 2.0 - 1e-6 <= dobj <= 2.0

    def test_scaled_by_the_exact_gauge(self, notebook_solved, monkeypatch):
        # the solve's multipliers are dual feasible (gauge <= 1), so lam is
        # y mu undivided; a stand-in solve that doubles them makes the gauge
        # 2, and the division by max(1, gauge) halves them back
        problem, _, lam, _ = notebook_solved
        x, mu, report = solve(problem.prog)
        gauge = polar_gauge(problem.X, problem.masks, problem.y * mu).gauge
        assert gauge <= 1.0
        np.testing.assert_array_equal(lam, problem.y * mu)
        doubled = polar_gauge(problem.X, problem.masks,
                              problem.y * 2.0 * mu).gauge
        assert doubled == pytest.approx(2.0 * gauge, rel=1e-15)
        monkeypatch.setattr(relu_lab.convex, "solve",
                            lambda prog, tol: (x, 2.0 * mu, report))
        _, halved, _ = solve_primal(problem)
        np.testing.assert_array_equal(halved,
                                      problem.y * (2.0 * mu / doubled))
        np.testing.assert_allclose(halved, lam, rtol=1e-15, atol=0.0)


class TestDualBruteForce:
    def test_identity_single_mask_value(self):
        X = np.eye(2)
        y = np.array([1.0, 1.0])
        masks = [ActivationMask(bits=(1, 1))]
        _, dobj, report = solve_dual(X, y, masks)
        assert report.status == "optimal"
        expected = brute_force_single_mask_dual(X, y)
        assert expected == pytest.approx(np.sqrt(2.0), abs=1e-3)
        assert dobj == pytest.approx(expected, abs=2e-3)
        assert dobj == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_origin_always_feasible(self, notebook_ds, notebook_masks):
        _, dobj, _ = solve_dual(notebook_ds.X, notebook_ds.y, notebook_masks)
        assert dobj >= 0.0


class TestAppendixOptima:
    def test_ortho_two_active_groups(self, ortho_ds):
        masks = enumerate_masks(ortho_ds.X)
        sol, _, report = solve_primal(build_primal(ortho_ds.X, ortho_ds.y,
                                                   masks))
        active = sol.active_groups()
        assert len(active) == 2
        values = {side: vec for _, side, vec in active}
        np.testing.assert_allclose(values["+"], [0.58, -0.16], atol=0.02)
        np.testing.assert_allclose(values["-"], [-0.23, 0.66], atol=0.02)

    def test_nonspikefree_single_group(self, nonspikefree_ds):
        ds = nonspikefree_ds
        masks = enumerate_masks(ds.X)
        sol, _, report = solve_primal(build_primal(ds.X, ds.y, masks))
        active = sol.active_groups()
        assert len(active) == 1
        _, side, vec = active[0]
        assert side == "+"
        np.testing.assert_allclose(vec, [0.43, 0.59], atol=0.02)

    def test_strong_duality_both(self, ortho_ds, nonspikefree_ds):
        for ds in (ortho_ds, nonspikefree_ds):
            masks = enumerate_masks(ds.X)
            _, _, rp = solve_primal(build_primal(ds.X, ds.y, masks))
            _, dobj, rd = solve_dual(ds.X, ds.y, masks)
            assert dobj == pytest.approx(rp.objective, abs=1e-4)


#: exact optimal values of the built-in datasets
EXACT_P_STAR = {"notebook": 2.0, "appendix-ortho": 1.2824322246768,
                "appendix-nonspikefree": 0.7335818971258}

CERTIFIED_SETS = list(EXACT_P_STAR) + [f"draw{i}" for i in range(10)]


def certified_set(name):
    """(X, y) of a built-in dataset or a generic Gaussian draw."""
    if name.startswith("draw"):
        return generic_gaussian_draws()[int(name[4:])]
    ds = builtin_dataset(name)
    return ds.X, ds.y


def solved(X, y):
    masks = enumerate_masks(X)
    sol, lam, report = solve_primal(build_primal(X, y, masks))
    assert report.status == "optimal"
    return masks, sol, lam, report


class TestCertifiedPair:
    """solve_primal's point and lam certify each other: both feasible, the
    objective above y^T lam by at most the certified gap."""

    @pytest.mark.parametrize("name", CERTIFIED_SETS)
    def test_objective_is_an_upper_bound(self, name):
        X, y = certified_set(name)
        _, sol, lam, report = solved(X, y)
        dual = float(y @ lam)
        assert sol.objective == report.objective
        assert dual <= report.objective
        assert report.objective <= dual + DEFAULT_TOL * (1.0 + report.objective)

    @pytest.mark.parametrize("draw", range(10))
    def test_generic_draws_certify_themselves(self, draw):
        X, y = generic_gaussian_draws()[draw]
        masks, sol, lam, report = solved(X, y)
        assert sol.margin_slack >= 0.0          # every margin >= 1
        assert sol.cone_slack >= -1e-12
        assert polar_gauge(X, masks, lam).gauge <= 1.0
        assert np.all(y * lam >= 0.0)
        assert abs(report.objective - float(y @ lam)) <= 1e-9 * (
            1.0 + report.objective)

    @pytest.mark.parametrize("name", list(EXACT_P_STAR))
    def test_exact_optimal_value(self, name):
        X, y = certified_set(name)
        _, _, lam, report = solved(X, y)
        assert abs(report.objective - EXACT_P_STAR[name]) <= 1e-12
        assert abs(float(y @ lam) - EXACT_P_STAR[name]) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_scaled_row(self, notebook_ds, scale):
        # the optimal network's output weight on x_0 grows by 1 / scale
        X = notebook_ds.X.copy()
        X[0] *= scale
        _, _, lam, report = solved(X, notebook_ds.y)
        assert report.objective == pytest.approx(1.0 + 1.0 / scale, rel=1e-9)
        assert float(notebook_ds.y @ lam) == pytest.approx(
            1.0 + 1.0 / scale, rel=1e-9)


class TestNetworkConversions:
    def test_roundtrip_identity_mask_distinct(self, ortho_ds):
        # the appendix optimum has strictly interior cones, so every neuron's
        # strict pattern identifies its group and the roundtrip is exact
        masks = enumerate_masks(ortho_ds.X)
        sol, _, report = solve_primal(build_primal(ortho_ds.X, ortho_ds.y,
                                                   masks))
        net = network_from_convex(sol)
        back = convex_from_network(build_primal(ortho_ds.X, ortho_ds.y, masks),
                                   net.W1, net.w2)
        assert back.objective == pytest.approx(report.objective, abs=1e-6)
        for j in range(len(masks)):
            np.testing.assert_allclose(back.x[j, 0], sol.x[j, 0], atol=1e-6)
            np.testing.assert_allclose(back.x[j, 1], sol.x[j, 1], atol=1e-6)

    def test_roundtrip_preserves_objective_on_split_optimum(
            self, notebook_ds, notebook_masks, notebook_solved):
        # the notebook optimum splits each neuron across boundary-equivalent
        # masks; the roundtrip re-merges the mass (lexicographically smallest
        # matching mask) but preserves the objective and the network
        problem, sol, _, report = notebook_solved
        net = network_from_convex(sol)
        back = convex_from_network(problem, net.W1, net.w2)
        assert back.objective == pytest.approx(report.objective, abs=1e-6)
        assert back.margin_slack >= -1e-6
        total = sum(back.x[j, 1] - back.x[j, 0]
                    for j in range(len(notebook_masks)))
        expected = sum(sol.x[j, 1] - sol.x[j, 0]
                       for j in range(len(notebook_masks)))
        np.testing.assert_allclose(total, expected, atol=1e-6)

    def test_network_margin_and_norm(self, notebook_ds, notebook_solved):
        _, sol, _, report = notebook_solved
        net = network_from_convex(sol)
        margins = notebook_ds.y * net.forward(notebook_ds.X)
        assert margins.min() >= 1.0 - 1e-6
        half_norm = 0.5 * (np.sum(net.W1 ** 2) + np.sum(net.w2 ** 2))
        assert half_norm == pytest.approx(report.objective, abs=1e-6)

    def test_all_zero_solution_rejected(self, notebook_solved):
        _, sol, _, _ = notebook_solved
        zero = type(sol)(x=np.zeros((6, 2, 2)), objective=0.0,
                         margin_slack=-1.0, cone_slack=0.0)
        with pytest.raises(ValueError):
            network_from_convex(zero)

    def test_equal_mask_neurons_merge(self, notebook_masks, notebook_solved):
        # two positive neurons with the same activation pattern sum into one
        # group whose norm obeys the triangle inequality
        w1a = np.array([2.0, -1.0])
        w1b = np.array([1.0, -0.2])
        W1 = np.stack([w1a, w1b], axis=1)
        w2 = np.array([0.5, 1.5])
        sol = convex_from_network(notebook_solved[0], W1, w2)
        j = next(j for j, m in enumerate(notebook_masks)
                 if m.as_string() == "100")
        expected = w1a * 0.5 + w1b * 1.5
        np.testing.assert_allclose(sol.x[j, 1], expected, atol=1e-12)
        assert np.linalg.norm(expected) <= (
            np.linalg.norm(w1a * 0.5) + np.linalg.norm(w1b * 1.5))

    def test_zero_network_zero_solution(self, notebook_solved):
        sol = convex_from_network(notebook_solved[0], np.zeros((2, 3)),
                                  np.zeros(3))
        assert sol.objective == 0.0
        # every output is 0, so the least margin misses 1 by 1
        assert sol.margin_slack == -1.0 and sol.cone_slack == 0.0

    def test_unrealizable_mask_rejected(self, notebook_ds, notebook_masks):
        # direction with pattern 101 is not realizable; restrict the list so
        # no completion matches either
        short = [m for m in notebook_masks if m.as_string() == "000"]
        problem = build_primal(notebook_ds.X, notebook_ds.y, short)
        with pytest.raises(ValueError):
            convex_from_network(problem, np.array([[1.0], [0.0]]),
                                np.array([1.0]))


class TestNetworkParams:
    @pytest.mark.parametrize("W1, w2, match", [
        (np.zeros(2), np.zeros(1), "d x m"),
        (np.zeros((2, 3)), np.zeros(2), "d x m"),
        (np.zeros((2, 1)), np.zeros((1, 1)), "d x m"),
        (np.zeros((2, 0)), np.zeros(0), "at least one neuron"),
        (np.full((2, 1), np.nan), np.zeros(1), "non-finite")])
    def test_shapes_and_values_checked(self, W1, w2, match):
        with pytest.raises(ValueError, match=match):
            NetworkParams(W1=W1, w2=w2)


class TestMarginObjective:
    def test_optimal_network_value(self, notebook_ds):
        W1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        w2 = np.array([1.0, -1.0])
        result = margin_objective(notebook_ds.X, notebook_ds.y, W1, w2)
        assert result is not None
        net, value = result
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_balancing_preserves_outputs(self, notebook_ds):
        rng = np.random.default_rng(8)
        W1 = rng.normal(size=(2, 4))
        w2 = rng.normal(size=4)
        before = np.maximum(notebook_ds.X @ W1, 0.0) @ w2
        result = margin_objective(notebook_ds.X, notebook_ds.y, W1, w2)
        if result is None:
            return
        net, value = result
        c = float(np.min(notebook_ds.y * before))
        np.testing.assert_allclose(net.forward(notebook_ds.X), before / c,
                                   atol=1e-9)
        half_norm = 0.5 * (np.sum(net.W1 ** 2) + np.sum(net.w2 ** 2))
        assert value == pytest.approx(half_norm, abs=1e-9)

    def test_all_zero_network_returns_none(self, notebook_ds):
        # no neuron has both weights nonzero, so nothing separates
        for W1, w2 in ((np.zeros((2, 2)), np.ones(2)),
                       (np.ones((2, 2)), np.zeros(2))):
            assert margin_objective(notebook_ds.X, notebook_ds.y, W1,
                                    w2) is None

    def test_non_separating_returns_none(self, notebook_ds):
        W1 = np.array([[1.0], [0.0]])
        w2 = np.array([-1.0])  # wrong sign on the positive sample
        assert margin_objective(notebook_ds.X, notebook_ds.y, W1, w2) is None

    def test_weak_duality_of_margins(self, notebook_ds, notebook_masks,
                                     notebook_solved):
        # any separating network's margin value is at least the optimum
        _, _, _, report = notebook_solved
        rng = np.random.default_rng(21)
        found = 0
        while found < 5:
            W1 = np.array([[1.0, 0.0], [0.0, 1.0]]) + 0.2 * rng.normal(size=(2, 2))
            w2 = np.array([1.0, -1.0]) + 0.1 * rng.normal(size=2)
            result = margin_objective(notebook_ds.X, notebook_ds.y, W1, w2)
            if result is None:
                continue
            found += 1
            assert result[1] >= report.objective - 1e-6
