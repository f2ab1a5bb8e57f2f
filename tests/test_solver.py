import itertools

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import linprog

import relu_lab.solver
from conftest import generic_gaussian_draws, random_orthogonal_separable
from oracles import group_cones
from relu_lab.arrangements import enumerate_masks
from relu_lab.cli import notebook_face_functionals
from relu_lab.convex import build_primal, solve_primal
from relu_lab.datasets import builtin_dataset
from relu_lab.solver import (DEFAULT_TOL, FEASIBLE_TOL, INFEASIBLE_TOL,
                             ConeProgram, DegenerateError, InconclusiveError,
                             SolverError, _highs, lp_feasible,
                             optimal_face_bounds, solve)


def free_groups(n, group=1):
    """The cone rows and signs of n / group norm groups without cone rows."""
    return {"rows": np.zeros((0, group)),
            "signs": np.zeros((n // group, 0), dtype=np.int8)}


def l1_program(A, b):
    """min ||x||_1  s.t.  A x + b >= 0: one norm group per variable."""
    A = np.asarray(A, float)
    return ConeProgram(A=A, b=np.asarray(b, float), group=1,
                       **free_groups(A.shape[1]))


def highs_l1(A, b):
    """Exact optimum of l1_program(A, b) by HiGHS on the split LP
    x = x+ - x-:  min 1^T (x+ + x-)  s.t.  A (x+ - x-) + b >= 0, x+- >= 0."""
    n = A.shape[1]
    res = linprog(np.ones(2 * n), A_ub=-np.hstack((A, -A)), b_ub=b,
                  bounds=(0.0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def brute_force_l1(A, b):
    """min ||x||_1 over {Ax + b >= 0} by vertex enumeration: the optimum is
    a vertex of the polyhedron cut by one closed orthant, so n of the rows
    of A and the coordinate planes x_i = 0 meet there."""
    m, n = A.shape
    rows = np.vstack((A, np.eye(n)))
    rhs = np.concatenate((b, np.zeros(n)))
    best = np.inf
    for idx in itertools.combinations(range(m + n), n):
        sub = rows[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, -rhs[list(idx)])
        if np.all(A @ x + b >= -1e-9):
            best = min(best, float(np.abs(x).sum()))
    return best


def random_l1(rng, m, n):
    """A, b with a feasible point x0 (slack in [0, 1)) and b of both signs,
    so x = 0 is not feasible in general."""
    A = rng.normal(size=(m, n))
    b = -A @ rng.normal(size=n) + rng.uniform(0.0, 1.0, size=m)
    return A, b


def polygon_lp(prog, K, f=None, budget=np.inf):
    """HiGHS on the relaxation of {A x + b >= 0, x_g in each group's cone,
    sum_g ||x_g|| <= budget} (norm groups of 2 variables) that replaces each
    disc ||x_g|| <= t_g by the circumscribed regular K-gon: min f^T x, or
    min sum_g t_g when f is None.  Returns (value, x)."""
    assert prog.group == 2
    rows = np.vstack((prog.A, block_diag(*group_cones(prog))))
    (m, n), G = rows.shape, prog.num_vars // 2
    angles = 2.0 * np.pi * np.arange(K) / K
    dirs = np.column_stack((np.cos(angles), np.sin(angles)))
    polygon = np.zeros((K * G, n + G))          # dirs x_g - t_g <= 0
    for g in range(G):
        polygon[g * K:(g + 1) * K, 2 * g:2 * g + 2] = dirs
        polygon[g * K:(g + 1) * K, n + g] = -1.0
    A_ub = np.vstack((np.hstack((-rows, np.zeros((m, G)))), polygon))
    b_ub = np.concatenate((prog.b, np.zeros(m - len(prog.b) + K * G)))
    if np.isfinite(budget):
        A_ub = np.vstack((A_ub, np.r_[np.zeros(n), np.ones(G)]))
        b_ub = np.append(b_ub, budget)
    c = np.r_[np.zeros(n), np.ones(G)] if f is None else np.r_[f, np.zeros(G)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, method="highs",
                  bounds=[(None, None)] * n + [(0.0, None)] * G)
    assert res.status == 0
    return float(res.fun), res.x[:n]


def ladder_lower_bound(prog, budget, f):
    """Certified lower bound on min f^T x over {x feasible, objective <=
    budget}: the outer-bound oracle of the optimal-face bounds.

    Polygon ladder: each rung is the K-gon relaxation of :func:`polygon_lp`,
    an LP whose value bounds the minimum from below.  K climbs 8, 32, 128,
    512; each rung's polygon lies inside the one before, so the bounds
    rise up to HiGHS's feasibility tolerance 1e-7, and the best is kept."""
    bounds = [polygon_lp(prog, K, f, budget)[0] for K in (8, 32, 128, 512)]
    assert np.all(np.diff(bounds) >= -1e-7)
    return max(bounds)


def assert_inside_ladder(prog, p_star, f, slack):
    lo, hi = optimal_face_bounds(prog, p_star, f, slack=slack)
    # the face bounds lift p_star to the exact optimum; the objective of a
    # feasible point (the minimizer of the 512-gon relaxation) is above it
    budget = max(p_star, prog.objective(polygon_lp(prog, 512)[1])) + slack
    outer_lo = ladder_lower_bound(prog, budget, f)
    outer_hi = -ladder_lower_bound(prog, budget, -f)
    # on a single-point face the two LP ends may cross by HiGHS's rounding
    assert outer_lo <= lo <= hi + 1e-12 and hi <= outer_hi


def unit_weight_program(a):
    """min sum |x_i|  s.t.  a^T x >= 1: one norm group per variable, no
    group rows; the optimal face puts all weight on the largest a_i."""
    a = np.asarray(a, dtype=float)
    return ConeProgram(A=a[None, :], b=-np.ones(1), group=1,
                       **free_groups(len(a)))


class TestSolveLP:
    """The column-generation solve on min ||x||_1 s.t. Ax + b >= 0
    (group = 1) against exact references: HiGHS on the split LP and vertex
    enumeration; then trivial and infeasible programs."""

    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(12):
            A, b = random_l1(rng, 9, 4)
            expected = highs_l1(A, b)
            assert brute_force_l1(A, b) == pytest.approx(expected, abs=1e-9)
            x, mu, rep = solve(l1_program(A, b), tol=1e-9)
            assert rep.status == "optimal"
            assert rep.objective == pytest.approx(expected, abs=1e-9)
            assert float(np.abs(x).sum()) == pytest.approx(expected, abs=1e-9)

    def test_multipliers_sign_and_complementarity(self):
        rng = np.random.default_rng(1)
        A, b = random_l1(rng, 8, 3)
        x, mu, rep = solve(l1_program(A, b), tol=1e-9)
        assert rep.status == "optimal"
        assert np.all(mu >= 0.0)
        assert float(np.abs(mu * (A @ x + b)).max()) <= 1e-9
        # A^T mu is a sub-gradient of ||x||_1 at x
        assert np.abs(A.T @ mu).max() <= 1.0 + 1e-12
        assert np.allclose((A.T @ mu)[x != 0], np.sign(x[x != 0]))
        # weak duality is tight: -b^T mu is the exact optimum
        assert -float(b @ mu) == pytest.approx(highs_l1(A, b), abs=1e-9)

    def test_min_norm_unconstrained_is_zero(self):
        for A, b, group in ((np.zeros((1, 3)), np.zeros(1), 1),
                            (np.zeros((2, 4)), np.zeros(2), 2)):
            x, mu, rep = solve(ConeProgram(
                A=A, b=b, group=group, **free_groups(A.shape[1], group)))
            np.testing.assert_array_equal(x, 0.0)
            assert rep.status == "optimal"     # A = 0 and b >= 0
            assert rep.objective == 0.0 and rep.gap == 0.0

    def test_zero_matrix_unsolvable_is_not_optimal(self):
        # the row 0 x - 1 >= 0 holds for no x; the phase-1 LP proves it in
        # round 2, where the master binds its box again with no feasible
        # face point (round 1's master, without cuts, binds it on every
        # program)
        prog = ConeProgram(A=np.zeros((1, 2)), b=np.array([-1.0]), group=1,
                           **free_groups(2))
        _, _, rep = solve(prog)
        assert rep.status == "infeasible" and rep.iterations == 2

    def test_feasible_solves_run_no_phase1(self, notebook_ds, monkeypatch):
        # phase-1 runs only for a master after round 1 that binds its box
        # with no feasible face point; draws 1 and 2 bind the box in round
        # 2, but their face LPs find a point, which proves feasibility
        calls = []

        def counted(A, b):
            calls.append(len(b))
            return lp_feasible(A, b)

        monkeypatch.setattr(relu_lab.solver, "lp_feasible", counted)
        for X, y in [(notebook_ds.X, notebook_ds.y),
                     *generic_gaussian_draws()]:
            masks = enumerate_masks(X)
            _, _, rep = solve_primal(build_primal(X, y, masks))
            assert rep.status == "optimal"
        assert calls == []

    def test_determinism(self):
        rng = np.random.default_rng(2)
        prog = l1_program(*random_l1(rng, 6, 3))
        x1, mu1, r1 = solve(prog)
        x2, mu2, r2 = solve(prog)
        assert np.array_equal(x1, x2) and np.array_equal(mu1, mu2)
        assert r1 == r2

    def test_round_cap_ends_max_iters(self, monkeypatch):
        # appendix-nonspikefree takes 3 rounds; capped at 2 the solve ends
        # max_iters and returns no solution
        ds = builtin_dataset("appendix-nonspikefree")
        prog = build_primal(ds.X, ds.y, enumerate_masks(ds.X)).prog
        rounds = solve(prog)[2].iterations
        assert rounds >= 2
        monkeypatch.setattr(relu_lab.solver, "MAX_ROUNDS", rounds - 1)
        x, mu, rep = solve(prog)
        assert rep.status == "max_iters" and rep.iterations == rounds - 1
        assert not x.any() and not mu.any()
        assert np.isnan(rep.objective) and np.isnan(rep.dual)

    def test_repeated_master_ends_max_iters(self, notebook_solved):
        # a negative tol certifies no gap and prices no cut at the optimum,
        # so the master repeats its mu, which ends the solve before the cap
        problem = notebook_solved[0]
        x, mu, rep = solve(problem.prog, tol=-1.0)
        assert rep.status == "max_iters"
        assert rep.iterations < relu_lab.solver.MAX_ROUNDS
        assert not x.any() and not mu.any()
        assert np.isnan(rep.objective) and np.isnan(rep.dual)

    def test_gap_small_at_optimal(self, notebook_solved):
        # the gap is certified: objective >= p* >= dual, so it is >= 0 up
        # to rounding, and the notebook's is exact
        _, _, _, report = notebook_solved
        assert report.gap <= DEFAULT_TOL * (1.0 + report.objective)
        assert report.objective == 2.0 and abs(report.gap) <= 1e-15


class TestLPFeasible:
    # rows of A w <= b: x^T w >= 0 is (-x, 0), x^T w <= -1 is (x, -1)
    def test_notebook_mask_100_feasible(self, notebook_ds):
        X = notebook_ds.X
        w = lp_feasible(np.array([-X[0], X[1], X[2]]),
                        np.array([0.0, -1.0, -1.0]))
        assert w is not None
        assert X[0] @ w >= -1e-9
        assert X[1] @ w <= -1 + 1e-9 and X[2] @ w <= -1 + 1e-9

    def test_notebook_mask_101_infeasible(self, notebook_ds):
        X = notebook_ds.X
        assert lp_feasible(np.array([-X[0], X[1], -X[2]]),
                           np.array([0.0, -1.0, 0.0])) is None

    def test_empty_rows(self):
        w = lp_feasible(np.zeros((0, 3)), np.zeros(0))
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_equality_rows(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        w = lp_feasible(A, np.zeros(3))
        assert abs(w[0]) <= 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            lp_feasible(np.array([[np.inf, 0.0]]), np.zeros(1))

    def test_dead_zone_is_inconclusive(self):
        # w <= -5e-7 and w >= 5e-7: the phase-1 value 5e-7 lies between
        # FEASIBLE_TOL and INFEASIBLE_TOL
        assert FEASIBLE_TOL < 5e-7 <= INFEASIBLE_TOL
        with pytest.raises(InconclusiveError, match="dead zone"):
            lp_feasible(np.array([[1.0], [-1.0]]), np.array([-5e-7, -5e-7]))


def phase1_lp(rng, m, d):
    """(c, A_ub, b_ub, lower) of lp_feasible's phase-1 LP on Gaussian rows,
    about a third of the coefficients exactly zero, the first row scaled by
    1e6 and the last by 1e-6."""
    A = rng.normal(size=(m, d))
    A[rng.random(size=A.shape) < 0.3] = 0.0
    A[0] *= 1e6
    A[-1] *= 1e-6
    c = np.zeros(d + 1)
    c[-1] = 1.0
    return (c, np.hstack((A, -np.ones((m, 1)))),
            rng.choice([0.0, -1.0], size=m),
            np.append(np.full(d, -np.inf), 0.0))


def face_lp(rng, m, k):
    """(c, A_ub, b_ub, lower) shaped as optimal_face_bounds's LPs in t >= 0:
    coupling rows G t >= r met at t0 = 1/k (a fifth of G exactly zero, the
    first row scaled by 1e6), then the budget row sum t <= 2."""
    G = np.abs(rng.normal(size=(m, k)))
    G[rng.random(size=G.shape) < 0.2] = 0.0
    G[0] *= 1e6
    r = G.mean(axis=1) * rng.uniform(0.0, 1.0, size=m)
    c = rng.normal(size=k)
    c[0] = 0.0
    return (c, np.vstack((-G, np.ones(k))), np.append(-r, 2.0),
            np.zeros(k))


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns (0.0 and -0.0 differ)."""
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


def assert_matches_linprog(c, A_ub, b_ub, lower):
    x, fun = _highs("oracle", c, A_ub, b_ub, lower)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, method="highs",
                  bounds=[(None if np.isinf(lo) else lo, None)
                          for lo in lower])
    assert res.status == 0
    assert same_bits(x, res.x) and same_bits(fun, res.fun)


#: (c, A_ub, b_ub, lower) of an Infeasible LP, t >= 0 and t <= -1, and of
#: an Unbounded one, min -t over t, s >= 0 with t - s <= 0
INFEASIBLE_LP = (np.ones(1), np.ones((1, 1)), -np.ones(1), np.zeros(1))
UNBOUNDED_LP = (np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.zeros(1),
                np.zeros(2))


class TestHighs:
    """The direct HiGHS call against linprog(method="highs"), to the bit."""

    def test_phase1_lps_match_linprog(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            assert_matches_linprog(*phase1_lp(rng, int(rng.integers(2, 9)),
                                              int(rng.integers(2, 5))))

    def test_face_lps_match_linprog(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            assert_matches_linprog(*face_lp(rng, int(rng.integers(1, 6)),
                                            int(rng.integers(2, 6))))

    def test_infeasible_and_unbounded_name_the_status(self):
        with pytest.raises(SolverError, match="face LP failed: Infeasible"):
            _highs("face", *INFEASIBLE_LP)
        with pytest.raises(SolverError, match="face LP failed: Unbounded"):
            _highs("face", *UNBOUNDED_LP)

    def test_no_state_carried_between_lps(self):
        # every LP runs on one HiGHS instance: neither the LPs solved in
        # between nor the failed ones move the repeated LP's bits
        rng = np.random.default_rng(5)
        lp = phase1_lp(rng, 6, 3)
        x, fun = _highs("first", *lp)
        for _ in range(20):
            _highs("other", *face_lp(rng, 4, 5))
            _highs("other", *phase1_lp(rng, 8, 4))
        for failing in (INFEASIBLE_LP, UNBOUNDED_LP):
            with pytest.raises(SolverError):
                _highs("failing", *failing)
        x_again, fun_again = _highs("again", *lp)
        assert same_bits(x, x_again) and same_bits(fun, fun_again)


class TestFaceBounds:
    def test_zero_functional(self, notebook_solved):
        problem, _, _, report = notebook_solved
        assert optimal_face_bounds(problem.prog, report.objective,
                                   np.zeros(problem.prog.num_vars)) == (0.0, 0.0)

    def test_interval_contains_solution_value(self, notebook_solved):
        problem, sol, _, report = notebook_solved
        f = np.zeros(problem.prog.num_vars)
        f[problem.group_slice(3, "+")][0] = 1.0  # mask 100, positive side
        lo, hi = optimal_face_bounds(problem.prog, report.objective, f)
        value = sol.x[3, 1, 0]
        assert lo - 1e-6 <= value <= hi + 1e-6

    def test_tie_spans_the_whole_edge(self):
        # a_1 = a_2: every split of x_1 + x_2 = 1 is optimal; a p_star below
        # the exact optimal value 1 is lifted to it
        for p_star in (1.0, 0.5):
            lo, hi = optimal_face_bounds(unit_weight_program([1.0, 1.0]),
                                         p_star, np.array([1.0, 0.0]))
            assert lo == pytest.approx(0.0, abs=1e-9)
            assert hi == pytest.approx(1.0, abs=1e-9)

    def test_strict_winner_is_a_single_point(self):
        # the optimum is x = (0, 1/2), p* = 1/2
        prog = unit_weight_program([1.0, 2.0])
        for f, value in (([1.0, 0.0], 0.0), ([0.0, 1.0], 0.5),
                         ([1.0, 1.0], 0.5)):
            lo, hi = optimal_face_bounds(prog, 0.5, np.array(f))
            assert lo == pytest.approx(value, abs=1e-9)
            assert hi == pytest.approx(value, abs=1e-9)

    def test_near_tie_is_degenerate(self):
        # gamma_1 = 1/(1 + 1e-4) lies between 1 - sqrt(delta) and 1 - delta
        with pytest.raises(DegenerateError):
            optimal_face_bounds(unit_weight_program([1.0, 1.0 + 1e-4]), 1.0,
                                np.array([1.0, 0.0]))

    def test_infeasible_program_raises(self):
        # x_1 + x_2 >= 1 and -(x_1 + x_2) >= 0: infeasible in two rounds
        prog = l1_program([[1.0, 1.0], [-1.0, -1.0]], [-1.0, 0.0])
        _, _, rep = solve(prog)
        assert rep.status == "infeasible" and rep.iterations == 2
        with pytest.raises(SolverError, match="infeasible"):
            optimal_face_bounds(prog, 1.0, np.array([1.0, 0.0]))

    def test_no_active_group_raises(self):
        # x_1 + x_2 + 1 >= 0 holds at x = 0, so p* = 0 and mu = 0: no group
        # reaches gauge 1, and the optimal face has no direction to span
        prog = l1_program([[1.0, 1.0]], [1.0])
        _, mu, rep = solve(prog)
        assert rep.status == "optimal" and rep.objective == 0.0
        assert not mu.any()
        with pytest.raises(DegenerateError, match="no norm group is active"):
            optimal_face_bounds(prog, 0.0, np.array([1.0, 0.0]))

    def test_inside_ladder_on_notebook(self, notebook_solved):
        problem, _, _, report = notebook_solved
        faces = dict(notebook_face_functionals(problem))
        for label in ("positive_sum_coord1", "negative_sum_coord2"):
            assert_inside_ladder(problem.prog, report.objective, faces[label],
                                 slack=5e-8)

    def test_no_negative_zero_on_notebook(self, notebook_solved):
        # an interval whose maximum is 0 ends at 0.0, not -0.0
        problem, _, _, report = notebook_solved
        F = np.array([f for _, f in notebook_face_functionals(problem)])
        ends = np.ravel(optimal_face_bounds(problem.prog, report.objective, F))
        assert len(ends) == 40 and (ends == 0.0).sum() >= 18
        assert not np.signbit(ends[ends == 0.0]).any()

    def test_stacked_equals_one_row_calls_on_notebook(self, notebook_solved):
        problem, _, _, report = notebook_solved
        F = np.array([f for _, f in notebook_face_functionals(problem)])
        stacked = optimal_face_bounds(problem.prog, report.objective, F)
        assert len(stacked) == len(F) and same_bits(
            stacked, [optimal_face_bounds(problem.prog, report.objective, f)
                      for f in F])

    def test_stacked_equals_one_row_calls_on_orthogonal_separable(self):
        rng = np.random.default_rng(4)
        X, y = random_orthogonal_separable(rng, 2, 3)
        problem = build_primal(X, y, enumerate_masks(X))
        _, _, report = solve_primal(problem)
        F = rng.normal(size=(5, problem.prog.num_vars))
        F[0] = 0.0
        stacked = optimal_face_bounds(problem.prog, report.objective, F,
                                      slack=5e-8)
        assert len(stacked) == len(F) and same_bits(
            stacked, [optimal_face_bounds(problem.prog, report.objective, f,
                                          slack=5e-8)
                      for f in F])

    @pytest.mark.parametrize("seed", [1, 4, 6])
    def test_inside_ladder_on_orthogonal_separable(self, seed):
        rng = np.random.default_rng(seed)
        X, y = random_orthogonal_separable(rng, int(rng.integers(1, 4)),
                                           int(rng.integers(1, 4)))
        problem = build_primal(X, y, enumerate_masks(X))
        _, _, report = solve_primal(problem)
        assert report.status == "optimal"
        f = np.zeros(problem.prog.num_vars)   # first coordinate, side +
        for j in range(problem.p):
            f[problem.group_slice(j, "+")][0] = 1.0
        assert_inside_ladder(problem.prog, report.objective, f, slack=5e-8)


class TestValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            ConeProgram(A=np.zeros((2, 2)), b=np.zeros(3), group=1,
                        **free_groups(2))
        with pytest.raises(ValueError):
            ConeProgram(A=np.zeros((2, 2)), b=np.full(2, np.nan), group=1,
                        **free_groups(2))

    def test_groups_not_tiling_variables(self):
        for n, group in ((3, 2), (3, 0), (3, -1), (0, 1)):
            with pytest.raises(ValueError, match="tile"):
                ConeProgram(A=np.zeros((1, n)), b=np.zeros(1), group=group,
                            **free_groups(n, max(group, 1)))

    @pytest.mark.parametrize("cones, match", [
        ((np.zeros((0, 2)), np.zeros((1, 0))), "one"),  # too few groups
        ((np.zeros((0, 2)), np.zeros((3, 0))), "one"),  # too many groups
        ((np.zeros((1, 3)), np.zeros((2, 1))), "one"),  # wrong width
        ((np.zeros(2), np.zeros((2, 1))), "one"),       # not a matrix
        ((np.array([[0.0, np.inf]]), np.ones((2, 1))), "non-finite"),
        ((np.zeros((1, 2)), np.ones((2, 2))), "one"),   # a sign per row
        ((np.zeros((1, 2)), np.full((2, 1), 2)), "-1, 0 or 1"),
        ((np.zeros((1, 2)), np.full((2, 1), np.nan)), "-1, 0 or 1"),
    ])
    def test_bad_cones(self, cones, match):
        rows, signs = cones
        with pytest.raises(ValueError, match=match):
            ConeProgram(A=np.zeros((1, 4)), b=np.zeros(1), group=2,
                        rows=rows, signs=signs)
