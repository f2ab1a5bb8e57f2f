import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthogonal_separable
from relu_lab.arrangements import enumerate_masks
from relu_lab.cli import notebook_face_functionals
from relu_lab.convex import build_primal, solve_primal
from relu_lab.solver import (ConeProgram, DegenerateError, SolverError,
                             _project_cone, _prox_objective, lp_feasible,
                             optimal_face_bounds, solve)


def simple_lp(c, A_ineq, b_ineq):
    """min c.x s.t. A x + b >= 0 in canonical form."""
    prog = ConeProgram(c=np.asarray(c, float), A=np.asarray(A_ineq, float),
                       b=np.asarray(b_ineq, float), nonneg=len(b_ineq))
    assert (prog.nonneg, prog.soc, prog.group) == (len(b_ineq), 0, 0)
    return prog


def ladder_lower_bound(prog, budget, f):
    """Certified lower bound on min f^T x over {x feasible, objective <=
    budget}: the outer-bound oracle of the optimal-face bounds.

    Penalty ladder: for a multiplier rho, the program with objective
    (f/rho)^T x + group norms is solved and its dual value d turned into the
    weak-duality bound rho * (d - debit - budget), where the debit
    dres * (1 + ||c||) * budget accounts for the dual point's norm-ball
    infeasibility.  rho climbs geometrically; the best certificate is kept,
    stopping after two declines."""
    def probe(rho):
        pen = replace(prog, c=f / rho)
        _, mu, rep = solve(pen, max_iters=40_000)
        debit = rep.dual_residual * (1.0 + np.linalg.norm(pen.c)) * abs(budget)
        return rho * (-float(pen.b @ mu) - debit - budget)

    best, declines = -np.inf, 0
    rho = 1.0 + 2.0 * float(np.linalg.norm(f))
    for _ in range(12):
        lb = probe(rho)
        if lb > best:
            best, declines = lb, 0
        else:
            declines += 1
            if declines >= 2:
                break
        rho *= 4.0
    return best


def assert_inside_ladder(prog, p_star, f, slack):
    lo, hi = optimal_face_bounds(prog, p_star, f, slack=slack)
    outer_lo = ladder_lower_bound(prog, p_star + slack, f)
    outer_hi = -ladder_lower_bound(prog, p_star + slack, -f)
    # on a single-point face the two LP ends may cross by HiGHS's rounding
    assert outer_lo <= lo <= hi + 1e-12 and hi <= outer_hi


def unit_weight_program(a):
    """min sum |x_i|  s.t.  a^T x >= 1: one norm group per variable, no
    group rows; the optimal face puts all weight on the largest a_i."""
    a = np.asarray(a, dtype=float)
    return ConeProgram(c=np.zeros(len(a)), A=a[None, :], b=-np.ones(1),
                       nonneg=1, group=1)


def soc_member(p, tol):
    """(t, v) in the second-order cone ||v|| <= t, up to tol."""
    return np.linalg.norm(p[1:]) <= p[0] + tol


@st.composite
def mixed_layout(draw):
    """A point s of an orthant prefix times equal second-order blocks, with
    blocks on the cone's boundary (t = ||v||), on its polar's (t = -||v||),
    with v = 0, and generic."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nonneg = draw(st.integers(0, 4))
    soc = draw(st.integers(2, 5))
    blocks = []
    for kind in draw(st.lists(st.sampled_from(
            ("boundary", "polar", "zero", "generic")), max_size=4)):
        v = rng.normal(size=soc - 1) * 10.0 ** rng.integers(-3, 4)
        t = rng.normal() * 10.0 ** rng.integers(-3, 4)
        if kind == "boundary":
            t = np.linalg.norm(v)
        elif kind == "polar":
            t = -np.linalg.norm(v)
        elif kind == "zero":
            v = np.zeros(soc - 1)
        blocks.append(np.concatenate(([t], v)))
    s = np.concatenate([rng.normal(size=nonneg)] + blocks)
    return s, nonneg, soc


def brute_force_lp(c, A, b):
    """Enumerate basic feasible solutions of {Ax + b >= 0} and minimize."""
    c, A, b = map(np.asarray, (c, A, b))
    m, n = A.shape
    best = np.inf
    for rows in itertools.combinations(range(m), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, -b[list(rows)])
        if np.all(A @ x + b >= -1e-9):
            best = min(best, float(c @ x))
    return best


class TestProx:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 10.0))
    def test_group_shrink_identity(self, seed, tau):
        # three groups of 4; the last one is zero
        rng = np.random.default_rng(seed)
        v = np.concatenate((rng.normal(size=8), np.zeros(4)))
        prog = ConeProgram(c=np.zeros(12), A=np.zeros((1, 12)), b=np.zeros(1),
                           nonneg=1, group=4)
        assert (prog.nonneg, prog.soc, prog.group) == (1, 0, 4)
        x = _prox_objective(v.copy(), tau, prog)
        for g in range(3):
            vg, xg = v[4 * g:4 * g + 4], x[4 * g:4 * g + 4]
            nv = np.linalg.norm(vg)
            expected = max(0.0, 1.0 - tau / nv) * vg if nv > 0 else 0.0 * vg
            np.testing.assert_allclose(xg, expected, atol=1e-14)
            # subgradient optimality of the prox point: v - x in tau d||x||
            if np.linalg.norm(xg) > 0:
                np.testing.assert_allclose(vg - xg,
                                           tau * xg / np.linalg.norm(xg),
                                           atol=1e-12)
            else:
                assert np.linalg.norm(vg - xg) <= tau + 1e-12

    def test_min_norm_unconstrained_is_zero(self):
        prog = ConeProgram(c=np.zeros(3), A=np.zeros((1, 3)), b=np.zeros(1),
                           nonneg=1, group=3)
        x, mu, rep = solve(prog)
        np.testing.assert_allclose(x, 0.0, atol=1e-10)
        assert rep.objective == pytest.approx(0.0, abs=1e-10)
        assert rep.status == "optimal"     # A = 0 and b lies in K


class TestSolveLP:
    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(0)
        solved = 0
        for _ in range(12):
            n = 4
            A = rng.normal(size=(9, n))
            # bound the feasible set: box rows keep vertices finite
            A = np.vstack([A, np.eye(n), -np.eye(n)])
            b = np.concatenate([rng.uniform(0.5, 2.0, size=9),
                                np.full(2 * n, 5.0)])
            c = rng.normal(size=n)
            expected = brute_force_lp(c, A, b)
            if not np.isfinite(expected):
                continue
            x, mu, rep = solve(simple_lp(c, A, b), tol=1e-9)
            assert rep.status == "optimal"
            assert rep.objective == pytest.approx(expected, abs=1e-6)
            solved += 1
        assert solved >= 8

    def test_multipliers_sign_and_complementarity(self):
        rng = np.random.default_rng(1)
        A = np.vstack([rng.normal(size=(5, 3)), np.eye(3), -np.eye(3)])
        b = np.concatenate([rng.uniform(0.5, 1.5, size=5), np.full(6, 4.0)])
        c = rng.normal(size=3)
        x, mu, rep = solve(simple_lp(c, A, b), tol=1e-9)
        assert np.all(mu >= -1e-9)
        s = A @ x + b
        assert float(np.abs(mu * s).max()) <= 1e-6

    @pytest.mark.parametrize("c, b", [
        ([0.0, 0.0], -1.0),     # the row 0 x - 1 >= 0 holds for no x
        ([3.0, 0.0], 1.0),      # |x1| + |x2| + 3 x1 is unbounded below
    ])
    def test_zero_matrix_unsolvable_is_not_optimal(self, c, b):
        prog = ConeProgram(c=np.array(c), A=np.zeros((1, 2)),
                           b=np.array([b]), nonneg=1, group=1)
        _, _, rep = solve(prog)
        assert rep.status != "optimal"
        assert max(rep.primal_residual, rep.dual_residual) > 0.1

    def test_determinism(self):
        rng = np.random.default_rng(2)
        A = np.vstack([rng.normal(size=(6, 3)), np.eye(3), -np.eye(3)])
        b = np.concatenate([rng.uniform(0.5, 1.5, size=6), np.full(6, 3.0)])
        prog = simple_lp(rng.normal(size=3), A, b)
        x1, mu1, r1 = solve(prog)
        x2, mu2, r2 = solve(prog)
        assert np.array_equal(x1, x2) and np.array_equal(mu1, mu2)
        assert r1.iterations == r2.iterations

    def test_best_iterate_objective_trend(self, notebook_solved):
        problem, _, _, _ = notebook_solved
        x, mu, rep = solve(problem.prog, trace_every=100)
        objs = [row[1] for row in rep.trace]
        best = np.minimum.accumulate(objs)
        # best-so-far objective is monotone by construction; the recorded
        # trend should track it closely rather than oscillate upward
        assert np.all(np.diff(best) <= 1e-12)
        assert objs[-1] == pytest.approx(rep.objective, rel=1e-6)

    def test_gap_small_at_optimal(self, notebook_solved):
        _, _, _, report = notebook_solved
        assert max(report.primal_residual, report.dual_residual,
                   report.gap) <= 1e-8


class TestSolveSOC:
    def test_projection_ball_program(self):
        # min -v.x s.t. ||x|| <= 1 has optimum -||v||
        v = np.array([0.6, -0.8, 0.0])
        A = np.zeros((4, 3))
        A[1:] = np.eye(3)
        b = np.array([1.0, 0.0, 0.0, 0.0])
        prog = ConeProgram(c=-v, A=A, b=b, nonneg=0, soc=4)
        assert (prog.nonneg, prog.soc, prog.group) == (0, 4, 0)
        x, mu, rep = solve(prog)
        assert rep.objective == pytest.approx(-1.0, abs=1e-7)
        np.testing.assert_allclose(x, v / np.linalg.norm(v), atol=1e-6)

    def test_orthant_prefix_and_two_balls(self):
        # min -v.x s.t. x >= 0, ||x[:2]|| <= 1, ||x[2:]|| <= 1: each half
        # of x is the unit vector along the positive part of v's half
        v = np.array([0.6, -0.8, 3.0, 4.0])
        A = np.zeros((10, 4))
        A[:4] = np.eye(4)
        A[5:7, :2] = np.eye(2)
        A[8:10, 2:] = np.eye(2)
        b = np.zeros(10)
        b[[4, 7]] = 1.0
        prog = ConeProgram(c=-v, A=A, b=b, nonneg=4, soc=3)
        assert (prog.nonneg, prog.soc, prog.group) == (4, 3, 0)
        x, mu, rep = solve(prog)
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(-5.6, abs=1e-6)
        np.testing.assert_allclose(x, [1.0, 0.0, 0.6, 0.8], atol=1e-6)


class TestProjectCone:
    @settings(max_examples=60, deadline=None)
    @given(mixed_layout())
    def test_moreau_conditions_per_block(self, case):
        s, nonneg, soc = case
        p = _project_cone(s, nonneg, soc)
        r = p - s
        assert np.all(p[:nonneg] >= 0.0) and np.all(r[:nonneg] >= 0.0)
        assert np.all(p[:nonneg] * r[:nonneg] == 0.0)
        for i in range(nonneg, s.size, soc):
            sb, pb, rb = s[i:i + soc], p[i:i + soc], r[i:i + soc]
            scale = 1.0 + np.linalg.norm(sb)
            # p in K, p - s in K (K is self-dual), <p, p - s> = 0
            assert soc_member(pb, 1e-12 * scale)
            assert soc_member(rb, 1e-12 * scale)
            assert abs(pb @ rb) <= 1e-12 * scale ** 2


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
        value = sol.u_prime[3][0]
        assert lo - 1e-6 <= value <= hi + 1e-6

    def test_rejects_linear_objective(self):
        prog = ConeProgram(c=np.ones(2), A=np.eye(2), b=np.zeros(2),
                           nonneg=2, group=2)
        with pytest.raises(SolverError):
            optimal_face_bounds(prog, 0.0, np.array([1.0, 0.0]))

    def test_rejects_ungrouped_variables(self):
        prog = ConeProgram(c=np.zeros(2), A=np.eye(2), b=np.zeros(2),
                           nonneg=2)
        assert prog.group == 0
        with pytest.raises(SolverError):
            optimal_face_bounds(prog, 0.0, np.array([1.0, 0.0]))

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
        # x_1 + x_2 >= 1 and -(x_1 + x_2) >= 0
        prog = ConeProgram(c=np.zeros(2), A=np.array([[1.0, 1.0],
                                                      [-1.0, -1.0]]),
                           b=np.array([-1.0, 0.0]), nonneg=2, group=1)
        with pytest.raises(SolverError):
            optimal_face_bounds(prog, 1.0, np.array([1.0, 0.0]))

    def test_inside_ladder_on_notebook(self, notebook_solved):
        problem, _, _, report = notebook_solved
        faces = dict(notebook_face_functionals(problem))
        for label in ("positive_sum_coord1", "negative_sum_coord2"):
            assert_inside_ladder(problem.prog, report.objective, faces[label],
                                 slack=5e-8)

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
            ConeProgram(c=np.zeros(2), A=np.zeros((2, 2)), b=np.zeros(3),
                        nonneg=2)
        with pytest.raises(ValueError):
            ConeProgram(c=np.zeros(2), A=np.zeros((2, 2)), b=np.zeros(2),
                        nonneg=1)
        with pytest.raises(ValueError):
            ConeProgram(c=np.zeros(2), A=np.zeros((2, 2)), b=np.zeros(2),
                        nonneg=3)

    def test_rows_not_tiled_by_soc(self):
        with pytest.raises(ValueError):
            ConeProgram(c=np.zeros(2), A=np.zeros((5, 2)), b=np.zeros(5),
                        nonneg=1, soc=3)

    def test_soc_of_size_one(self):
        with pytest.raises(ValueError):
            ConeProgram(c=np.zeros(2), A=np.zeros((3, 2)), b=np.zeros(3),
                        nonneg=1, soc=1)

    def test_groups_not_tiling_variables(self):
        with pytest.raises(ValueError):
            ConeProgram(c=np.zeros(3), A=np.zeros((1, 3)), b=np.zeros(1),
                        nonneg=1, group=2)
