import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relu_lab.solver import (Cone, ConeProgram, InconclusiveError, NONNEG,
                             SOC, ZERO, _prox_objective, lp_feasible,
                             optimal_face_bounds, solve)


def simple_lp(c, A_ineq, b_ineq):
    """min c.x s.t. A x + b >= 0 in canonical form."""
    return ConeProgram(c=np.asarray(c, float), A=np.asarray(A_ineq, float),
                       b=np.asarray(b_ineq, float),
                       cones=(Cone(NONNEG, len(b_ineq)),))


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
        rng = np.random.default_rng(seed)
        v = rng.normal(size=4)
        prog = ConeProgram(c=np.zeros(4), A=np.zeros((1, 4)), b=np.zeros(1),
                           cones=(Cone(ZERO, 1),), groups=(np.arange(4),))
        x = _prox_objective(v.copy(), tau, prog)
        nv = np.linalg.norm(v)
        expected = max(0.0, 1.0 - tau / nv) * v if nv > 0 else 0.0 * v
        np.testing.assert_allclose(x, expected, atol=1e-14)
        # subgradient optimality of the prox point: v - x in tau * d||x||
        if np.linalg.norm(x) > 0:
            np.testing.assert_allclose(v - x, tau * x / np.linalg.norm(x),
                                       atol=1e-12)
        else:
            assert np.linalg.norm(v - x) <= tau + 1e-12

    def test_min_norm_unconstrained_is_zero(self):
        prog = ConeProgram(c=np.zeros(3), A=np.zeros((1, 3)), b=np.zeros(1),
                           cones=(Cone(ZERO, 1),), groups=(np.arange(3),))
        x, mu, rep = solve(prog)
        np.testing.assert_allclose(x, 0.0, atol=1e-10)
        assert rep.objective == pytest.approx(0.0, abs=1e-10)


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
        prog = ConeProgram(c=-v, A=A, b=b, cones=(Cone(SOC, 4),))
        x, mu, rep = solve(prog)
        assert rep.objective == pytest.approx(-1.0, abs=1e-7)
        np.testing.assert_allclose(x, v / np.linalg.norm(v), atol=1e-6)


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
        lo, hi = optimal_face_bounds(problem.prog, report.objective, f,
                                     slack=5e-8)
        value = sol.u_prime[3][0]
        assert lo - 1e-6 <= value <= hi + 1e-6

    def test_rejects_linear_objective(self):
        prog = ConeProgram(c=np.ones(2), A=np.eye(2), b=np.zeros(2),
                           cones=(Cone(NONNEG, 2),))
        with pytest.raises(Exception):
            optimal_face_bounds(prog, 0.0, np.array([1.0, 0.0]))


class TestValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            ConeProgram(c=np.zeros(2), A=np.zeros((2, 2)), b=np.zeros(3),
                        cones=(Cone(NONNEG, 2),))
        with pytest.raises(ValueError):
            ConeProgram(c=np.zeros(2), A=np.zeros((2, 2)), b=np.zeros(2),
                        cones=(Cone(NONNEG, 1),))
        with pytest.raises(ValueError):
            Cone("weird", 1)
        with pytest.raises(ValueError):
            ConeProgram(c=np.zeros(2), A=np.zeros((1, 2)), b=np.zeros(1),
                        cones=(Cone(NONNEG, 1),),
                        groups=(np.array([0, 1]), np.array([1])))
