"""First-order group-norm solver (primal-dual operator splitting), HiGHS
LPs, cone projections and the exact optimal face.

:func:`solve` handles the one program of the paper,
min sum_g ||x_g||_2  s.t.  A x + b >= 0, where the x_g are contiguous norm
groups of `group` entries; the proximal step is one reshape over the groups
and the projection onto the orthant one clip.  Every LP goes through
:func:`_highs`, which runs it on one module-level instance of scipy's
bundled HiGHS core, given the options ``linprog(method="highs")`` sends
once and cleared of the last model before each LP, so the results are
linprog's to the bit without its per-call set-up and sparse conversion.  The
optimal face (:func:`optimal_face_bounds`) is exact: one solve's
multipliers, one cone projection per group, HiGHS LPs over the active
extreme directions.  Everything is dense numpy and bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus,
                                           HighsOptions, MatrixFormat, _Highs,
                                           kHighsInf, simplex_constants)

#: relative residual and gap at which a solve ends optimal (the default of
#: solve, solve_primal, solve_dual and the CLI's --tol)
DEFAULT_TOL = 1e-8

#: PDHG iteration cap of solve; a solve that reaches it ends max_iters
MAX_ITERS = 200_000

#: lp_feasible verdict thresholds (phase-1 objective).
FEASIBLE_TOL = 1e-9
INFEASIBLE_TOL = 1e-6

#: cone projections: P_C(v) counts as 0 below PROJECTION_ZERO_RTOL ||v||,
#: and its KKT conditions must hold to PROJECTION_KKT_RTOL ||M|| ||v||
PROJECTION_ZERO_RTOL = 1e-10
PROJECTION_KKT_RTOL = 1e-9

#: optimal face: a norm group is active at gauge gamma_g >= 1 - delta, inactive
#: at <= 1 - sqrt(delta), degenerate otherwise (delta = FACE_GAUGE_TOL)
FACE_GAUGE_TOL = 1e-6

#: the options linprog(method="highs") sets: presolve, dual simplex, quiet
#: (its debug level, none, is HiGHS's default)
_HIGHS_OPTIONS = HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.simplex_strategy = (
    simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False

#: the one HiGHS instance every LP runs on (_highs clears its model first)
_HIGHS = _Highs()
_HIGHS.passOptions(_HIGHS_OPTIONS)


class SolverError(RuntimeError):
    """Raised when a solve does not reach the requested tolerance."""


class DegenerateError(ValueError):
    """A numerical degeneracy (vanishing dual, ambiguous gauge): exit 1."""


class InconclusiveError(SolverError):
    """Phase-1 value fell in the dead zone between feasible and infeasible."""


@dataclass(frozen=True)
class ConeProgram:
    """min sum of group norms  s.t.  A x + b >= 0, over contiguous norm
    groups of `group` >= 1 variables."""

    A: np.ndarray
    b: np.ndarray
    group: int

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        m, n = self.A.shape
        if self.b.shape != (m,):
            raise ValueError("inconsistent dimensions")
        if self.group < 1 or n % self.group:
            raise ValueError("norm groups do not tile the variables")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ValueError("non-finite program data")

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    def objective(self, x: np.ndarray) -> float:
        return float(_group_norms(x, self.group).sum())


@dataclass
class SolveReport:
    status: str  # optimal | max_iters | infeasible-suspected
    objective: float
    primal_residual: float
    dual_residual: float
    gap: float
    iterations: int

    def require_optimal(self, what: str) -> None:
        """Raise SolverError unless the solve reached its tolerance."""
        if self.status != "optimal":
            raise SolverError(f"{what} solve: {self.status}")


def _group_norms(x: np.ndarray, group: int) -> np.ndarray:
    """Norm of each contiguous group of `group` entries."""
    return np.linalg.norm(x.reshape(-1, group), axis=1)


def _prox_objective(v: np.ndarray, tau: float, prog: ConeProgram) -> np.ndarray:
    """prox of tau * (sum of group norms) at v: one group shrink."""
    shrink = 1.0 - tau / np.maximum(_group_norms(v, prog.group), tau)
    return (v.reshape(-1, prog.group) * shrink[:, None]).ravel()


def _operator_norm(A: np.ndarray, iters: int = 50) -> float:
    """Largest singular value of A, estimated by power iteration on A^T A."""
    v = np.ones(A.shape[1]) + 1e-3 * np.arange(A.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        est = np.sqrt(nw)
        v = w / nw
    return est


def _residuals(prog: ConeProgram, x: np.ndarray, mu: np.ndarray):
    """(primal res, dual res, gap, primal obj) with relative normalization."""
    s = prog.A @ x + prog.b
    pres = np.linalg.norm(s - np.maximum(s, 0.0))
    pres /= 1.0 + np.linalg.norm(prog.b)
    # distance of A^T mu to the product of unit norm balls
    excess = np.maximum(_group_norms(prog.A.T @ mu, prog.group) - 1.0, 0.0)
    dres = np.linalg.norm(excess)
    pobj = prog.objective(x)
    dobj = -float(prog.b @ mu)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return pres, dres, gap, pobj


def solve(prog: ConeProgram, tol: float = DEFAULT_TOL
          ) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Run primal-dual hybrid gradient on the cone program.

    Returns (x, mu, report): A^T mu lies in the sub-differential of the
    norm objective, mu >= 0 up to rounding (the orthant step can leave
    -1e-17 on slack rows) and mu^T (Ax + b) -> 0 at the optimum.  Fixed
    step sizes from 50 power iterations, no restarts; every 25 iterations
    the relative primal and dual residuals and the duality gap are checked
    against `tol`, for at most MAX_ITERS iterations."""
    m, n = prog.A.shape
    L = _operator_norm(prog.A) * 1.02
    x, y = np.zeros(n), np.zeros(m)
    it, max_iters = 0, MAX_ITERS
    if L == 0.0:
        # A = 0: x minimizes the objective alone, no iterations; whether b
        # is >= 0 is judged by the residuals, as at every other exit
        x = _prox_objective(x, 1.0, prog)
        max_iters = 0
    else:
        tau = sigma = 0.99 / L
    At = prog.A.T.copy()
    for it in range(1, max_iters + 1):
        x_new = _prox_objective(x - tau * (At @ y), tau, prog)
        xbar = 2.0 * x_new - x
        w = y + sigma * (prog.A @ xbar)
        y = w - sigma * (np.maximum(w / sigma + prog.b, 0.0) - prog.b)
        x = x_new
        if it % 25 == 0 or it == max_iters:
            pres, dres, gap, _ = _residuals(prog, x, -y)
            if max(pres, dres, gap) <= tol:
                break

    mu = -y
    pres, dres, gap, pobj = _residuals(prog, x, mu)
    status = ("optimal" if max(pres, dres, gap) <= tol else
              "infeasible-suspected" if pres > np.sqrt(tol) else "max_iters")
    return x, mu, SolveReport(status, pobj, pres, dres, gap, it)


def _highs(what: str, c: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray,
           lower: np.ndarray) -> tuple[np.ndarray, float]:
    """(x, min c^T x) s.t. A_ub x <= b_ub, x >= lower (-inf for free), on
    _HIGHS cleared of the last model (its options stay); SolverError unless
    HiGHS ends optimal.  A_ub goes in column-wise without its exact zeros,
    as scipy's csc_array stores it."""
    m, n = A_ub.shape
    At = A_ub.T
    nonzero = At != 0.0
    lp = HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = c
    lp.col_lower_ = lower
    lp.col_upper_ = np.full(n, kHighsInf)
    lp.row_lower_ = np.full(m, -kHighsInf)
    lp.row_upper_ = b_ub
    a = lp.a_matrix_
    a.format_ = MatrixFormat.kColwise
    a.num_col_, a.num_row_ = n, m
    a.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    a.index_ = np.nonzero(nonzero)[1]
    a.value_ = At[nonzero]
    _HIGHS.clearModel()
    _HIGHS.passModel(lp)
    _HIGHS.run()
    status = _HIGHS.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise SolverError(
            f"{what} LP failed: {_HIGHS.modelStatusToString(status)}")
    return (np.array(_HIGHS.getSolution().col_value),
            _HIGHS.getInfo().objective_function_value)


def lp_feasible(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Feasibility of A w <= b by the phase-1 LP  min t  s.t.  A w - t <= b,
    t >= 0: a witness w when its value is <= FEASIBLE_TOL, None above
    INFEASIBLE_TOL, InconclusiveError in between."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("non-finite row coefficients")
    m, d = A.shape
    if m == 0:
        return np.zeros(d)
    c = np.zeros(d + 1)
    c[-1] = 1.0
    lower = np.append(np.full(d, -np.inf), 0.0)
    x, v = _highs("phase-1", c, np.hstack((A, -np.ones((m, 1)))), b, lower)
    if v <= FEASIBLE_TOL:
        return x[:d]
    if v > INFEASIBLE_TOL:
        return None
    raise InconclusiveError(f"phase-1 value {v:.3e} in dead zone")


def cone_projection(M: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, z): p = P_C(v) = v + M^T z, the projection of v onto the cone
    C = {u : M u >= 0}, and z = argmin_{z >= 0} ||v + M^T z|| (Moreau).  p is
    v projected onto the null space of the rows with z > 0, free of the
    cancellation in v + M^T z when ||p|| << ||v||.  RuntimeError when NNLS
    stops early or (p, z) misses the KKT conditions z >= 0, M p >= -eps,
    z-weighted mean |M p| <= eps and ||v + M^T z - p|| <= PROJECTION_KKT_RTOL
    (||v|| + ||M|| ||z||), with eps = PROJECTION_KKT_RTOL ||M|| ||v||."""
    if not len(M):
        return v, np.zeros(0)
    try:
        z, _ = nnls(M.T, -v)
    except RuntimeError as exc:
        raise RuntimeError(f"cone projection did not converge: {exc}") from exc
    p = v
    active = M[z > 0]
    if len(active):
        active /= np.linalg.norm(active, axis=1, keepdims=True)
        _, s, Vt = np.linalg.svd(active)
        rank = int(np.sum(s > s[0] * max(active.shape) * np.finfo(float).eps))
        null = Vt[rank:]
        p = null.T @ (null @ v)
    slack = M @ p
    nM, nv = np.linalg.norm(M), np.linalg.norm(v)
    eps = PROJECTION_KKT_RTOL * nM * nv
    comp = z @ np.abs(slack)
    residual = np.linalg.norm(v + M.T @ z - p)
    if (z.min(initial=0.0) < 0.0 or slack.min(initial=0.0) < -eps
            or comp > eps * z.sum()
            or residual > PROJECTION_KKT_RTOL * (nv + nM * np.linalg.norm(z))):
        raise RuntimeError(
            f"cone projection misses its KKT conditions: min M p "
            f"{slack.min(initial=0.0):.2e}, z^T |M p| {comp:.2e} "
            f"(eps {eps:.2e}), polar residual {residual:.2e}")
    return p, z


def optimal_face_bounds(prog: ConeProgram, p_star: float,
                        functional: np.ndarray, slack: float = 0.0
                        ) -> tuple[float, float] | list[tuple[float, float]]:
    """Min and max of functional^T x over the optimal face of the program,
    widened by `slack` of objective: one (lo, hi) for a 1-D functional, a
    list of one (lo, hi) per row for a (k, n) stack, which shares the solve,
    the cone projections and the p*_LP LP.

    Rows with b = 0 and support in one group g alone form g's cone C_g; the
    others couple.  With mu from one `solve` and v_g the coupling rows' part
    of (A^T mu)_g, gamma_g = ||P_{C_g}(v_g)||, e_g = P_{C_g}(v_g) / gamma_g.
    By complementary slackness every optimal point is sum t_g e_g over the
    groups with gamma_g >= 1 - FACE_GAUGE_TOL, t >= 0, coupling rows met, so
    min sum t is the optimal value p*_LP; each end is one HiGHS LP in t
    under sum t <= max(p_star, p*_LP) + slack."""
    _, mu, report = solve(prog)
    report.require_optimal("face multiplier")
    (m, n), d = prog.A.shape, prog.group
    touches = (prog.A != 0).reshape(m, n // d, d).any(axis=2)
    own = (prog.b == 0) & (touches.sum(axis=1) == 1)
    v = (prog.A[~own].T @ mu[~own]).reshape(-1, d)
    E = []
    for g in range(n // d):
        p, _ = cone_projection(prog.A[own & touches[:, g], g * d:(g + 1) * d],
                               v[g])
        gamma = float(np.linalg.norm(p))
        if not (gamma <= 1.0 - np.sqrt(FACE_GAUGE_TOL)
                or abs(gamma - 1.0) <= FACE_GAUGE_TOL):
            raise DegenerateError(f"group {g} gauge {gamma!r} is neither "
                                  f"active nor inactive")
        if gamma >= 1.0 - FACE_GAUGE_TOL:
            E.append(np.zeros(n))
            E[-1][g * d:(g + 1) * d] = p / gamma
    if not E:
        raise DegenerateError("no norm group is active on the optimal face")
    # LPs in t: the coupling rows -A_c E t <= b_c, then sum t <= budget
    E = np.array(E).T
    A_ub = np.vstack((-prog.A[~own] @ E, np.ones(E.shape[1])))
    lower = np.zeros(E.shape[1])
    _, p_lp = _highs("face", A_ub[-1], A_ub[:-1], prog.b[~own], lower)
    b_ub = np.append(prog.b[~own], max(p_star, p_lp) + slack)
    functional = np.asarray(functional, dtype=float)
    bounds = []
    for row in np.atleast_2d(functional):
        f = row @ E
        lo, hi = (_highs("face", sign * f, A_ub, b_ub, lower)[1]
                  for sign in (1.0, -1.0))
        bounds.append((float(lo), -float(hi)))
    return bounds if functional.ndim == 2 else bounds[0]
