"""First-order conic solver (primal-dual operator splitting) and LP feasibility.

Canonical problem shape handled by :func:`solve`:

    minimize    c^T x + sum_g ||x_g||_2
    subject to  A x + b in K

over one layout: K is the nonnegative orthant on the first `nonneg` rows and
second-order cones {(t, v) : ||v|| <= t} of `soc` rows each on the rest, and
the x_g are contiguous norm groups of `group` entries.  The proximal step and
the projection onto K are each one reshape over that layout.  Everything is
dense numpy and bitwise deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linprog

#: lp_feasible verdict thresholds (phase-1 objective).
FEASIBLE_TOL = 1e-9
INFEASIBLE_TOL = 1e-6

#: objective slack of the optimal-face bounds.  A face bound's interval
#: widens with this slack along flat directions of the optimal set: on the
#: notebook, positive_sum_coord2 (masks 100 + 110, side +, coordinate 2)
#: spans [-1.731e-3, 4e-6] (width 1.735e-3, wider than criterion 03's 1e-3)
#: at slack 1e-6 and [-3.29e-4, 0] (width 3.294e-4) at 5e-8
FACE_SLACK = 5e-8

#: iteration cap of each penalty-ladder probe of the optimal-face bounds
FACE_PROBE_MAX_ITERS = 40_000


class SolverError(RuntimeError):
    """Raised when a solve does not reach the requested tolerance."""


class DegenerateError(ValueError):
    """A numerical degeneracy (a vanishing dual or gauge, an empty network):
    a ValueError for callers, a numerical failure (exit 1) for the CLI."""


class InconclusiveError(SolverError):
    """Phase-1 value fell in the dead zone between feasible and infeasible."""


@dataclass(frozen=True)
class ConeProgram:
    """min c^T x + sum of group norms  s.t.  A x + b in K.

    K: the orthant on the first `nonneg` rows, second-order blocks of `soc`
    rows (norm row first) on the rest.  group > 0: the variables form
    contiguous norm groups of `group` entries; group == 0: no norm term."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    nonneg: int
    soc: int = 0
    group: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError("inconsistent dimensions")
        rest = m - self.nonneg
        tiled = ((self.soc >= 2 and rest % self.soc == 0)
                 or (self.soc == 0 and rest == 0))
        if self.nonneg < 0 or rest < 0 or not tiled:
            raise ValueError("orthant and second-order blocks do not tile "
                             "the rows")
        if self.group < 0 or (self.group and n % self.group):
            raise ValueError("norm groups do not tile the variables")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()
                and np.isfinite(self.c).all()):
            raise ValueError("non-finite program data")

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ x) + float(_group_norms(x, self.group).sum())


@dataclass
class SolveReport:
    status: str  # optimal | max_iters | infeasible-suspected
    objective: float
    primal_residual: float
    dual_residual: float
    gap: float
    iterations: int
    wall_time: float
    trace: list[tuple[int, float, float, float]] = field(default_factory=list)


def _group_norms(x: np.ndarray, group: int) -> np.ndarray:
    """Norm of each contiguous group of `group` entries (none when 0)."""
    if not group:
        return np.zeros(0)
    return np.linalg.norm(x.reshape(-1, group), axis=1)


def _project_cone(s: np.ndarray, nonneg: int, soc: int) -> np.ndarray:
    """Projection onto the orthant prefix times the second-order blocks."""
    out = np.maximum(s, 0.0)
    if soc:
        blk = s[nonneg:].reshape(-1, soc)
        t, v = blk[:, 0], blk[:, 1:]
        nv = np.linalg.norm(v, axis=1)
        inside = nv <= t
        split = ~inside & (nv > -t)     # neither in K nor in its polar
        a = np.where(split, 0.5 * (1.0 + t / np.where(split, nv, 1.0)), 0.0)
        proj = out[nonneg:].reshape(-1, soc)
        proj[:, 0] = np.where(inside, t, a * nv)
        proj[:, 1:] = np.where(inside[:, None], v, a[:, None] * v)
    return out


def _prox_objective(v: np.ndarray, tau: float, prog: ConeProgram) -> np.ndarray:
    """prox of tau*(c^T x + sum group norms) at v: shift then group shrink."""
    x = v - tau * prog.c
    if prog.group:
        shrink = 1.0 - tau / np.maximum(_group_norms(x, prog.group), tau)
        x = (x.reshape(-1, prog.group) * shrink[:, None]).ravel()
    return x


def _operator_norm(A: np.ndarray, iters: int = 50) -> float:
    """Largest singular value of A, estimated by power iteration on A^T A."""
    n = A.shape[1]
    v = np.ones(n) + 1e-3 * np.arange(n)
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
    pres = np.linalg.norm(s - _project_cone(s, prog.nonneg, prog.soc))
    pres /= 1.0 + np.linalg.norm(prog.b)

    # distance of A^T mu - c to the product of unit norm balls (or to 0)
    v = prog.A.T @ mu - prog.c
    excess = (np.maximum(_group_norms(v, prog.group) - 1.0, 0.0)
              if prog.group else v)
    dres = np.linalg.norm(excess) / (1.0 + np.linalg.norm(prog.c))

    pobj = prog.objective(x)
    dobj = -float(prog.b @ mu)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return pres, dres, gap, pobj


def solve(prog: ConeProgram, tol: float = 1e-8, max_iters: int = 200_000,
          trace_every: int = 0) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Run primal-dual hybrid gradient on the cone program.

    Returns (x, mu, report).  mu is the constraint multiplier with the
    convention  A^T mu - c in sub-differential of the norm objective,
    mu >= 0 on nonnegative rows, mu in the SOC on SOC rows, and
    complementary mu^T (Ax + b) -> 0 at the optimum.

    Deterministic: fixed step sizes from 50 power iterations, no restarts,
    termination checked every 25 iterations against `tol` on the relative
    primal/dual residuals and duality gap.
    """
    m, n = prog.A.shape
    L = _operator_norm(prog.A) * 1.02
    if L == 0.0:
        x = _prox_objective(np.zeros(n), 1.0, prog)
        report = SolveReport("optimal", prog.objective(x), 0.0, 0.0, 0.0, 0, 0.0)
        return x, np.zeros(m), report

    tau = sigma = 0.99 / L
    x = np.zeros(n)
    y = np.zeros(m)
    At = prog.A.T.copy()
    start = time.perf_counter()
    check_every = 25
    trace: list[tuple[int, float, float, float]] = []
    pres = dres = gap = np.inf
    it = 0
    for it in range(1, max_iters + 1):
        x_new = _prox_objective(x - tau * (At @ y), tau, prog)
        xbar = 2.0 * x_new - x
        w = y + sigma * (prog.A @ xbar)
        y = w - sigma * (_project_cone(w / sigma + prog.b, prog.nonneg,
                                       prog.soc) - prog.b)
        x = x_new
        if it % check_every == 0 or it == max_iters:
            pres, dres, gap, pobj = _residuals(prog, x, -y)
            if trace_every and (it % trace_every == 0):
                trace.append((it, pobj, pres, dres))
            if max(pres, dres, gap) <= tol:
                break

    mu = -y
    pres, dres, gap, pobj = _residuals(prog, x, mu)
    wall = time.perf_counter() - start
    if max(pres, dres, gap) <= tol:
        status = "optimal"
    elif pres > np.sqrt(tol):
        status = "infeasible-suspected"
    else:
        status = "max_iters"
    report = SolveReport(status, pobj, pres, dres, gap, it, wall, trace)
    return x, mu, report


# ---------------------------------------------------------------------------
# LP feasibility (backend for arrangement realizability tests)
# ---------------------------------------------------------------------------

def lp_feasible(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Feasibility of the row system A w <= b.

    Solves the phase-1 LP  min t  s.t.  A w - t <= b, t >= 0  (HiGHS backend).
    Returns a witness w when the phase-1 value is <= 1e-9, None when it
    exceeds 1e-6, and raises InconclusiveError in between.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("non-finite row coefficients")
    m, d = A.shape
    if m == 0:
        return np.zeros(d)
    c = np.zeros(d + 1)
    c[-1] = 1.0
    bounds = [(None, None)] * d + [(0.0, None)]
    res = linprog(c, A_ub=np.hstack((A, -np.ones((m, 1)))), b_ub=b,
                  bounds=bounds, method="highs")
    if not res.success:
        raise SolverError(f"phase-1 LP failed: {res.message}")
    v = float(res.fun)
    if v <= FEASIBLE_TOL:
        return res.x[:d]
    if v > INFEASIBLE_TOL:
        return None
    raise InconclusiveError(f"phase-1 value {v:.3e} in dead zone")


# ---------------------------------------------------------------------------
# Optimal-face bounds
# ---------------------------------------------------------------------------

def _face_one_side(prog: ConeProgram, budget: float, f: np.ndarray) -> float:
    """Certified lower bound on min f^T x over {x feasible, objective <= budget}.

    Penalty ladder: for a multiplier rho, the cone program with objective
    (f/rho)^T x + group norms is solved and its (approximate) dual value d
    turned into the weak-duality bound  rho * (d - debit - budget), where the
    debit dres * (1 + ||c||) * budget accounts for the dual point's norm-ball
    infeasibility (every face point has group-norm sum <= budget).  The bound
    family is concave in rho; the ladder climbs geometrically and keeps the
    best certificate, stopping once past the peak.  Value-convergence is all
    that matters here, so stalled-but-flat knee solves still certify.
    """
    if prog.c.any():
        raise SolverError("face bounds expect a pure group-norm objective")
    if not prog.group:
        raise SolverError("face bounds expect every variable in a norm group")

    def probe(rho: float) -> float:
        pen = replace(prog, c=f / rho)
        x, mu, rep = solve(pen, max_iters=FACE_PROBE_MAX_ITERS)
        dual_value = -float(pen.b @ mu)
        debit = rep.dual_residual * (1.0 + np.linalg.norm(pen.c)) * abs(budget)
        return rho * (dual_value - debit - budget)

    best = -np.inf
    rho = 1.0 + 2.0 * float(np.linalg.norm(f))
    declines = 0
    for _ in range(12):
        lb = probe(rho)
        if lb > best:
            best = lb
            declines = 0
        else:
            declines += 1
            if declines >= 2:
                break
        rho *= 4.0
    return best


def optimal_face_bounds(prog: ConeProgram, p_star: float,
                        functional: np.ndarray,
                        slack: float = FACE_SLACK) -> tuple[float, float]:
    """Min and max of functional^T x over near-optimal feasible points
    (objective <= p_star + slack), via penalty-ladder cone solves.

    Returns an outer interval: each end is a duality-certified bound on the
    corresponding extreme value (lower <= true min, upper >= true max)."""
    functional = np.asarray(functional, dtype=float)
    if not np.any(functional):
        return 0.0, 0.0
    budget = p_star + slack
    lower = _face_one_side(prog, budget, functional)
    upper = -_face_one_side(prog, budget, -functional)
    return float(lower), float(upper)
