"""First-order conic solver (primal-dual operator splitting) and LP feasibility.

Canonical problem shape handled by :func:`solve`:

    minimize    c^T x + sum_g ||x[G_g]||_2
    subject to  A x + b in K

where K is a product, row-block by row-block, of the zero cone (equalities),
the nonnegative orthant and second-order cones.  The group index sets G_g are
disjoint; the proximal step soft-thresholds each group's vector norm, the dual
step projects onto K.  Everything is dense numpy and bitwise deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

ZERO = "zero"
NONNEG = "nonneg"
SOC = "soc"

#: lp_feasible verdict thresholds (phase-1 objective).
FEASIBLE_TOL = 1e-9
INFEASIBLE_TOL = 1e-6


class SolverError(RuntimeError):
    """Raised when a solve does not reach the requested tolerance."""


class DegenerateError(ValueError):
    """A numerical degeneracy (a vanishing dual or gauge, an empty network):
    a ValueError for callers, a numerical failure (exit 1) for the CLI."""


class InconclusiveError(SolverError):
    """Phase-1 value fell in the dead zone between feasible and infeasible."""


@dataclass(frozen=True)
class Cone:
    kind: str  # zero | nonneg | soc
    size: int

    def __post_init__(self):
        if self.kind not in (ZERO, NONNEG, SOC):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.size < 1 or (self.kind == SOC and self.size < 2):
            raise ValueError(f"bad cone size {self.size} for {self.kind}")


@dataclass(frozen=True)
class ConeProgram:
    """min c^T x + sum of group norms  s.t.  A x + b in K."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: tuple[Cone, ...]
    groups: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError("inconsistent dimensions")
        if sum(cone.size for cone in self.cones) != m:
            raise ValueError("cone sizes do not cover the rows")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()
                and np.isfinite(self.c).all()):
            raise ValueError("non-finite program data")
        seen = np.zeros(n, dtype=bool)
        for g in self.groups:
            if seen[g].any():
                raise ValueError("norm groups must be disjoint")
            seen[g] = True

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    def objective(self, x: np.ndarray) -> float:
        val = float(self.c @ x)
        for g in self.groups:
            val += float(np.linalg.norm(x[g]))
        return val


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


def _project_cone(s: np.ndarray, cones: tuple[Cone, ...]) -> np.ndarray:
    out = np.empty_like(s)
    i = 0
    for cone in cones:
        j = i + cone.size
        blk = s[i:j]
        if cone.kind == ZERO:
            out[i:j] = 0.0
        elif cone.kind == NONNEG:
            out[i:j] = np.maximum(blk, 0.0)
        else:
            t, v = blk[0], blk[1:]
            nv = np.linalg.norm(v)
            if nv <= t:
                out[i:j] = blk
            elif nv <= -t:
                out[i:j] = 0.0
            else:
                a = 0.5 * (1.0 + t / nv)
                out[i] = a * nv
                out[i + 1:j] = a * v
        i = j
    return out


def _prox_objective(v: np.ndarray, tau: float, prog: ConeProgram) -> np.ndarray:
    """prox of tau*(c^T x + sum group norms) at v: shift then group shrink."""
    x = v - tau * prog.c
    for g in prog.groups:
        nrm = np.linalg.norm(x[g])
        x[g] *= max(0.0, 1.0 - tau / nrm) if nrm > 0 else 0.0
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
    pres = np.linalg.norm(s - _project_cone(s, prog.cones))
    pres /= 1.0 + np.linalg.norm(prog.b)

    v = prog.A.T @ mu - prog.c
    grouped = np.zeros(prog.num_vars, dtype=bool)
    dviol = 0.0
    for g in prog.groups:
        grouped[g] = True
        dviol += max(0.0, np.linalg.norm(v[g]) - 1.0) ** 2
    dviol += float(np.sum(v[~grouped] ** 2))
    dres = np.sqrt(dviol) / (1.0 + np.linalg.norm(prog.c))

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
        y = w - sigma * (_project_cone(w / sigma + prog.b, prog.cones) - prog.b)
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

def _face_one_side(prog: ConeProgram, budget: float, f: np.ndarray,
                   tol: float, max_iters: int) -> float:
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
    grouped = np.zeros(prog.num_vars, dtype=bool)
    for g in prog.groups:
        grouped[g] = True
    if not grouped.all():
        raise SolverError("face bounds expect every variable in a norm group")

    def probe(rho: float) -> float:
        pen = ConeProgram(c=f / rho, A=prog.A, b=prog.b,
                          cones=prog.cones, groups=prog.groups)
        x, mu, rep = solve(pen, tol=tol, max_iters=max_iters)
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
                        functional: np.ndarray, tol: float = 1e-8,
                        max_iters: int = 40_000,
                        slack: float = 1e-6) -> tuple[float, float]:
    """Min and max of functional^T x over near-optimal feasible points
    (objective <= p_star + slack), via penalty-ladder cone solves.

    Returns an outer interval: each end is a duality-certified bound on the
    corresponding extreme value (lower <= true min, upper >= true max)."""
    functional = np.asarray(functional, dtype=float)
    if not np.any(functional):
        return 0.0, 0.0
    budget = p_star + slack
    lower = _face_one_side(prog, budget, functional, tol, max_iters)
    upper = -_face_one_side(prog, budget, -functional, tol, max_iters)
    return float(lower), float(upper)
