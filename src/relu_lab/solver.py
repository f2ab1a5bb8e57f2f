"""First-order conic solver (primal-dual operator splitting), HiGHS LPs,
cone projections and the exact optimal face.

:func:`solve` handles  min c^T x + sum_g ||x_g||_2  s.t.  A x + b in K  over
one layout: K is the nonnegative orthant on the first `nonneg` rows and
second-order cones {(t, v) : ||v|| <= t} of `soc` rows each on the rest, and
the x_g are contiguous norm groups of `group` entries; the proximal step and
the projection onto K are each one reshape over that layout.  The optimal
face (:func:`optimal_face_bounds`) is exact: one solve's multipliers, one
cone projection per group, HiGHS LPs over the active extreme directions.
Everything is dense numpy and bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, nnls

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


class SolverError(RuntimeError):
    """Raised when a solve does not reach the requested tolerance."""


class DegenerateError(ValueError):
    """A numerical degeneracy (vanishing dual, ambiguous gauge): exit 1."""


class InconclusiveError(SolverError):
    """Phase-1 value fell in the dead zone between feasible and infeasible."""


@dataclass(frozen=True)
class ConeProgram:
    """min c^T x + sum of group norms  s.t.  A x + b in K.  K: the orthant
    on the first `nonneg` rows, second-order blocks of `soc` rows (norm row
    first) on the rest.  group > 0: contiguous norm groups of `group`
    variables; group == 0: no norm term."""

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
        if not all(np.isfinite(a).all() for a in (self.A, self.b, self.c)):
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
    trace: list[tuple[int, float, float, float]] = field(default_factory=list)

    def require_optimal(self, what: str) -> None:
        """Raise SolverError unless the solve reached its tolerance."""
        if self.status != "optimal":
            raise SolverError(f"{what} solve: {self.status}")


def _group_norms(x: np.ndarray, group: int) -> np.ndarray:
    """Norm of each contiguous group of `group` entries (none when 0)."""
    return (np.linalg.norm(x.reshape(-1, group), axis=1) if group
            else np.zeros(0))


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

    Returns (x, mu, report): A^T mu - c lies in the sub-differential of the
    norm objective, mu is in K (the orthant and SOC blocks are self-dual) and
    mu^T (Ax + b) -> 0 at the optimum.  Fixed step sizes from 50 power
    iterations, no restarts; every 25 iterations the relative primal and dual
    residuals and the duality gap are checked against `tol`."""
    m, n = prog.A.shape
    L = _operator_norm(prog.A) * 1.02
    x, y = np.zeros(n), np.zeros(m)
    trace: list[tuple[int, float, float, float]] = []
    it = 0
    if L == 0.0:
        # A = 0: x minimizes the objective alone, no iterations; whether b
        # lies in K is judged by the residuals, as at every other exit
        x = _prox_objective(x, 1.0, prog)
        max_iters = 0
    else:
        tau = sigma = 0.99 / L
    At = prog.A.T.copy()
    for it in range(1, max_iters + 1):
        x_new = _prox_objective(x - tau * (At @ y), tau, prog)
        xbar = 2.0 * x_new - x
        w = y + sigma * (prog.A @ xbar)
        y = w - sigma * (_project_cone(w / sigma + prog.b, prog.nonneg,
                                       prog.soc) - prog.b)
        x = x_new
        if it % 25 == 0 or it == max_iters:
            pres, dres, gap, pobj = _residuals(prog, x, -y)
            if trace_every and (it % trace_every == 0):
                trace.append((it, pobj, pres, dres))
            if max(pres, dres, gap) <= tol:
                break

    mu = -y
    pres, dres, gap, pobj = _residuals(prog, x, mu)
    status = ("optimal" if max(pres, dres, gap) <= tol else
              "infeasible-suspected" if pres > np.sqrt(tol) else "max_iters")
    return x, mu, SolveReport(status, pobj, pres, dres, gap, it, trace)


def _highs(what: str, c, A_ub, b_ub, bounds):
    """HiGHS  min c^T x  s.t.  A_ub x <= b_ub; SolverError unless optimal."""
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise SolverError(f"{what} LP failed: {res.message}")
    return res


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
    bounds = [(None, None)] * d + [(0.0, None)]
    res = _highs("phase-1", c, np.hstack((A, -np.ones((m, 1)))), b, bounds)
    v = float(res.fun)
    if v <= FEASIBLE_TOL:
        return res.x[:d]
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
                        functional: np.ndarray,
                        slack: float = 0.0) -> tuple[float, float]:
    """Min and max of functional^T x over the optimal face of a pure
    group-norm orthant program, widened by `slack` of objective.

    Rows with b = 0 and support in one group g alone form g's cone C_g; the
    others couple.  With mu from one `solve` and v_g the coupling rows' part
    of (A^T mu)_g, gamma_g = ||P_{C_g}(v_g)||, e_g = P_{C_g}(v_g) / gamma_g.
    By complementary slackness every optimal point is sum t_g e_g over the
    groups with gamma_g >= 1 - FACE_GAUGE_TOL, t >= 0, coupling rows met, so
    min sum t is the optimal value p*_LP; each end is one HiGHS LP in t
    under sum t <= max(p_star, p*_LP) + slack."""
    if prog.c.any() or prog.soc or not prog.group:
        raise SolverError("face bounds expect a pure group-norm objective "
                          "over orthant rows")
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
    p_lp = _highs("face", A_ub[-1], A_ub[:-1], prog.b[~own], (0.0, None)).fun
    b_ub = np.append(prog.b[~own], max(p_star, p_lp) + slack)
    f = np.asarray(functional, dtype=float) @ E
    lo, hi = (_highs("face", sign * f, A_ub, b_ub, (0.0, None)).fun
              for sign in (1.0, -1.0))
    return float(lo), -float(hi)
