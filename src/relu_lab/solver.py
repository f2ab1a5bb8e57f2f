"""Exact group-norm solver (column generation), HiGHS LPs, cone
projections and the exact optimal face.

:func:`solve` handles the one program of the paper,
min sum_g ||x_g||_2  s.t.  A x + b >= 0 and x_g in C_g, where the x_g are
contiguous norm groups of `group` entries, A, b the rows that couple them
and C_g = {x_g : M_g x_g >= 0} each group's own cone (:class:`ConeProgram`
carries the M_g): cutting planes over the extreme directions of the cones,
each answer a primal-dual pair with a certified gap.
Every LP goes through :func:`_highs`, which runs it on one module-level
instance of scipy's bundled HiGHS core, given the options
``linprog(method="highs")`` sends once and cleared of the last model before
each LP, so the results are linprog's to the bit without its per-call
set-up and sparse conversion.  The optimal face (:func:`optimal_face_bounds`)
is exact: one solve's multipliers, one cone projection per group, HiGHS LPs
over the active extreme directions.  Everything is dense numpy and bitwise
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._compiled import highs, nnls_kernel

HighsLp, HighsModelStatus, HighsOptions = (
    highs.HighsLp, highs.HighsModelStatus, highs.HighsOptions)
MatrixFormat, _Highs, kHighsInf, simplex_constants = (
    highs.MatrixFormat, highs._Highs, highs.kHighsInf, highs.simplex_constants)

#: pricing tolerance and certified relative gap of a solve (the default of
#: solve, solve_primal, solve_dual and the CLI's --tol)
DEFAULT_TOL = 1e-8

#: solve: the master LP's bound on every multiplier, the round cap (a solve
#: that reaches it ends max_iters) and the steps of each Newton point
MASTER_BOX = 1e9
MAX_ROUNDS = 100
NEWTON_STEPS = 8

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
    """min sum_g ||x_g||  s.t.  A x + b >= 0 and cones[g] x_g >= 0, over
    contiguous norm groups x_g of `group` >= 1 variables: A, b are the rows
    that couple the groups, cones[g] the (k_g, group) rows of group g's own
    cone C_g, one matrix per group (k_g = 0 leaves x_g free)."""

    A: np.ndarray
    b: np.ndarray
    group: int
    cones: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "cones", tuple(
            np.asarray(M, dtype=float) for M in self.cones))
        m, n = self.A.shape
        if self.b.shape != (m,):
            raise ValueError("inconsistent dimensions")
        if self.group < 1 or n == 0 or n % self.group:
            raise ValueError("norm groups do not tile the variables")
        if (len(self.cones) != n // self.group
                or any(M.ndim != 2 or M.shape[1] != self.group
                       for M in self.cones)):
            raise ValueError("need one (k, group) cone matrix per norm group")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()
                and all(np.isfinite(M).all() for M in self.cones)):
            raise ValueError("non-finite program data")

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    def objective(self, x: np.ndarray) -> float:
        return float(_group_norms(x, self.group).sum())


@dataclass
class SolveReport:
    status: str  # optimal | max_iters | infeasible
    objective: float  # objective of the returned x (nan unless optimal)
    dual: float  # dual value -b^T mu of the returned mu (nan unless optimal)
    iterations: int  # master LP rounds

    @property
    def gap(self) -> float:
        """Certified duality gap: objective - dual >= p* - dual >= 0 up to
        rounding."""
        return self.objective - self.dual

    def require_optimal(self, what: str) -> None:
        """Raise SolverError unless the solve reached its tolerance."""
        if self.status != "optimal":
            raise SolverError(f"{what} solve: {self.status}")


def _group_norms(x: np.ndarray, group: int) -> np.ndarray:
    """Norm of each contiguous group of `group` entries."""
    return np.linalg.norm(x.reshape(-1, group), axis=1)


def _cone_rows(prog: ConeProgram) -> np.ndarray:
    """Every group's cone rows on the whole variable vector: the block
    diagonal of prog.cones (scipy.linalg.block_diag's, to the bit)."""
    G, d = len(prog.cones), prog.group
    return np.vstack([np.pad(M, ((0, 0), (g * d, (G - 1 - g) * d)))
                      for g, M in enumerate(prog.cones)])


def _price(prog: ConeProgram, mu: np.ndarray
           ) -> tuple[np.ndarray, list[np.ndarray]]:
    """(P, Z): with v = A^T mu cut into groups, P[g] = P_{C_g}(v_g) and Z[g]
    its multipliers on the rows of cones[g], one cone projection per group;
    ||P[g]|| is the gauge gamma_g of mu on group g."""
    v = (prog.A.T @ mu).reshape(-1, prog.group)
    P, Z = np.empty_like(v), []
    for g, M in enumerate(prog.cones):
        P[g], z = cone_projection(M, v[g])
        Z.append(z)
    return P, Z


def _directions(P: np.ndarray, active: np.ndarray) -> np.ndarray:
    """(n, k) matrix of the unit directions P[g] / ||P[g]|| of the k active
    groups, each embedded in its group's variables."""
    G, d = P.shape
    index = np.flatnonzero(active)
    E = np.zeros((G, d, len(index)))
    E[index, :, np.arange(len(index))] = (
        P[index] / np.linalg.norm(P[index], axis=1, keepdims=True))
    return E.reshape(G * d, -1)


def _face_lp(prog: ConeProgram, E: np.ndarray) -> tuple[np.ndarray, float]:
    """(t, min sum t) s.t. A E t + b >= 0, t >= 0: the least objective of a
    point E t on the directions E (each in its group's cone); SolverError
    when none is feasible."""
    k = E.shape[1]
    return _highs("face", np.ones(k), -prog.A @ E, prog.b, np.zeros(k))


def _pair(prog: ConeProgram, cuts: np.ndarray, mu: np.ndarray,
          P: np.ndarray):
    """(x, mu, objective, dual) from multipliers mu >= 0 priced to P, or
    None when the face LP is infeasible.  Dividing by scale = max(1, max
    gamma) makes mu dual feasible.  x = E t solves the face LP over the cut
    directions and those of the groups with gamma_g >= (1 - FACE_GAUGE_TOL)
    scale, so it is primal feasible; over the cuts alone that LP is the
    master's dual, which certifies a master mu once max gamma <= 1 + tol."""
    gamma = np.linalg.norm(P, axis=1)
    scale = max(1.0, gamma.max(initial=0.0))
    E = np.hstack((cuts, _directions(P, gamma >= (1.0 - FACE_GAUGE_TOL)
                                     * scale)))
    try:
        x = E @ _face_lp(prog, E)[0]
    except SolverError:
        return None
    return x, mu / scale, prog.objective(x), -float(prog.b @ mu) / scale


def _newton(prog: ConeProgram, active: np.ndarray, mu0: np.ndarray,
            Z: list[np.ndarray]) -> np.ndarray:
    """Newton point from mu0, on the support S of mu0 and the active
    groups: NEWTON_STEPS least-squares Newton steps on sum_g t_g K_g mu =
    -b_S (the rows S met with equality) and mu^T K_g mu = 1 (a unit gauge
    on each active group), with K_g = B_g Pi_g B_g^T, B_g the rows S of A
    on g's variables and Pi_g the projector onto the null space of g's face
    rows (the rows of cones[g] with z > 0 in Z)."""
    d, S = prog.group, np.flatnonzero(mu0 > 0.0)
    A_S, b_S = prog.A[S], prog.b[S]
    Q = [A_S[:, g * d:(g + 1) * d] @ _null_space(prog.cones[g][Z[g] > 0]).T
         for g in np.flatnonzero(active)]
    K = np.array([q @ q.T for q in Q]).reshape(-1, len(S), len(S))
    mu = mu0[S]
    t = np.linalg.lstsq((K @ mu).T, -b_S, rcond=None)[0]
    for _ in range(NEWTON_STEPS):
        KM = (K @ mu).T                     # column g is K_g mu
        J = np.block([[np.tensordot(t, K, 1), KM],
                      [2.0 * KM.T, np.zeros((len(t), len(t)))]])
        F = np.concatenate((KM @ t + b_S, mu @ KM - 1.0))
        step = np.linalg.lstsq(J, -F, rcond=None)[0]
        mu, t = mu + step[:len(S)], t + step[len(S):]
    out = np.zeros(len(mu0))
    out[S] = mu
    return out


def solve(prog: ConeProgram, tol: float = DEFAULT_TOL
          ) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Column generation over the extreme directions of the group cones:
    (x, mu, report) with a certified gap, objective(x) - dual <= tol (1 +
    objective), and mu >= 0 on the coupling rows alone: the cone rows'
    multipliers are those of the projections P_{C_g}((A^T mu)_g), which
    make up a sub-gradient of sum_g ||x_g|| at x.

    The dual, max -b^T mu over mu >= 0 with gauge ||P_{C_g}((A^T mu)_g)||
    <= 1 on every group, is a semi-infinite LP (Kelley's cutting planes).
    Each round the master LP maximizes -b^T mu subject to 0 <= mu <=
    MASTER_BOX and one cut (A e)^T mu <= 1 per generated unit direction e;
    pricing adds e = P_g / gamma_g for each gamma_g > 1 + tol.  The
    master's mu is tried (:func:`_pair`), then Newton points from it
    (:func:`_newton`) on the groups where its x is nonzero and on each
    group a Newton point's gauge exceeds 1.  A master mu that binds the box
    after the first round (whose master has no cuts), and whose face LP
    finds no feasible x (which would prove the program feasible), runs a
    phase-1 LP on the coupling and cone rows (once).  An infeasible
    program has a Farkas ray that meets every cut, so its master binds the
    box in every round and it ends `infeasible` in round 2.  MAX_ROUNDS
    rounds, or a master that repeats its mu, end `max_iters`.  Neither
    returns a solution: x and mu are zero and the values nan."""
    def certified(pair) -> bool:
        return pair is not None and pair[2] - pair[3] <= tol * (1.0 + pair[2])

    m, n = prog.A.shape
    cuts, last, checked = np.zeros((n, 0)), None, False
    for rounds in range(1, MAX_ROUNDS + 1):
        mu = np.maximum(_highs("master", prog.b, (prog.A @ cuts).T,
                               np.ones(cuts.shape[1]), np.zeros(m),
                               upper=MASTER_BOX)[0], 0.0)
        P, Z = _price(prog, mu)
        pair = _pair(prog, cuts, mu, P)
        if (pair is None and rounds > 1 and not checked
                and mu.max(initial=0.0) >= MASTER_BOX):
            rows = np.vstack((prog.A, _cone_rows(prog)))
            if lp_feasible(-rows, np.append(prog.b, np.zeros(len(rows) - m))
                           ) is None:
                return (np.zeros(n), np.zeros(m),
                        SolveReport("infeasible", np.nan, np.nan, rounds))
            checked = True
        if np.array_equal(mu, last):
            break           # the master cannot separate what pricing finds
        last = mu
        active = pair is not None and _group_norms(pair[0], prog.group) > 0.0
        while pair is not None and not certified(pair):
            mu_n = _newton(prog, active, mu, Z)
            if not np.all(mu_n >= 0.0):
                break
            P_n, Z_n = _price(prog, mu_n)
            pair = _pair(prog, cuts, mu_n, P_n)
            grown = active | (np.linalg.norm(P_n, axis=1) > 1.0)
            if np.array_equal(grown, active):
                break
            active = grown
        if certified(pair):
            return pair[0], pair[1], SolveReport("optimal", *pair[2:], rounds)
        cuts = np.hstack((cuts, _directions(
            P, np.linalg.norm(P, axis=1) > 1.0 + tol)))
    return (np.zeros(n), np.zeros(m),
            SolveReport("max_iters", np.nan, np.nan, rounds))


def _highs(what: str, c: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray,
           lower: np.ndarray, upper: float = kHighsInf
           ) -> tuple[np.ndarray, float]:
    """(x, min c^T x) s.t. A_ub x <= b_ub, lower <= x <= upper (lower -inf
    for free), on _HIGHS cleared of the last model (its options stay);
    SolverError unless HiGHS ends optimal.  A_ub goes in column-wise without
    its exact zeros, as scipy's csc_array stores it.  An LP without
    variables, which HiGHS calls empty, is solved here: x = () when
    b_ub >= 0."""
    m, n = A_ub.shape
    if n == 0:
        if b_ub.min(initial=0.0) < 0.0:
            raise SolverError(f"{what} LP failed: Infeasible")
        return np.zeros(0), 0.0
    At = A_ub.T
    nonzero = At != 0.0
    lp = HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = c
    lp.col_lower_ = lower
    lp.col_upper_ = np.full(n, upper)
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


def _null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the null space of `rows`, each row
    normalized first; the identity when there are none."""
    if not len(rows):
        return np.eye(rows.shape[1])
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    _, s, Vt = np.linalg.svd(rows)
    return Vt[int(np.sum(s > s[0] * max(rows.shape) * np.finfo(float).eps)):]


def nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy.optimize.nnls(A, b) on its compiled kernel: (x, ||A x - b||)
    with x = argmin_{x >= 0} ||A x - b||.  ValueError on a non-finite
    entry, RuntimeError when the kernel stops at 3 n iterations."""
    A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
    b = np.asarray_chkfinite(b, dtype=np.float64, order="C")
    x, rnorm, info = nnls_kernel(A, b, 3 * A.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return x, rnorm


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
        null = _null_space(active)
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

    With mu from one `solve`, priced per group (:func:`_price`) to gamma_g
    and e_g = P_g / gamma_g, complementary slackness makes every optimal
    point sum t_g e_g over the groups with gamma_g >= 1 - FACE_GAUGE_TOL,
    t >= 0, coupling rows met, so min sum t is the optimal value p*_LP;
    each end is one HiGHS LP in t under sum t <= max(p_star, p*_LP) +
    slack."""
    _, mu, report = solve(prog)
    report.require_optimal("face multiplier")
    P, _ = _price(prog, mu)
    gamma = np.linalg.norm(P, axis=1)
    neither = np.flatnonzero((gamma > 1.0 - np.sqrt(FACE_GAUGE_TOL))
                             & (np.abs(gamma - 1.0) > FACE_GAUGE_TOL))
    if len(neither):
        g = neither[0]
        raise DegenerateError(f"group {g} gauge {float(gamma[g])!r} is "
                              f"neither active nor inactive")
    active = gamma >= 1.0 - FACE_GAUGE_TOL
    if not active.any():
        raise DegenerateError("no norm group is active on the optimal face")
    # LPs in t: the coupling rows -A_c E t <= b_c, then sum t <= budget
    E = _directions(P, active)
    _, p_lp = _face_lp(prog, E)
    A_ub = np.vstack((-prog.A @ E, np.ones(E.shape[1])))
    b_ub = np.append(prog.b, max(p_star, p_lp) + slack)
    lower = np.zeros(E.shape[1])
    functional = np.asarray(functional, dtype=float)
    bounds = []
    for row in np.atleast_2d(functional):
        f = row @ E
        lo, hi = (_highs("face", sign * f, A_ub, b_ub, lower)[1]
                  for sign in (1.0, -1.0))
        bounds.append((float(lo), 0.0 - float(hi)))   # no -0.0 upper end
    return bounds if functional.ndim == 2 else bounds[0]
