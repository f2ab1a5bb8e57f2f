"""Exact group-norm solver (column generation), HiGHS LPs, cone
projections and the exact optimal face.

:func:`solve` handles the one program of the paper,
min sum_g ||x_g||_2  s.t.  A x + b >= 0 and x_g in C_g, where the x_g are
contiguous norm groups of `group` entries, A, b the rows that couple them
and C_g each group's own cone, a sign pattern over cone rows that every
group shares (:class:`ConeProgram`): cutting planes over the extreme
directions of the cones, each answer a primal-dual pair with a certified
gap.
Every LP goes through :func:`_highs`, which runs it on one module-level
instance of scipy's bundled HiGHS core, given the options
``linprog(method="highs")`` sends once and cleared of the last model before
each LP, so the results are linprog's to the bit without its per-call
set-up and sparse conversion.  Every cone projection, here and in
``geometry``, is exact and goes through :class:`Cones`: the projection of
v onto a cone is v's projection onto one flat of the cone rows (Moreau's
decomposition), the longest of those that lands in the cone, and one
product per flat prices every cone; over many flats a cone first tries
the flat of its Lawson-Hanson active set.  The optimal face
(:func:`optimal_face_bounds`) is exact: one solve's multipliers, one cone
projection per group, HiGHS LPs over the active extreme directions.
Everything is dense numpy and bitwise deterministic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._compiled import highs

HighsModelStatus, HighsOptions, MatrixFormat, ObjSense = (
    highs.HighsModelStatus, highs.HighsOptions, highs.MatrixFormat,
    highs.ObjSense)
_Highs, kHighsInf, simplex_constants = (
    highs._Highs, highs.kHighsInf, highs.simplex_constants)

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

#: relative threshold used everywhere a singular value decides rank; a unit
#: row whose projection onto a flat has at most this norm vanishes on it
RANK_RTOL = 1e-10

#: Cones: over more flats than this, a cone first tries the flat of its
#: active set and tries every flat only when that fails the KKT check
ACTIVE_SET_MIN_FLATS = 128

#: Cones.choose takes the cones this many at a time, so its arrays stay
#: O(CHOOSE_ROWS x rows) however many cones there are
CHOOSE_ROWS = 1024

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
    """min sum_g ||x_g||  s.t.  A x + b >= 0 and x_g in C_g, over
    contiguous norm groups x_g of `group` >= 1 variables: A, b are the rows
    that couple the groups, and C_g = {x_g : signs[g, i] rows[i] x_g >= 0
    wherever signs[g, i] != 0} is group g's own cone over the (k, group)
    cone rows every group shares, signs a (groups, k) matrix of -1, 0 and
    1 (the form :class:`Cones` takes; a group without a nonzero sign is
    free)."""

    A: np.ndarray
    b: np.ndarray
    group: int
    rows: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        signs = np.asarray(self.signs)
        m, n = self.A.shape
        if self.b.shape != (m,):
            raise ValueError("inconsistent dimensions")
        if self.group < 1 or n == 0 or n % self.group:
            raise ValueError("norm groups do not tile the variables")
        if (self.rows.ndim != 2 or self.rows.shape[1] != self.group
                or signs.shape != (n // self.group, len(self.rows))):
            raise ValueError("need (k, group) cone rows and one sign per "
                             "norm group and cone row")
        if not ((signs == -1) | (signs == 0) | (signs == 1)).all():
            raise ValueError("cone signs must be -1, 0 or 1")
        object.__setattr__(self, "signs", signs.astype(np.int8))
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()
                and np.isfinite(self.rows).all()):
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
    """Every group's cone rows signs[g, i] rows[i], signs[g, i] != 0, on
    the whole variable vector, group by group: the block diagonal of the
    groups' cone matrices (scipy.linalg.block_diag's, to the bit)."""
    G, d = prog.signs.shape[0], prog.group
    g, i = np.nonzero(prog.signs)
    out = np.zeros((len(g), G, d))
    out[np.arange(len(g)), g] = prog.signs[g, i, None] * prog.rows[i]
    return out.reshape(len(g), G * d)


def _price(prog: ConeProgram, cones: Cones, mu: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """(P, Pi): with v = A^T mu cut into groups, P[g] = P_{C_g}(v_g) and
    Pi[g] the projector onto the flat it lies on (:class:`Cones`);
    ||P[g]|| is the gauge gamma_g of mu on group g."""
    v = (prog.A.T @ mu).reshape(-1, prog.group)
    flat, _ = cones.choose(v)
    F = cones.bases(flat)
    return cones.project(v, flat), F @ F.transpose(0, 2, 1)


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
            Pi: np.ndarray) -> np.ndarray:
    """Newton point from mu0, on the support S of mu0 and the active
    groups: NEWTON_STEPS least-squares Newton steps on sum_g t_g K_g mu =
    -b_S (the rows S met with equality) and mu^T K_g mu = 1 (a unit gauge
    on each active group), with K_g = B_g Pi_g B_g^T, B_g the rows S of A
    on g's variables and Pi_g the projector onto the flat of g's projection
    (:func:`_price`)."""
    d, S = prog.group, np.flatnonzero(mu0 > 0.0)
    A_S, b_S = prog.A[S], prog.b[S]
    B = A_S.reshape(len(S), -1, d).transpose(1, 0, 2)[active]
    K = B @ Pi[active] @ B.transpose(0, 2, 1)
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
    cones = Cones(prog.rows, prog.signs)
    cuts, last, checked = np.zeros((n, 0)), None, False
    for rounds in range(1, MAX_ROUNDS + 1):
        mu = np.maximum(_highs("master", prog.b, (prog.A @ cuts).T,
                               np.ones(cuts.shape[1]), np.zeros(m),
                               upper=MASTER_BOX)[0], 0.0)
        P, Pi = _price(prog, cones, mu)
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
            mu_n = _newton(prog, active, mu, Pi)
            if not np.all(mu_n >= 0.0):
                break
            P_n, _ = _price(prog, cones, mu_n)
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
    index = nonzero.nonzero()[1]
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=start[1:])
    _HIGHS.clearModel()
    _HIGHS.passModel(n, m, len(index), MatrixFormat.kColwise,
                     ObjSense.kMinimize, 0.0, c, lower, np.full(n, upper),
                     np.full(m, -kHighsInf), b_ub, start, index,
                     At[nonzero], np.zeros(n, dtype=np.int32))
    _HIGHS.run()
    status = _HIGHS.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise SolverError(
            f"{what} LP failed: {_HIGHS.modelStatusToString(status)}")
    return (np.array(_HIGHS.getSolution().col_value),
            _HIGHS.getObjectiveValue())


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
    c, lower = np.zeros(d + 1), np.full(d + 1, -np.inf)
    c[d], lower[d] = 1.0, 0.0
    x, v = _highs("phase-1", c, np.concatenate((A, np.full((m, 1), -1.0)),
                                                axis=1), b, lower)
    if v <= FEASIBLE_TOL:
        return x[:d]
    if v > INFEASIBLE_TOL:
        return None
    raise InconclusiveError(f"phase-1 value {v:.3e} in dead zone")


def _unit_rows(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, index, sign): the distinct nonzero rows of B scaled to unit length,
    up to sign (the first nonzero entry positive), in order of first
    appearance, and B_i = sign_i ||B_i|| U[index_i] (sign 0 on a zero row)."""
    norms = np.linalg.norm(B, axis=1)
    nonzero = norms > 0.0
    R = B[nonzero] / norms[nonzero, None]
    lead = np.sign(R[np.arange(len(R)), np.argmax(R != 0.0, axis=1)])
    R = R * lead[:, None] + 0.0             # + 0.0 turns -0.0 into 0.0
    sign, index = np.zeros(len(B)), np.zeros(len(B), dtype=int)
    sign[nonzero] = lead
    first: dict[bytes, int] = {}        # a row's bytes -> its index in U
    index[nonzero] = [first.setdefault(row.tobytes(), len(first))
                      for row in R]
    return (np.frombuffer(b"".join(first)).reshape(len(first), B.shape[1]),
            index, sign)


@functools.lru_cache(maxsize=8)
def _flats(key: bytes, n: int, d: int
           ) -> tuple[np.ndarray, np.ndarray, tuple, dict, int]:
    """(bases, live, probes, index, r) of the flats of the n x d unit rows U
    whose bytes are key, built once per set of rows (one dataset's geometry
    calls and one solve's pricing rounds share them).  With r the rank of
    U, the flats are the null spaces of the subsets of fewer than r rows,
    then null(U) when r < d, each once (a flat is known by the rows that
    vanish on it), in that order.  bases[f] is a d x d matrix whose nonzero
    columns are an orthonormal basis F of flat f, live[f] marks the rows
    nonzero on it and probes[f] = [bases[f] | F F^T U[live[f]]^T]: v^T
    probes[f] gives the coordinates F^T v of v's projection and its
    products with those rows (kept for at most ACTIVE_SET_MIN_FLATS flats;
    above, :class:`Cones` makes them as it needs them).  index maps each
    independent subset of fewer than r rows, as the bytes of its boolean
    row mask, to its flat."""
    U = np.frombuffer(key).reshape(n, d)
    s, Vt = np.linalg.svd(U)[1:] if n else (np.zeros(0), np.eye(d))
    r = int(np.sum(s > RANK_RTOL * s.max(initial=0.0)))
    # the last d - k right singular vectors of a subset of k rows span its
    # flat; a subset of lower rank repeats the flat of a smaller one, so it
    # is dropped; null(U) is spanned by U's own last d - r
    candidates, owners = [np.eye(d)[None]], [np.zeros((1, n), dtype=bool)]
    for k in range(1, r):
        subsets = np.array(list(itertools.combinations(range(n), k)))
        s_k, Vt_k = np.linalg.svd(U[subsets])[1:]
        independent = (s_k > RANK_RTOL * s_k[:, :1]).all(axis=1)
        candidates.append(np.pad(Vt_k[independent, k:].transpose(0, 2, 1),
                                 ((0, 0), (0, 0), (0, k))))
        mask = np.zeros((int(independent.sum()), n), dtype=bool)
        mask[np.arange(len(mask))[:, None], subsets[independent]] = True
        owners.append(mask)
    if r < d:
        candidates.append(np.pad(Vt[r:].T, ((0, 0), (0, r)))[None])
        owners.append(np.zeros((1, 0), dtype=bool))     # indexes no subset
    candidates = np.concatenate(candidates)
    kept, index, seen = [], {}, {}      # seen: live rows' bytes -> flat
    for c, owner in enumerate(itertools.chain.from_iterable(owners)):
        key = (np.linalg.norm(U @ candidates[c], axis=1) > RANK_RTOL
               ).tobytes()
        if key not in seen:
            seen[key] = len(kept)
            kept.append(c)
        if owner.size:
            index[owner.tobytes()] = seen[key]
    bases = candidates[kept]
    live = np.frombuffer(b"".join(seen), dtype=bool).reshape(len(kept), n)
    probes = ([_probe(F, U, l) for F, l in zip(bases, live)]
              if len(bases) <= ACTIVE_SET_MIN_FLATS else [])
    for a in (bases, live, *probes):    # every caller shares the cached arrays
        a.flags.writeable = False
    return bases, live, tuple(probes), index, r


def _probe(F: np.ndarray, U: np.ndarray, live: np.ndarray) -> np.ndarray:
    """[F | F F^T U[live]^T] for the basis F of a flat (:func:`_flats`)."""
    return np.hstack((F, F @ (F.T @ U[live].T)))


class Cones:
    """Cones C_k = {u : M_k u >= 0}, k < len(S), over one set of rows B:
    row i of B, times S[k, i], is a row of cone k where S[k, i] != 0.  The
    rows reach the cones as unit rows (:func:`_unit_rows`) with a sign
    each, and a cone that holds a unit row with both signs lies in its
    hyperplane.

    By Moreau's decomposition P_C(v) lies on the flat L of the face whose
    relative interior holds it, and there it is the orthogonal projection
    Pi_L v; every other flat L with Pi_L v in C has v^T Pi_L v = ||Pi_L v||^2
    <= ||P_C(v)||^2.  So P_C(v) is the largest Pi_L v in C over the flats
    of the unit rows (:func:`_flats`), and one product v^T probes[f] per
    flat prices it, for every cone and for both v and -v.  That costs
    flats x cones, and the flats of n rows of rank r number sum_{k<r}
    C(n, k), about as many as the cones of their arrangement; so above
    ACTIVE_SET_MIN_FLATS flats each cone first takes the flat of its
    Lawson-Hanson active set (:meth:`_active_sets`), which it keeps where
    the projection onto that flat lies in the cone with multipliers above
    RANK_RTOL ||v|| (the KKT conditions of the projection), and only the
    other cones try every flat.  A projection goes through the coordinates,
    F (F^T v), so it stays on its flat even when ||F^T v|| << ||v||."""

    def __init__(self, B: np.ndarray, S: np.ndarray):
        U, index, unit_sign = _unit_rows(B)
        S = np.asarray(S)
        pos = np.zeros((len(S), len(U)), dtype=bool)
        neg = np.zeros((len(S), len(U)), dtype=bool)
        for i, j in enumerate(index):   # fold B's rows onto their unit rows
            pos[:, j] |= S[:, i] * unit_sign[i] > 0.0
            neg[:, j] |= S[:, i] * unit_sign[i] < 0.0
        self.units = U
        self.signs = pos.astype(np.int8) - neg
        both = pos & neg
        self.both = both if both.any() else None
        (self.flats, self.live, self.probes, self.index, self.rank
         ) = _flats(U.tobytes(), *U.shape)

    def choose(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(plus, minus): for each k the flat f whose projection of V[k]
        (of -V[k]) lies in C_k with the largest norm, the first such flat
        on a tie, and -1 when only the origin does.  ValueError when V is
        not finite.  Row k's answer does not depend on the other rows."""
        if not np.isfinite(V).all():
            raise ValueError("cone projection of a non-finite vector")
        parts = [self._choose(V[i:i + CHOOSE_ROWS],
                              np.arange(i, min(i + CHOOSE_ROWS, len(V))))
                 for i in range(0, max(len(V), 1), CHOOSE_ROWS)]
        return np.concatenate([p[0] for p in parts]), np.concatenate(
            [p[1] for p in parts])

    def _choose(self, V: np.ndarray, cones: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`choose` for V[k] in cone cones[k]."""
        K = len(V)
        if len(self.flats) <= ACTIVE_SET_MIN_FLATS:
            return self._every_flat(V, cones)
        choice, kept = self._active_sets(np.concatenate((V, -V)),
                                         np.tile(cones, 2))
        choice, kept = choice.reshape(2, K), kept.reshape(2, K)
        rest = np.flatnonzero(~kept.all(axis=0))
        if len(rest):
            tried = np.array(self._every_flat(V[rest], cones[rest]))
            choice[:, rest] = np.where(kept[:, rest], choice[:, rest], tried)
        return choice[0], choice[1]

    def _every_flat(self, V: np.ndarray, cones: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`choose` for V[k] in cone cones[k], over every flat."""
        d, V3 = V.shape[1], V[:, None, :]
        signs = self.signs[cones]
        both = None if self.both is None else self.both[cones]
        top = np.full((2, len(V)), -1.0)    # the largest norm2 so far
        choice = np.full((2, len(V)), -1)
        probes = self.probes or (_probe(F, self.units, live)
                                 for F, live in zip(self.flats, self.live))
        for f, (probe, live) in enumerate(zip(probes, self.live)):
            out = np.matmul(V3, probe)[:, 0]
            c = out[:, :d]
            T = out[:, d:] * signs[:, live]
            norm2 = np.matmul(c[:, None, :], c[:, :, None])[:, 0, 0]
            plus, minus = (T >= 0.0).all(axis=1), (T <= 0.0).all(axis=1)
            if both is not None:          # such rows must vanish on f
                on = ~both[:, live].any(axis=1)
                plus, minus = plus & on, minus & on
            for s, inside in enumerate((plus, minus)):
                better = inside & (norm2 > top[s])  # > keeps the first on a tie
                top[s, better] = norm2[better]
                choice[s, better] = f
        return choice[0], choice[1]

    def _multipliers(self, W: np.ndarray, S: np.ndarray, P: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(z, ok): for each row w of W, z minimizes ||w + M_P^T z_P||
        over z_P, with M = S U and z zero off the passive set P; ok is
        False, and z zero, where P holds more than d rows or M_P is
        singular."""
        d = min(W.shape[1], P.shape[1])
        count = P.sum(axis=1)
        ok = count <= d
        at = np.argsort(~P, axis=1, kind="stable")[:, :d]   # P's rows first
        on = np.arange(d) < count[:, None]
        M = self.units[at] * (np.take_along_axis(S, at, 1) * on)[:, :, None]
        G = np.matmul(M, M.transpose(0, 2, 1))
        G[:, np.arange(d), np.arange(d)] += ~on
        ok &= np.linalg.det(G) > RANK_RTOL ** 2
        G[~ok] = np.eye(d)
        z = np.linalg.solve(G, -np.matmul(M, W[:, :, None]))[:, :, 0]
        out = np.zeros(P.shape)
        np.put_along_axis(out, at, z * (on & ok[:, None]), 1)
        return out, ok

    def _active_sets(self, W: np.ndarray, cones: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """(flat, kept): for each row w of W, the flat of its active set
        after Lawson-Hanson on min ||w + M^T z|| over z >= 0, M the rows of
        cone cones[k] (the dual of projecting w onto that cone: the
        projection is w + M^T z), and whether it is kept: the projection
        onto that flat lies in the cone and the set's multipliers exceed
        RANK_RTOL ||w||.  A cone that lies in a hyperplane, a singular
        active set, one still growing after 3n steps and one whose flat
        is not indexed are not kept."""
        S = self.signs[cones]
        B, n = S.shape
        tol = RANK_RTOL * np.linalg.norm(W, axis=1)
        z, P, p = np.zeros((B, n)), np.zeros((B, n), dtype=bool), W.copy()
        run = np.ones(B, dtype=bool) if self.both is None else (
            ~self.both[cones].any(axis=1))
        done = np.zeros(B, dtype=bool)
        for _ in range(3 * n):
            rows = np.flatnonzero(run)
            if not len(rows):
                break
            grad = -np.matmul(p[rows, None, :], self.units.T)[:, 0] * S[rows]
            grad[P[rows]] = -np.inf
            j = grad.argmax(axis=1)
            enter = grad[np.arange(len(rows)), j] > tol[rows]
            done[rows[~enter]], run[rows[~enter]] = True, False
            rows, j = rows[enter], j[enter]
            P[rows, j] = True
            new, ok = self._multipliers(W[rows], S[rows], P[rows])
            while True:                     # drop the rows new leaves <= 0
                bad = ok & (P[rows] & (new <= 0.0)).any(axis=1)
                if not bad.any():
                    break
                at, old, low = rows[bad], z[rows[bad]], new[bad]
                neg = P[at] & (low <= 0.0)
                gap = np.where(neg & (old > low), old - low, 1.0)
                step = np.where(neg, old / gap, np.inf)
                first = step.argmin(axis=1)
                old = old + step[np.arange(len(at)), first, None] * (low - old)
                P[at] &= old > 0.0
                P[at, first] = False
                z[at] = np.where(P[at], old, 0.0)
                new[bad], ok[bad] = self._multipliers(W[at], S[at], P[at])
            run[rows[~ok]] = False
            rows, new = rows[ok], new[ok]
            z[rows] = new
            p[rows] = W[rows] + np.matmul((new * S[rows])[:, None, :],
                                          self.units)[:, 0]
        # r rows span null(U), the last flat, or the origin when r == d
        whole = len(self.flats) - 1 if self.rank < W.shape[1] else -1
        flat = np.array([self.index.get(m.tobytes(), -2) if k < self.rank
                         else whole if k == self.rank else -2
                         for k, m in zip(P.sum(axis=1), P)], dtype=int)
        kept = done & (flat > -2)
        flat[~kept] = -1
        q = self.project(W, flat)
        T = np.matmul(q[:, None, :], self.units.T)[:, 0] * S
        live = self.live[flat] & (flat >= 0)[:, None]
        kept &= ~(live & (T < 0.0)).any(axis=1)
        kept &= (~P | (z > tol[:, None])).all(axis=1)
        return flat, kept

    def bases(self, flat: np.ndarray) -> np.ndarray:
        """The basis of each flat index, 0 for -1 (the origin)."""
        F = self.flats[flat]
        F[flat < 0] = 0.0
        return F

    def project(self, V: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Row k of V projected onto flat[k] (0 for -1), F (F^T v) row by
        row."""
        F = self.bases(flat)
        return np.matmul(np.matmul(V[:, None, :], F), F.transpose(0, 2, 1)
                         )[:, 0]


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
    P, _ = _price(prog, Cones(prog.rows, prog.signs), mu)
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
