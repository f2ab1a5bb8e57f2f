"""Convex max-margin program, its certified dual, and the network's margin.

The primal over an arrangement list D_1..D_p is the group-norm program

    min  sum_j ||u_j|| + ||u'_j||
    s.t. diag(y) sum_j D_j X (u'_j - u_j) >= 1,
         (2 D_j - I) X u_j >= 0,  (2 D_j - I) X u'_j >= 0.

Variable layout: per mask j, group 2j is u_j (negative side, w2 < 0) and
group 2j+1 is u'_j (positive side), so ConvexSolution.x, the solver's x as a
(p, 2, d) array, has u_j = x[j, 0] and u'_j = x[j, 1].  The dual maximizes
y^T lam subject to diag(y) lam >= 0 and polar gauge(lam) <= 1 over the
arrangement cones.  One solve gives both sides, and lam is the whole dual:
lam = diag(y) mu_margin, divided by its exact gauge when that exceeds 1 (see
solve_primal).  The cone multipliers are a function of lam (those of its
exact cone projections), so they are not returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .arrangements import ActivationMask
from .geometry import polar_gauge
from .solver import (DEFAULT_TOL, ConeProgram, DegenerateError, SolveReport,
                     solve)

#: groups with norm below ACTIVE_RTOL * (1 + objective) are reported inactive
ACTIVE_RTOL = 1e-6

#: x_n^T w lies on the boundary when |x_n^T w| <= BOUNDARY_RTOL ||x_n|| ||w||
#: (completion_choices, the boundary band of KKT extraction)
BOUNDARY_RTOL = 1e-7


@dataclass(frozen=True)
class ConvexProblem:
    X: np.ndarray
    y: np.ndarray
    masks: tuple[ActivationMask, ...]
    prog: ConeProgram

    @property
    def p(self) -> int:
        return len(self.masks)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def N(self) -> int:
        return self.X.shape[0]

    def group_slice(self, j: int, side: str) -> slice:
        """Variable slice of u_j (side="-") or u'_j (side="+")."""
        k = 2 * j + (1 if side == "+" else 0)
        return slice(k * self.d, (k + 1) * self.d)

    def outputs(self, x: np.ndarray) -> np.ndarray:
        """Network outputs sum_j D_j X (u'_j - u_j) of a primal point x of
        shape (p, 2, d)."""
        out = np.zeros(self.N)
        for mask, (neg, pos) in zip(self.masks, x):
            out += mask.diag_vector() * (self.X @ (pos - neg))
        return out

    def solution(self, x: np.ndarray, objective: float) -> ConvexSolution:
        """The primal point x (the solver's flat vector, or its (p, 2, d)
        view) with its least margin minus 1 and its least cone row."""
        x = x.reshape(self.p, 2, self.d)
        signs, rows = self.prog.signs, self.prog.rows
        cone = signs * np.array([rows @ w for w in x.reshape(-1, self.d)])
        return ConvexSolution(
            x=x, objective=float(objective),
            margin_slack=float((self.y * self.outputs(x)).min()) - 1.0,
            cone_slack=float(np.min(cone[signs != 0])))


@dataclass
class ConvexSolution:
    x: np.ndarray                  # (p, 2, d): x[j, 0] = u_j, x[j, 1] = u'_j
    objective: float
    margin_slack: float            # min_n margin_n - 1 (>= -tol when feasible)
    cone_slack: float              # min over all cone rows

    def active_groups(self) -> list[tuple[int, str, np.ndarray]]:
        """(mask index, side, vector) for groups with norm above
        ACTIVE_RTOL * (1 + objective): every u_j, then every u'_j."""
        threshold = ACTIVE_RTOL * (1.0 + self.objective)
        return [(j, side, vec) for k, side in enumerate("-+")
                for j, vec in enumerate(self.x[:, k])
                if np.linalg.norm(vec) > threshold]


@dataclass(frozen=True)
class NetworkParams:
    """Two-layer ReLU network f(x) = sum_i w2_i (x^T W1[:, i])_+."""

    W1: np.ndarray   # (d, m)
    w2: np.ndarray   # (m,)

    def __post_init__(self):
        W1 = np.asarray(self.W1, dtype=float)
        w2 = np.asarray(self.w2, dtype=float)
        object.__setattr__(self, "W1", W1)
        object.__setattr__(self, "w2", w2)
        if W1.ndim != 2 or w2.ndim != 1 or W1.shape[1] != w2.shape[0]:
            raise ValueError("W1 must be d x m and w2 length m")
        if W1.shape[1] < 1:
            raise ValueError("need at least one neuron")
        if not (np.isfinite(W1).all() and np.isfinite(w2).all()):
            raise ValueError("non-finite parameters")

    @property
    def m(self) -> int:
        return self.w2.shape[0]

    def forward(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(X) @ self.W1, 0.0) @ self.w2


def build_primal(X: np.ndarray, y: np.ndarray,
                 masks: list[ActivationMask]) -> ConvexProblem:
    """Assemble the group-norm cone program: N margin rows coupling the
    groups, one norm group of d entries per u_j, u'_j, and the cone rows X
    with the signs 2 D_j - I of mask j on both its groups."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not masks:
        raise ValueError("mask list must be nonempty")
    N, d = X.shape
    p = len(masks)
    n = 2 * p * d
    YX = np.diag(y) @ X
    A = np.zeros((N, n))
    for j, mask in enumerate(masks):
        dm = mask.diag_vector()
        A[:, (2 * j) * d:(2 * j + 1) * d] = -dm[:, None] * YX
        A[:, (2 * j + 1) * d:(2 * j + 2) * d] = dm[:, None] * YX
    bits = np.array([mask.bits for mask in masks], dtype=np.int8)
    prog = ConeProgram(A=A, b=-np.ones(N), group=d, rows=X,
                       signs=np.repeat(2 * bits - 1, 2, axis=0))
    return ConvexProblem(X=X, y=y, masks=tuple(masks), prog=prog)


def solve_primal(problem: ConvexProblem, tol: float = DEFAULT_TOL
                 ) -> tuple[ConvexSolution, np.ndarray, SolveReport]:
    """Solve the primal; (solution, lam, report) with lam = diag(y) mu off
    the margin multipliers mu.  When the solve ends optimal, x is divided by
    its least margin when that is below 1 (the cone rows are homogeneous, so
    they stay met), which makes the reported objective an upper bound on
    p*, and mu is divided by gamma when gamma > 1, gamma the exact polar
    gauge of lam over the problem's masks, so lam is dual feasible and,
    over the full arrangement set, y^T lam <= p*.  Each division is
    repeated once when the recomputed margin or gauge still misses 1."""
    x, mu, report = solve(problem.prog, tol=tol)
    sol = problem.solution(x, report.objective)
    if report.status == "optimal":
        # the division is checked on the point it returns: rounding can
        # leave the margin or the gauge an ulp on the wrong side of 1, and
        # a second division puts it back
        for _ in range(2):
            if sol.margin_slack < 0.0:
                x = x / (1.0 + sol.margin_slack)
                report = replace(report, objective=problem.prog.objective(x))
                sol = problem.solution(x, report.objective)
        for _ in range(2):
            gauge = polar_gauge(problem.X, problem.masks, problem.y * mu).gauge
            if gauge <= 1.0:
                break
            mu = mu / gauge
    return sol, problem.y * mu, report


def solve_dual(X: np.ndarray, y: np.ndarray, masks: list[ActivationMask],
               tol: float = DEFAULT_TOL
               ) -> tuple[np.ndarray, float, SolveReport]:
    """The certified dual of one primal solve: (lam, y^T lam, report), lam
    as :func:`solve_primal` returns it."""
    problem = build_primal(X, y, masks)
    _, lam, report = solve_primal(problem, tol=tol)
    return lam, float(problem.y @ lam), report


def completion_choices(X: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(strict bits, boundary indicator) of X w with a relative boundary band."""
    t = X @ w
    scale = np.linalg.norm(X, axis=1) * np.linalg.norm(w)
    boundary = np.abs(t) <= BOUNDARY_RTOL * np.maximum(scale, 1e-300)
    strict = (t > 0) & ~boundary
    return strict, boundary


def margin_objective(X: np.ndarray, y: np.ndarray, W1: np.ndarray,
                     w2: np.ndarray) -> tuple[NetworkParams, float] | None:
    """Normalized margin of a separating network.

    Rescales the first layer so min_n y_n f(x_n) = 1, balances each neuron,
    and returns (balanced params, sum w2_i^2).  The value equals the group-l1
    objective of the matching convex solution and 0.5(||W1||_F^2 + ||w2||^2)
    of the balanced net.  Returns None when the network does not separate;
    raises DegenerateError when the rescaled network is not finite (outputs
    that overflow).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    W1 = np.asarray(W1, dtype=float).copy()
    w2 = np.asarray(w2, dtype=float).copy()
    keep = (w2 != 0.0) & np.any(W1 != 0.0, axis=0)
    if not keep.any():
        return None
    W1, w2 = W1[:, keep], w2[keep]
    c = float(np.min(y * (np.maximum(X @ W1, 0.0) @ w2)))
    if c <= 0.0:
        return None
    W1 = W1 / c
    scale = np.sqrt(np.linalg.norm(W1, axis=0) / np.abs(w2))
    W1 = W1 / scale[None, :]
    w2 = w2 * scale
    if not (np.isfinite(W1).all() and np.isfinite(w2).all()):
        raise DegenerateError("rescaled network is not finite "
                              "(network outputs overflow)")
    return NetworkParams(W1=W1, w2=w2), float(np.sum(w2 ** 2))
