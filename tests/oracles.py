"""Independent oracles for the tests.

Two enumeration oracles return patterns lexicographically, like
``relu_lab.arrangements``, and neither solves an LP:

* the face recursion (any d): every face of the arrangement of the rows,
  normalized to unit length, found by recursing over flats;
* the d = 2 angular sweep: every direction where some sample's sign flips,
  the bisectors between them and the origin, with the zero band
  1e-12 max(||x_n||, 1).

The paper-claim oracles check what the acceptance criteria assert of the
paper and no command prints: the network-convex correspondence and the
convex program's KKT families (criterion 08), the stationary directions
neurons align with (criterion 08), and g_min over the sign patterns
(criterion 10).

``step`` is one forward-Euler step of the flow written as its formula, for
the tests of the update itself.

``cone_projection`` is the projection onto a cone {u : M u >= 0} by
scipy's NNLS (Lawson-Hanson) with a KKT guard: the iterative oracle of the
exact per-flat projection of ``relu_lab.solver.Cones``.
``active_set_projection`` tries every row subset, for the cones where NNLS
misses its own KKT conditions.  ``group_cones`` writes out the cone matrix
of each norm group of a ``ConeProgram``.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize._slsqplib import nnls as nnls_kernel
from scipy.special import expit

from relu_lab.arrangements import ActivationMask, SignPattern, mask_of
from relu_lab.convex import (ACTIVE_RTOL, ConvexProblem, ConvexSolution,
                             NetworkParams, completion_choices)
from relu_lab.solver import ConeProgram, DegenerateError

#: cone_projection's KKT conditions must hold to PROJECTION_KKT_RTOL ||M|| ||v||
PROJECTION_KKT_RTOL = 1e-9

#: zero band of a row's norm restricted to a flat: at most ZERO_TOL counts as
#: zero, and a norm in (ZERO_TOL, DEGENERATE_TOL) raises DegenerateError
ZERO_TOL = 1e-11
DEGENERATE_TOL = 1e-10


def _null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the null space of `rows`, each row
    normalized first; the identity when there are none."""
    if not len(rows):
        return np.eye(rows.shape[1])
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    _, s, Vt = np.linalg.svd(rows)
    return Vt[int(np.sum(s > s[0] * max(rows.shape) * np.finfo(float).eps)):]


def nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy.optimize.nnls(A, b) on its compiled kernel nnls_kernel(A, b,
    maxiter) -> (x, rnorm, info): (x, ||A x - b||)
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


def active_set_projection(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P_C(v) for C = {u : M u >= 0} by exhaustion: over every subset of
    the rows, v projected onto their null space (least squares), kept when
    it lies in C: the subset's rows to 1e-12 ||M|| ||v|| (the least
    squares residual is on v's scale), every other row to 1e-12 ||M|| ||p||
    (on the candidate's own scale, so a point far shorter than v cannot
    leave a sliver cone by v's margin); the longest one kept."""
    best = np.zeros_like(v)
    nM = np.linalg.norm(M)
    for k in range(len(M) + 1):
        for rows in itertools.combinations(range(len(M)), k):
            A = M[list(rows)].reshape(k, len(v))
            p = v - A.T @ np.linalg.lstsq(A.T, v, rcond=None)[0] if k else v
            tol = np.full(len(M), 1e-12 * nM * np.linalg.norm(p))
            tol[list(rows)] = 1e-12 * nM * np.linalg.norm(v)
            if np.all(M @ p >= -tol) and p @ p > best @ best:
                best = p
    return best


def _vanishing(Xn: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rows of Xn that vanish on the flat spanned by the orthonormal B."""
    rho = np.linalg.norm(Xn @ B, axis=1)
    if np.any((rho > ZERO_TOL) & (rho < DEGENERATE_TOL)):
        raise DegenerateError(f"a row's restricted norm lies in ({ZERO_TOL}, "
                              f"{DEGENERATE_TOL}): near-parallel rows")
    return rho <= ZERO_TOL


def _faces(X) -> list[tuple[tuple, np.ndarray]]:
    """(sign(Xw), w) for every face of the arrangement of X, lexicographic.

    Recursion over flats L (an orthonormal basis B), memoized on the rows
    that vanish on L.  A face of L is the origin's face, a face of
    L' = L cap x_i^perp for a row x_i nonzero on L, or a region of L.  A
    region has a facet, a region F of some L', and is reached from F's
    witness by w_F +- eps n, with n x_i's unit normal in L and eps half the
    smallest |x_j^T w_F| / |x_j^T n| over the rows nonzero on F (at most
    ||w_F||, 1 at w_F = 0): only the rows that vanish on L' but not on L
    change sign, to +-sign(x_j^T n).  Time and memory grow with the number
    of faces (up to 3^N), so keep N small.
    """
    X = np.asarray(X, dtype=float)
    N, d = X.shape
    norms = np.linalg.norm(X, axis=1)
    Xn = X / np.where(norms > 0.0, norms, 1.0)[:, None]
    memo: dict[bytes, tuple] = {}

    def faces(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows vanishing on span B, patterns, witnesses) of the flat."""
        zero = _vanishing(Xn, B)
        key = zero.tobytes()
        if key in memo:
            return memo[key]
        found = {(0,) * N: np.zeros(d)}
        for i in np.flatnonzero(~zero):
            c = B.T @ Xn[i]
            c /= np.linalg.norm(c)
            n = B @ c
            # the right singular vectors after c span c^perp within L
            sub_zero, S, W = faces(B @ np.linalg.svd(c[None, :])[2][1:].T)
            for signs, w in zip(S.tolist(), W):
                found.setdefault(tuple(signs), w)
            region = np.all((S == 0) == sub_zero, axis=1)
            S, W = S[region], W[region]
            q = Xn @ n
            live = ~sub_zero & (q != 0.0)
            eps = np.minimum(np.linalg.norm(W, axis=1), 0.5 * np.min(
                np.abs(W @ Xn[live].T) / np.abs(q[live]), axis=1,
                initial=np.inf))
            eps[eps == 0.0] = 1.0
            flip = np.where(sub_zero & ~zero, np.sign(q), 0.0).astype(int)
            for s in (1, -1):
                for signs, w in zip((S + s * flip).tolist(),
                                    W + s * eps[:, None] * n):
                    found.setdefault(tuple(signs), w)
        memo[key] = (zero, np.array(list(found)).reshape(len(found), N),
                     np.array(list(found.values())))
        return memo[key]

    _, S, W = faces(np.eye(d))
    return sorted(zip(map(tuple, S.tolist()), W), key=lambda f: f[0])


def face_sign_patterns(X) -> list[SignPattern]:
    """The faces, each with its witness (the all-zero pattern has w = 0)."""
    return [SignPattern(signs=signs, witness=tuple(float(v) for v in w))
            for signs, w in _faces(X)]


def face_masks(X) -> list[ActivationMask]:
    """The faces' images under sign >= 0 -> 1.  Each mask's witness is that
    of its lexicographically largest face, divided by min(-x_n^T w) over the
    face's negative rows so that the unit margin holds on X."""
    X = np.asarray(X, dtype=float)
    masks: dict[tuple, np.ndarray] = {}
    for signs, w in reversed(_faces(X)):
        bits = tuple(int(s >= 0) for s in signs)
        if bits not in masks:
            neg = -(X[np.array(signs) < 0] @ w)
            masks[bits] = w / neg.min() if len(neg) else w
    return [ActivationMask(bits=bits, witness=tuple(float(v) for v in w))
            for bits, w in sorted(masks.items(), key=lambda m: m[0])]


def _angle_candidates(X: np.ndarray) -> list[np.ndarray]:
    """Directions where some sample's activation flips, their bisectors, and
    the origin.  Perpendiculars are built coordinate-exactly so x_n^T w is a
    floating-point zero at its own boundary direction."""
    cands = [np.zeros(X.shape[1])]
    perps = []
    for xn in X:
        if np.linalg.norm(xn) == 0.0:
            continue
        perp = np.array([-xn[1], xn[0]]) / np.linalg.norm(xn)
        perps.append(perp)
        perps.append(-perp)
    if not perps:
        return cands
    angles = sorted(float(np.arctan2(v[1], v[0])) for v in perps)
    cands.extend(perps)
    ext = angles + [angles[0] + 2.0 * np.pi]
    for a0, a1 in zip(ext[:-1], ext[1:]):
        mid = 0.5 * (a0 + a1)
        cands.append(np.array([np.cos(mid), np.sin(mid)]))
    return cands


def _sweep2d(X):
    """(sign(Xw), w) at every `_angle_candidates` direction, in candidate
    order."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != 2:
        raise ValueError("sweep2d requires d = 2")
    band = 1e-12 * np.maximum(np.linalg.norm(X, axis=1), 1.0)
    for w in _angle_candidates(X):
        t = X @ w
        signs = np.where(np.abs(t) <= band, 0, np.sign(t))
        yield tuple(int(v) for v in signs), tuple(float(v) for v in w)


def _first_witness(patterns) -> list[tuple[tuple, tuple]]:
    """Distinct patterns, lexicographic, each with its first witness."""
    seen: dict[tuple, tuple] = {}
    for key, w in patterns:
        seen.setdefault(key, w)
    return sorted(seen.items())


def sweep_masks(X) -> list[ActivationMask]:
    return [ActivationMask(bits=bits, witness=w)
            for bits, w in _first_witness(
                (tuple(int(s >= 0) for s in signs), w)
                for signs, w in _sweep2d(X))]


def sweep_sign_patterns(X) -> list[SignPattern]:
    return [SignPattern(signs=signs, witness=w)
            for signs, w in _first_witness(_sweep2d(X))]


def network_from_convex(sol: ConvexSolution) -> NetworkParams:
    """Balanced splitting of active groups into neurons: u'_j gives
    (u'/sqrt||u'||, +sqrt||u'||), u_j gives (u/sqrt||u||, -sqrt||u||)."""
    active = sol.active_groups()
    if not active:
        raise DegenerateError("solution has no active groups; empty network")
    cols = []
    outs = []
    for _, side, vec in active:
        nrm = np.linalg.norm(vec)
        cols.append(vec / np.sqrt(nrm))
        outs.append(np.sqrt(nrm) if side == "+" else -np.sqrt(nrm))
    return NetworkParams(W1=np.stack(cols, axis=1), w2=np.array(outs))


def convex_from_network(problem: ConvexProblem, W1: np.ndarray,
                        w2: np.ndarray) -> ConvexSolution:
    """Map neurons onto the problem's convex groups: neurons with equal
    masks merge by summation; a neuron matches a mask agreeing with its
    strict activation pattern off the boundary set (ties to the
    lexicographically smallest)."""
    X, masks = problem.X, problem.masks
    W1 = np.asarray(W1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    x = np.zeros((problem.p, 2, problem.d))
    ordered = sorted(range(problem.p), key=lambda j: masks[j].bits)
    for i in range(w2.shape[0]):
        if w2[i] == 0.0 or not np.any(W1[:, i]):
            continue
        strict, boundary = completion_choices(X, W1[:, i])
        match = None
        for j in ordered:
            bits = np.array(masks[j].bits, dtype=bool)
            if np.all(bits[~boundary] == strict[~boundary]):
                match = j
                break
        if match is None:
            raise ValueError(f"neuron {i} has no realizable mask in the list")
        if w2[i] > 0:
            x[match, 1] += W1[:, i] * w2[i]
        else:
            x[match, 0] += W1[:, i] * (-w2[i])
    objective = sum(np.linalg.norm(v) for v in x[:, 0]) + sum(
        np.linalg.norm(v) for v in x[:, 1])
    return problem.solution(x, objective)


def group_cones(prog: ConeProgram) -> list[np.ndarray]:
    """The cone matrix of each norm group g: the rows signs[g, i] rows[i]
    with signs[g, i] != 0, in row order."""
    return [s[s != 0, None] * prog.rows[s != 0] for s in prog.signs]


def convex_kkt_residuals(problem: ConvexProblem, sol: ConvexSolution,
                         lam: np.ndarray) -> dict[str, float]:
    """The five optimality families of the convex program at the primal
    point sol and the dual lam, and lam's violation of diag(y) lam >= 0.
    The cone multipliers of mask j are those of the projections
    P_j(-/+ X^T D_j lam) = -/+ X^T D_j lam + M_j^T z onto the cone
    {u : M_j u >= 0}, M_j = (2 D_j - I) X; a zero group needs ||P_j|| <= 1,
    a nonzero group u needs P_j = u / ||u||.  Primal feasibility is
    sol.margin_slack and sol.cone_slack (pure evaluation; nothing is
    thresholded)."""
    X, y = problem.X, problem.y
    lam = np.asarray(lam, dtype=float)
    threshold = ACTIVE_RTOL * (1.0 + sol.objective)
    stationarity = {"neg": 0.0, "pos": 0.0}
    comp_slack = {"neg": 0.0, "pos": 0.0}
    for j, mask in enumerate(problem.masks):
        M = problem.prog.signs[2 * j, :, None] * problem.prog.rows
        g = X.T @ (mask.diag_vector() * lam)
        for side, v, vec in (("neg", -g, sol.x[j, 0]), ("pos", g, sol.x[j, 1])):
            proj, z = cone_projection(M, v)
            nrm = np.linalg.norm(vec)
            if nrm > threshold:
                res = float(np.linalg.norm(proj - vec / nrm))
            else:
                res = max(0.0, float(np.linalg.norm(proj)) - 1.0)
            stationarity[side] = max(stationarity[side], res)
            comp_slack[side] = max(comp_slack[side],
                                   float(np.abs(z * (M @ vec)).max()))
    outputs = problem.outputs(sol.x)
    margin = float(np.abs(lam * (outputs - y)).max())
    return {"stationarity_neg": stationarity["neg"],       # family (i)
            "stationarity_pos": stationarity["pos"],       # family (ii)
            "margin_comp_slack": margin,                   # family (iii)
            "cone_comp_slack_neg": comp_slack["neg"],      # family (iv)
            "cone_comp_slack_pos": comp_slack["pos"],      # family (v)
            "dual_sign_violation": max(0.0, float((-(y * lam)).max()))}


def stationary_directions(X: np.ndarray, masks: list[ActivationMask],
                          lam: np.ndarray
                          ) -> list[tuple[np.ndarray, ActivationMask]]:
    """Every fixed point u = X^T D(u) lam / ||X^T D(u) lam|| with its
    pattern D(u) = I(Xu > 0), in mask order: the directions a positive
    neuron can align with at a stationary point of the flow.

    The strict patterns I(Xu > 0) are exactly s = 1 - m over the realizable
    masks m = I(Xw >= 0) (take u = -w), and the only candidate with pattern
    s is u_s = X^T diag(s) lam / ||X^T diag(s) lam||; u_s is kept iff
    mask_of(X, u_s) = s.  A pattern whose update X^T diag(s) lam vanishes
    has no fixed point.  Complete when masks is the full arrangement set.
    """
    X = np.asarray(X, dtype=float)
    lam = np.asarray(lam, dtype=float)
    found = []
    for mask in masks:
        s = 1.0 - mask.diag_vector()
        g = X.T @ (s * lam)
        norm = np.linalg.norm(g)
        if norm == 0.0:
            continue
        u = g / norm
        pattern = mask_of(X, u)
        if np.array_equal(pattern.diag_vector(), s):
            found.append((u, pattern))
    return found


def g_pattern(X: np.ndarray, signs, lam: np.ndarray) -> np.ndarray:
    """g(sigma, lam) = sum of lam_n x_n over the strictly positive entries of
    a length-N sign sequence sigma."""
    lam = np.asarray(lam, dtype=float)
    return np.asarray(X, dtype=float).T @ (lam * (np.asarray(signs) > 0))


def positive_support(signs) -> tuple[int, ...]:
    """Indices of the strictly positive entries of a sign sequence."""
    return tuple(i for i, s in enumerate(signs) if s > 0)


def g_min_max(X: np.ndarray, y: np.ndarray,
              patterns: list[SignPattern]) -> tuple[float, float,
                                                    list[SignPattern],
                                                    list[SignPattern]]:
    """(g_min, g_max, minimizers, maximizers) of ||g(sigma, y/4)|| over the
    realizable sign patterns, the minimum restricted to nonvanishing g."""
    lam = np.asarray(y, dtype=float) / 4.0
    norms = [float(np.linalg.norm(g_pattern(X, p.signs, lam)))
             for p in patterns]
    nonzero = [(v, p) for v, p in zip(norms, patterns) if v > 0.0]
    if not nonzero:
        raise DegenerateError("g vanishes on every realizable sign pattern")
    gmin = min(v for v, _ in nonzero)
    gmax = max(norms)
    minimizers = [p for v, p in nonzero if abs(v - gmin) <= 1e-12 * (1 + gmin)]
    maximizers = [p for v, p in zip(norms, patterns)
                  if abs(v - gmax) <= 1e-12 * (1 + gmax)]
    return gmin, gmax, minimizers, maximizers


def step(X: np.ndarray, y: np.ndarray, W1: np.ndarray, w2: np.ndarray,
         Z: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """One forward-Euler subgradient step from (W1, w2) with Z = X @ W1 (old
    parameters on the right-hand side, strict activations I(x^T w > 0));
    X and y are float arrays.  Returns the new (W1, w2)."""
    R = np.maximum(Z, 0.0)
    lt = y * expit(-(y * (R @ w2)))
    G = X.T @ (lt[:, None] * (Z > 0.0))
    return W1 + eta * G * w2, w2 + eta * (R.T @ lt)
