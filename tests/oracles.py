"""Independent enumeration oracles for the arrangement tests.

Both return patterns lexicographically, like ``relu_lab.arrangements``, and
neither solves an LP:

* the face recursion (any d): every face of the arrangement of the rows,
  normalized to unit length, found by recursing over flats;
* the d = 2 angular sweep: every direction where some sample's sign flips,
  the bisectors between them and the origin, with the zero band
  1e-12 max(||x_n||, 1).
"""

from __future__ import annotations

import numpy as np

from relu_lab.arrangements import ActivationMask, SignPattern
from relu_lab.solver import DegenerateError

#: zero band of a row's norm restricted to a flat: at most ZERO_TOL counts as
#: zero, and a norm in (ZERO_TOL, DEGENERATE_TOL) raises DegenerateError
ZERO_TOL = 1e-11
DEGENERATE_TOL = 1e-10


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
