"""Hyperplane arrangements of a data matrix: activation masks and sign patterns.

An activation mask is a realizable pattern I(Xw >= 0); a sign pattern is a
realizable sign(Xw) in {-1,0,+1}^N.  Both are enumerated by one prefix-pruned
LP search over a relation table that maps each symbol to phase-1 rows;
strict inequalities are encoded with a unit margin (a^T w <= -1), lossless
by homogeneity, on rows normalized to unit length (patterns do not change
under positive row scaling).  The search goes level by level, one sample
per level: a child whose rows the parent's witness already meets inherits
that witness, and the level's other children are decided together, by one
batched phase-1 LP call (one HiGHS run per solver.PHASE1_ROWS rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .solver import FEASIBLE_TOL, RANK_RTOL, lp_feasible

#: row cap of both enumerations: the search is N levels deep, and its LP
#: count grows with N even where the face count stays small
EXHAUSTIVE_MAX_N = 22
#: sign patterns are refused above this general-position face count
#: (face_count_bound): 3^7, every full-rank input up to 7 x 7
FACE_COUNT_MAX = 3 ** 7

#: Phase-1 rows of each symbol: (s, rhs) stands for s * x_n^T w <= rhs on
#: the normalized row x_n; a negative rhs is the unit margin of a strict side.
MASK_RELATIONS = {0: ((1.0, -1.0),), 1: ((-1.0, 0.0),)}
SIGN_RELATIONS = {-1: ((1.0, -1.0),), 0: ((1.0, 0.0), (-1.0, 0.0)),
                  1: ((-1.0, -1.0),)}


@dataclass(frozen=True)
class ActivationMask:
    """Realizable I(Xw >= 0) pattern, with a certifying w when available."""

    bits: tuple[int, ...]
    witness: tuple[float, ...] | None = None

    def __post_init__(self):
        if not all(b in (0, 1) for b in self.bits):
            raise ValueError("mask bits must be 0/1")

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def diag_vector(self) -> np.ndarray:
        return np.array(self.bits, dtype=float)


@dataclass(frozen=True)
class SignPattern:
    """Realizable sign(Xw) pattern over the samples."""

    signs: tuple[int, ...]
    witness: tuple[float, ...] | None = None

    def __post_init__(self):
        if not all(s in (-1, 0, 1) for s in self.signs):
            raise ValueError("sign entries must be -1/0/+1")


def mask_of(X: np.ndarray, u: np.ndarray) -> ActivationMask:
    """Strict activation pattern I(Xu > 0) (boundary samples get bit 0)."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("non-finite direction")
    return ActivationMask(bits=tuple(int(v) for v in (np.asarray(X) @ u > 0)))


def unit_rows(X: np.ndarray) -> np.ndarray:
    """X with each nonzero row scaled to unit length; zero rows stay zero."""
    norms = np.linalg.norm(X, axis=1)
    return X / np.where(norms > 0.0, norms, 1.0)[:, None]


def matrix_rank(X: np.ndarray) -> int:
    """Rank of the unit rows (row scale cannot change it) via singular
    values with relative threshold RANK_RTOL * sigma_max."""
    s = np.linalg.svd(unit_rows(np.asarray(X, dtype=float)),
                      compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def face_count_bound(N: int, r: int) -> int:
    """Faces of N central hyperplanes in general position in rank r, the
    most sign patterns any rank-r matrix of N rows has: 1 + sum_{k<r}
    C(N, k) regions(N - k, r - k), with regions(n, r) = 2 sum_{i<r}
    C(n - 1, i) and regions(0, .) = regions(., 0) = 1."""
    def regions(n: int, r: int) -> int:
        if n == 0 or r == 0:
            return 1
        return 2 * sum(comb(n - 1, i) for i in range(r))

    return 1 + sum(comb(N, k) * regions(N - k, r - k) for k in range(r))


def check_sign_pattern_size(X: np.ndarray) -> None:
    """ValueError when enumerate_sign_patterns refuses X: more than
    EXHAUSTIVE_MAX_N rows, or more than FACE_COUNT_MAX faces by
    face_count_bound at X's rank."""
    N = np.shape(X)[0]
    if N > EXHAUSTIVE_MAX_N:
        raise ValueError(f"sign-pattern enumeration limited to "
                         f"N <= {EXHAUSTIVE_MAX_N}")
    r = matrix_rank(X)
    faces = face_count_bound(N, r)
    if faces > FACE_COUNT_MAX:
        raise ValueError(f"sign-pattern enumeration limited to "
                         f"{FACE_COUNT_MAX} faces; N = {N} at rank {r} "
                         f"has up to {faces}")


def cover_bound(N: int, r: int) -> float:
    """Counting bound 2r (e (N-1) / r)^r on the number of arrangements."""
    if N < 2 or r < 1:
        raise ValueError("need N >= 2 and r >= 1")
    return 2.0 * r * (np.e * (N - 1) / r) ** r


def _search(X: np.ndarray, relations: dict) -> list[tuple[tuple, tuple]]:
    """(symbols, witness) of every realizable pattern, lexicographic.

    Level by level with prefix pruning: an infeasible prefix stays
    infeasible for every completion, so whole subtrees are skipped.  At
    level n every realizable prefix appends each symbol's rows for sample
    n to its stacked system.  A child keeps its parent's witness when that
    misses none of the child's rows by more than FEASIBLE_TOL; the level's
    other children go to one lp_feasible call, which decides them together
    as block-diagonal LPs.  The inherited witness is never scaled up to
    meet a unit margin: that reads 1-ulp differences between normalized
    parallel rows as a margin and admits unrealizable patterns.  A witness
    is divided by min(1, min ||x_n|| over its strict rows), so the unit
    margin holds on the original rows.
    """
    N, d = X.shape
    norms = np.linalg.norm(X, axis=1)
    Xn = unit_rows(X)
    table = {sym: np.array(rows).T for sym, rows in relations.items()}
    strict = {sym for sym, (_, rhs) in table.items() if (rhs < 0).any()}
    # [prefix, A, b, w] of every realizable prefix of the level
    level = [((), np.zeros((0, d)), np.zeros(0), np.zeros(d))]
    for x in Xn:
        blocks = [(sym, np.outer(s, x), rhs)
                  for sym, (s, rhs) in table.items()]
        children = []
        for prefix, A, b, w in level:
            for sym, rows, rhs in blocks:
                A2 = np.concatenate((A, rows))
                b2 = np.concatenate((b, rhs))
                met = (A2 @ w - b2).max() <= FEASIBLE_TOL
                children.append([prefix + (sym,), A2, b2, w if met else None])
        todo = [child for child in children if child[3] is None]
        for child, w in zip(todo, lp_feasible([c[1:3] for c in todo])):
            child[3] = w
        level = [child for child in children if child[3] is not None]
    found = []
    for prefix, _, _, w in level:
        scale = min([1.0] + [norms[k] for k, sym in enumerate(prefix)
                             if sym in strict])
        found.append((prefix, tuple(float(v) for v in w / scale)))
    return sorted(found)


def enumerate_masks(X: np.ndarray) -> list[ActivationMask]:
    """All realizable activation masks of X (prefix-pruned LPs, N <= 22),
    lexicographic, each with a witness."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] > EXHAUSTIVE_MAX_N:
        raise ValueError(f"mask enumeration limited to N <= {EXHAUSTIVE_MAX_N}")
    return [ActivationMask(bits=bits, witness=w)
            for bits, w in _search(X, MASK_RELATIONS)]


def verify_mask_witness(X: np.ndarray, mask: ActivationMask) -> bool:
    """Re-check the stored witness: x_n^T w >= 0 on bit-1 rows, relative to
    scale (>= -1e-9 ||x_n|| ||w||; a witness may need a norm of 1e8 when row
    norms span 1e-6..1e6), and the unit margin x_n^T w <= -1 on bit-0 rows."""
    if mask.witness is None:
        return False
    X = np.asarray(X, dtype=float)
    w = np.array(mask.witness, dtype=float)
    t = X @ w
    on = np.array(mask.bits, dtype=bool)
    floor = -1e-9 * np.linalg.norm(X, axis=1) * np.linalg.norm(w)
    return bool(np.all(t[on] >= floor[on]) and np.all(t[~on] <= -1.0 + 1e-9))


def enumerate_sign_patterns(X: np.ndarray) -> list[SignPattern]:
    """All realizable sign(Xw) patterns (3^N candidates, prefix-pruned LPs),
    lexicographic; ValueError from check_sign_pattern_size first.

    Always contains the all-zero pattern (w = 0).
    """
    X = np.asarray(X, dtype=float)
    check_sign_pattern_size(X)
    return [SignPattern(signs=signs, witness=w)
            for signs, w in _search(X, SIGN_RELATIONS)]
