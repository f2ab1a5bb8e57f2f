"""Certificates linking nonconvex stationary points to the convex program.

extract_kkt reads the per-neuron stationarity data off a trained network: the
activation pattern, its boundary bits completed by a mask of the boundary
rows, the direction residual ||w1_i / w2_i - X^T D_i lam|| and the norm
residual | ||X^T D_i lam|| - 1 |.
dual_feasible evaluates the polar-gauge membership; ortho_coverage and
spike_free check the two sufficient conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arrangements import (ActivationMask, RANK_RTOL, enumerate_masks,
                           enumerate_sign_patterns, unit_rows)
from .convex import completion_choices
from .geometry import GAUGE_SOLVE_TOL, polar_gauge

#: slack of both spike-free conditions on the unit rows Xn: max ||z|| <= 1 +
#: SPIKE_FREE_TOL and range residual <= SPIKE_FREE_TOL * ||Xn||_2
SPIKE_FREE_TOL = 1e-9


@dataclass
class NeuronKKT:
    index: int
    sign: int                       # sign(w2_i)
    mask: ActivationMask            # chosen completion D_i
    strict_bits: tuple[int, ...]    # pattern off the boundary
    boundary: tuple[int, ...]       # samples with x_n^T w1_i ~ 0
    direction_residual: float
    norm_residual: float


@dataclass
class KKTExtraction:
    neurons: list[NeuronKKT]
    comp_slack: np.ndarray          # per-sample |lam_n (y_n f_n - 1)|


@dataclass
class Certificate:
    kind: str
    verdict: bool
    slacks: dict[str, float] = field(default_factory=dict)
    tolerance: float = 0.0
    detail: str = ""

    def to_json(self) -> dict:
        return {"kind": self.kind, "verdict": bool(self.verdict),
                "slacks": {k: float(v) for k, v in self.slacks.items()},
                "tolerance": float(self.tolerance),
                "detail": self.detail}


def extract_kkt(X: np.ndarray, y: np.ndarray, W1: np.ndarray, w2: np.ndarray,
                lam: np.ndarray) -> KKTExtraction:
    """Per-neuron KKT data.  The boundary rows B (x_n^T w1_i ~ 0) take
    their bits from a mask of enumerate_masks(X[B]): the bit choices that
    directions next to w1_i realize where x_n^T w1_i = 0 on B.  So the
    completed pattern is a mask of X, with the least direction residual
    over the masks of X that meet the strict bits off B (the first in
    lexicographic order on a tie).  Residuals are reported, never
    thresholded.  Neurons with w2_i = 0 are skipped per the stationarity
    hypothesis.  ValueError names lam, W1 or w2 when it is not finite, and
    comes from enumerate_masks above 22 boundary rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    W1 = np.asarray(W1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    lam = np.asarray(lam, dtype=float)
    for name, value in (("lam", lam), ("W1", W1), ("w2", w2)):
        if not np.isfinite(value).all():
            raise ValueError(f"extract_kkt: {name} is not finite")
    neurons = []
    for i in range(w2.shape[0]):
        if w2[i] == 0.0:
            continue
        w1 = W1[:, i]
        strict, on_boundary = completion_choices(X, w1)
        boundary = np.where(on_boundary)[0]
        target = w1 / w2[i]
        best_bits, best_res = None, np.inf
        for mask in enumerate_masks(X[boundary]):
            bits = strict.astype(float)
            bits[boundary] = mask.bits
            res = float(np.linalg.norm(target - X.T @ (bits * lam)))
            if res < best_res - 1e-15:
                best_bits, best_res = bits, res
        norm_res = abs(float(np.linalg.norm(X.T @ (best_bits * lam))) - 1.0)
        neurons.append(NeuronKKT(
            index=i, sign=int(np.sign(w2[i])),
            mask=ActivationMask(bits=tuple(int(b) for b in best_bits)),
            strict_bits=tuple(int(b) for b in strict),
            boundary=tuple(int(n) for n in boundary),
            direction_residual=best_res, norm_residual=norm_res))
    if not neurons:
        raise ValueError("every neuron has w2_i = 0; nothing to extract")
    f = np.maximum(X @ W1, 0.0) @ w2
    comp = np.abs(lam * (y * f - 1.0))
    return KKTExtraction(neurons=neurons, comp_slack=comp)


def dual_feasible(X: np.ndarray, masks: list[ActivationMask], lam: np.ndarray,
                  tol: float = GAUGE_SOLVE_TOL) -> Certificate:
    """Polar-gauge membership: the polar gauge of lam over the full
    arrangement list must not exceed 1."""
    report = polar_gauge(X, masks, lam)
    argmax = masks[int(np.argmax(report.values))].as_string()
    return Certificate(kind="dual-feasible", verdict=report.gauge <= 1.0 + tol,
                       slacks={m.as_string(): float(v)
                               for m, v in zip(masks, report.values)},
                       tolerance=tol,
                       detail=f"gauge={report.gauge:.9f} argmax={argmax}")


def ortho_coverage(extraction: KKTExtraction, y: np.ndarray) -> Certificate:
    """Label coverage of the extracted activation patterns: some positive
    neuron's pattern must dominate I(y = 1) and some negative neuron's
    I(y = -1).  Boundary samples count toward domination (the completion is
    free there).  A side with an all-zero indicator holds vacuously."""
    if not extraction.neurons:
        raise ValueError("empty extraction")
    y = np.asarray(y, dtype=float)

    def covers(neuron: NeuronKKT, indicator: np.ndarray) -> bool:
        bits = np.array(neuron.strict_bits, dtype=float)
        bits[list(neuron.boundary)] = 1.0
        return bool(np.all(bits >= indicator))

    pos_ind = (y == 1).astype(float)
    neg_ind = (y == -1).astype(float)
    pos_ok = (not pos_ind.any()) or any(
        covers(n, pos_ind) for n in extraction.neurons if n.sign > 0)
    neg_ok = (not neg_ind.any()) or any(
        covers(n, neg_ind) for n in extraction.neurons if n.sign < 0)
    return Certificate(kind="ortho-coverage", verdict=pos_ok and neg_ok,
                       slacks={"positive": float(pos_ok),
                               "negative": float(neg_ok)})


def _null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of `rows`:
    scipy.linalg.null_space(rows, rcond=RANK_RTOL), to the bit (the same
    full SVD and threshold)."""
    _, s, Vh = np.linalg.svd(rows)
    return Vh[np.sum(s > s.max(initial=0.0) * RANK_RTOL):].T


def spike_free(X: np.ndarray) -> Certificate:
    """Exact spike-free check: every (Xu)_+ with ||u|| <= 1 must equal Xz
    for some ||z|| <= 1.  On a face of the arrangement (a realizable sign
    pattern sigma), u = F w with F an orthonormal basis of null(X_{sigma=0})
    and (Xu)_+ = V w, V = D_{sigma>0} X F.  range_residual is the largest
    ||(I - X X^+) V||_2; max_z_norm^2 is the largest eigenvalue of
    (X^+ V)^T (X^+ V) whose eigenvector gives u = +/-F w strictly inside
    its face.  The maximum over the unit sphere is attained in some face's
    relative interior, at such an eigenvector; one on a face's boundary lies
    in a lower face's span, where both maps agree, so a repeated eigenvalue
    is found again lower down.  Spike-free iff range_residual <=
    SPIKE_FREE_TOL ||X||_2 and max_z_norm <= 1 + SPIKE_FREE_TOL.  Raises
    ValueError where arrangements.check_sign_pattern_size refuses X.  All
    of it runs on the unit rows of X: for S = diag(s), s > 0, (SXu)_+ =
    S(Xu)_+ and range(SX) = S range(X), so row scale cannot change the
    verdict, and a large row cannot hide a small one's residual.
    """
    X = np.asarray(X, dtype=float)
    faces = enumerate_sign_patterns(X)
    X = unit_rows(X)
    P = np.linalg.pinv(X, rcond=RANK_RTOL)
    residual = top = 0.0
    for face in faces:
        sigma = np.array(face.signs)
        F = _null_space(X[sigma == 0].reshape(-1, X.shape[1]))
        V = (sigma > 0)[:, None] * (X @ F)
        Z = P @ V                                   # X^+ (Xu)_+ = Z w
        residual = max(residual, float(np.linalg.norm(V - X @ Z, 2)))
        eigvals, W = np.linalg.eigh(Z.T @ Z)
        T = (sigma[:, None] * (X @ F @ W))[sigma != 0]
        inside = (T > 0.0).all(axis=0) | (T < 0.0).all(axis=0)
        top = max([top, *eigvals[inside]])
    max_z = float(np.sqrt(top))
    return Certificate(
        kind="spike-free",
        verdict=(residual <= SPIKE_FREE_TOL * np.linalg.norm(X, 2)
                 and max_z <= 1.0 + SPIKE_FREE_TOL),
        slacks={"max_z_norm": max_z, "range_residual": residual},
        tolerance=SPIKE_FREE_TOL,
        detail=f"max_z_norm={max_z:.9f} range_residual={residual:.3e} "
               f"faces={len(faces)}")
