"""Rectified-ellipsoid geometry: extreme points, polar gauge and figure
sampling.

The rectified ellipsoid of X is {(Xu)_+ : ||u|| <= 1}; its extreme point
along a vector v within one arrangement cone C = {u : M u >= 0},
M = (2 D_j - I) X, is

    max   v^T u   s.t.  ||u|| <= 1,  M u >= 0.

By Moreau's decomposition the maximum is ||P_C(v)|| at u = P_C(v)/||P_C(v)||,
and P_C(v) is the largest projection of v onto a flat of the unit rows of X
that lies in C (:class:`relu_lab.solver.Cones`), exact.  The flats are
built once per dataset, and one product per flat prices every mask along
v and -v; with many flats, each mask first tries the flat of its active
set.

The polar gauge of lam is the max of |v^T u| over masks and both extreme
points, v = X^T D_j lam; lam is dual feasible iff the gauge over the full
arrangement set is <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrangements import ActivationMask
from .solver import RANK_RTOL, Cones

#: dual-feasibility tolerance: a gauge <= 1 + GAUGE_SOLVE_TOL certifies
GAUGE_SOLVE_TOL = 1e-6


@dataclass(frozen=True)
class PolarGaugeReport:
    gauge: float
    values: np.ndarray     # per mask max(|hi|, |lo|); gauge is their max


def _dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[k] @ B[k] for each row k, each as the 1-D product computes it."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def masked_vectors(X: np.ndarray, masks: list[ActivationMask],
                   lam: np.ndarray) -> np.ndarray:
    """Row j is v_j = X^T D_j lam, as X.T @ (masks[j].diag_vector() * lam)
    computes it."""
    D = np.array([mask.bits for mask in masks], dtype=np.int8)
    lam = np.asarray(lam, dtype=float)
    return np.matmul(np.asarray(X, dtype=float).T, (D * lam)[:, :, None]
                     )[:, :, 0]


def extreme_points(X: np.ndarray, masks: list[ActivationMask],
                   V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, L): U[k] maximizes V[k]^T u and L[k] minimizes it over the unit
    ball intersected with the cone of masks[k]: the normalized cone
    projections of V[k] and -V[k], or zero where that projection falls
    below RANK_RTOL ||V[k]||.  Exact for every d; row k does not
    depend on the other rows."""
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    N, p = X.shape[0], len(masks)
    bits = np.array([mask.bits for mask in masks], dtype=np.int8)
    cones = Cones(X, 2 * bits.reshape(p, N) - 1)
    nv = np.sqrt(_dots(V, V))
    points = []
    for sign, flat in zip((1.0, -1.0), cones.choose(V)):
        P = cones.project(sign * V, flat)
        npn = np.sqrt(_dots(P, P))
        keep = (nv > 0.0) & (npn > RANK_RTOL * nv)
        points.append(np.divide(P, npn[:, None], out=np.zeros_like(P),
                                where=keep[:, None]))
    return points[0], points[1]


def extreme_point(X: np.ndarray, mask: ActivationMask,
                  v: np.ndarray) -> np.ndarray:
    """The unit maximizer of v^T u over the unit ball intersected with the
    mask's cone (:func:`extreme_points` of one mask); the minimizer is
    extreme_point(X, mask, -v)."""
    return extreme_points(X, [mask], np.asarray(v, dtype=float)[None])[0][0]


def polar_gauge(X: np.ndarray, masks: list[ActivationMask],
                lam: np.ndarray) -> PolarGaugeReport:
    """Max over masks of |v^T u| at both extreme points, v = X^T D_j lam:
    values[j] = max(|hi|, |lo|) with hi = v^T u(v) and lo = v^T u(-v), the
    values extreme_point gives.

    lam is feasible for the dual norm constraint iff gauge <= 1 over the
    full arrangement set."""
    if not masks:
        raise ValueError("mask list must be nonempty")
    X = np.asarray(X, dtype=float)
    V = masked_vectors(X, masks, lam)
    U, L = extreme_points(X, masks, V)
    values = np.maximum(np.abs(_dots(V, U)), np.abs(_dots(V, L)))
    return PolarGaugeReport(gauge=float(values.max()), values=values)


def rectified_ellipsoid_samples(X: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """M boundary samples (X [cos t, sin t]^T)_+ at uniformly spaced angles.

    Returns (thetas, points) with points of shape (M, N); d must be 2.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[1] != 2:
        raise ValueError("uniform angle sweep requires d = 2")
    if M < 3:
        raise ValueError("need at least 3 samples")
    thetas = 2.0 * np.pi * np.arange(M) / M
    U = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    return thetas, np.maximum(U @ X.T, 0.0)
