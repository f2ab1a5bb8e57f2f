"""Rectified-ellipsoid geometry: extreme points, polar gauge and figure
sampling.

The rectified ellipsoid of X is {(Xu)_+ : ||u|| <= 1}; its extreme point
along a vector v within one arrangement cone C = {u : M u >= 0},
M = (2 D_j - I) X (cone_rows), is

    max   v^T u   s.t.  ||u|| <= 1,  M u >= 0.

By Moreau's decomposition the maximum is ||P_C(v)|| at u = P_C(v)/||P_C(v)||,
where P_C(v) = v + M^T z and z = argmin_{z >= 0} ||v + M^T z|| is a
non-negative least-squares problem (Lawson-Hanson active set, finite
termination); the minimum is the same computation on -v.  Every solve is
checked against the projection's KKT conditions.

The polar gauge of lam is the max of |v^T u| over masks and both extreme
points, v = X^T D_j lam; lam is dual feasible iff the gauge over the full
arrangement set is <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrangements import ActivationMask
from .solver import PROJECTION_ZERO_RTOL, cone_projection

#: dual-feasibility tolerance: a gauge <= 1 + GAUGE_SOLVE_TOL certifies
GAUGE_SOLVE_TOL = 1e-6


@dataclass(frozen=True)
class PolarGaugeReport:
    gauge: float
    per_mask: tuple[tuple[ActivationMask, float, float], ...]  # (mask, max, min)
    argmax_mask: ActivationMask


def cone_rows(X: np.ndarray, mask: ActivationMask) -> np.ndarray:
    """M = (2 D - I) X: the mask's cone is {u : M u >= 0}."""
    return (2.0 * mask.diag_vector() - 1.0)[:, None] * X


def extreme_point(X: np.ndarray, mask: ActivationMask,
                  v: np.ndarray) -> np.ndarray:
    """The unit maximizer of v^T u over the unit ball intersected with the
    mask's cone: the normalized cone projection of v, or zero when that
    projection falls below PROJECTION_ZERO_RTOL ||v||.  Exact for every d;
    the minimizer is extreme_point(X, mask, -v)."""
    X = np.asarray(X, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    u = np.zeros(X.shape[1])
    if nv > 0.0:
        p, _ = cone_projection(cone_rows(X, mask), v)
        npn = float(np.linalg.norm(p))
        if npn > PROJECTION_ZERO_RTOL * nv:
            u = p / npn
    return u


def polar_gauge(X: np.ndarray, masks: list[ActivationMask],
                lam: np.ndarray) -> PolarGaugeReport:
    """Max over masks of |v^T u| at both extreme points, v = X^T D_j lam:
    per mask hi = v^T u(v) and lo = v^T u(-v).

    lam is feasible for the dual norm constraint iff gauge <= 1 over the
    full arrangement set."""
    if not masks:
        raise ValueError("mask list must be nonempty")
    X = np.asarray(X, dtype=float)
    lam = np.asarray(lam, dtype=float)
    per_mask = []
    for mask in masks:
        v = X.T @ (mask.diag_vector() * lam)
        per_mask.append((mask, float(v @ extreme_point(X, mask, v)),
                         float(v @ extreme_point(X, mask, -v))))
    values = [max(abs(hi), abs(lo)) for _, hi, lo in per_mask]
    best = int(np.argmax(values))
    return PolarGaugeReport(gauge=float(values[best]),
                            per_mask=tuple(per_mask),
                            argmax_mask=per_mask[best][0])


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
