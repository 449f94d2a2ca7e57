"""Least-norm element of the convex hull of a finite point set.

This is the per-iteration quadratic program of the driver: the sampled
gradient bundle is a small polytope (m is about n + 1) and the search
direction is the negated minimum-norm point of its hull.  Solved with
Wolfe's minimum-norm-point method (major/minor cycles over affine
minimizers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

_SV_CUTOFF = 1e-12  # relative singular-value cutoff for affine subproblems
_TOL = 1e-12        # Wolfe-criterion tolerance, relative to 1 + ||g||^2


@dataclass
class MinNormResult:
    point: np.ndarray       # least-norm element of the hull
    weights: np.ndarray     # simplex coefficients over the input points
    gap: float              # Wolfe certificate: max_i max(0, -<g, p_i - g>)
    iterations: int
    capped: bool = False    # True when the major-cycle cap was hit


def _affine_minimizer(Q: np.ndarray) -> np.ndarray:
    """Coefficients of the least-norm point of the affine hull of rows of Q.

    Solves the KKT system of min ||a^T Q||^2 s.t. sum(a) = 1 by least
    squares, which tolerates rank-deficient (degenerate) subsets.
    """
    s = Q.shape[0]
    M = Q @ Q.T
    A = np.zeros((s + 1, s + 1))
    A[:s, :s] = M
    A[:s, s] = 1.0
    A[s, :s] = 1.0
    b = np.zeros(s + 1)
    b[s] = 1.0
    sol, *_ = np.linalg.lstsq(A, b, rcond=_SV_CUTOFF)
    return sol[:s]


def min_norm_point(points: Sequence[np.ndarray]) -> MinNormResult:
    """Minimum-norm point of conv(points) with a simplex-weight certificate.

    The returned point g satisfies the Wolfe criterion
    <g, p_i - g> >= -_TOL * (1 + ||g||^2) for every input point; ``gap``
    reports the worst violation before clipping at zero.  Deterministic for
    a fixed input order; vertex selection breaks ties at the lowest index.
    """
    if len(points) == 0:
        raise ValueError("empty point set")
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ValueError("points must share a common dimension")
    if not np.all(np.isfinite(P)):
        raise ValueError("non-finite coordinates in input points")
    m = P.shape[0]

    # Deduplicate bitwise-equal points; weights flow to the first occurrence.
    first_idx: List[int] = []
    seen = {}
    for i in range(m):
        key = P[i].tobytes()
        if key not in seen:
            seen[key] = len(first_idx)
            first_idx.append(i)
    Q = P[first_idx]

    norms_sq = np.einsum("ij,ij->i", Q, Q)
    start = int(np.argmin(norms_sq))
    active = [start]
    lam = np.array([1.0])
    g = Q[start].copy()

    max_iter = 64 * m
    it = 0
    capped = False
    while True:
        it += 1
        if it > max_iter:
            capped = True
            break
        dots = Q @ g
        gsq = float(g @ g)
        j = int(np.argmin(dots))
        if dots[j] >= gsq - _TOL * (1.0 + gsq):
            break
        if j in active:
            break  # numerically stalled; certificate reported below
        active.append(j)
        lam = np.append(lam, 0.0)
        # Minor cycles: pull lam toward the affine minimizer, dropping
        # vertices whose weight hits zero.
        while True:
            alpha = _affine_minimizer(Q[active])
            if np.all(alpha > 1e-14):
                lam = alpha
                break
            mask = alpha <= 1e-14
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = lam[mask] / (lam[mask] - alpha[mask])
            theta = float(np.min(ratios))
            theta = min(max(theta, 0.0), 1.0)
            lam = lam + theta * (alpha - lam)
            keep = lam > 1e-14
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            active = [a for a, k in zip(active, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
            if len(active) == 1:
                break
        g = lam @ Q[active]

    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    g = lam @ Q[active]

    weights = np.zeros(m)
    for a, w in zip(active, lam):
        weights[first_idx[a]] = w

    dots = Q @ g
    gsq = float(g @ g)
    gap = float(max(0.0, np.max(gsq - dots)))
    return MinNormResult(point=g, weights=weights, gap=gap, iterations=it,
                         capped=capped)
