"""Least-norm element of the convex hull of a finite point set.

This is the per-iteration quadratic program of the driver: the sampled
gradient bundle is a small polytope (m is about n + 1) and the search
direction is the negated minimum-norm point of its hull.  Solved with
Wolfe's minimum-norm-point method (Wolfe 1976): a major cycle adds the
point that most violates the optimality test to the active set, and minor
cycles move the weights toward the affine minimizer of the active set,
dropping points whose weight reaches zero.

Every inner product comes from the Gram matrix G = Q Q^T of the
deduplicated points, built once per call.  The affine minimizer of an
active set S is y / sum(y), where (G_S + 1 1^T) y = 1; G_S + 1 1^T is the
Gram matrix of the augmented vectors (1, p_i), which is positive definite
exactly when the points of S are affinely independent.  Its lower
Cholesky factor is kept as Python lists, since S holds a handful of
points: an entering point appends one row by forward substitution, and a
drop refactors from G_S.

A bundle with a coordinate of magnitude outside [1e-100, 1e100] is first
divided by a power of two, so the Gram matrix neither overflows nor
underflows.  The min-norm point is positively homogeneous, so scaling the
result back is exact; in-range bundles are solved as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import List, Sequence

import numpy as np

_TOL = 1e-12        # Wolfe-criterion tolerance, relative to 1 + ||g||^2
_DROP = 1e-14       # weights at or below this leave the active set
_PIVOT = 1e-14      # Cholesky pivot, relative to its diagonal, of a dependent point
_SAFE = (1e-100, 1e100)  # coordinate magnitudes solved without rescaling


@dataclass
class MinNormResult:
    point: np.ndarray       # least-norm element of the hull
    weights: np.ndarray     # simplex coefficients over the input points
    gap: float              # Wolfe certificate: max_i max(0, -<g, p_i - g>)
    iterations: int
    capped: bool = False    # True when the major-cycle cap was hit


def _extend_factor(L: List[List[float]], z: List[float], Gl: List[List[float]],
                   active: List[int]) -> bool:
    """Extend the lower Cholesky factor L of G_S + 1 1^T, and z = L^{-1} 1,
    from the leading len(L) points of ``active`` to all of them.

    Returns False at the first point whose pivot is at most _PIVOT times
    its diagonal entry: that point is numerically affinely dependent on the
    points before it, and L and z then factor only those.
    """
    for i in range(len(L), len(active)):
        Ga = Gl[active[i]]
        r: List[float] = []
        for Lk, b in zip(L, active):
            r.append((Ga[b] + 1.0 - sum(map(mul, Lk, r))) / Lk[-1])
        diag = Ga[active[i]] + 1.0
        pivot = diag - sum(map(mul, r, r))
        if pivot <= _PIVOT * diag:
            return False
        r.append(math.sqrt(pivot))
        z.append((1.0 - sum(map(mul, r, z))) / r[-1])
        L.append(r)
    return True


def _affine_weights(L: List[List[float]], z: List[float]) -> List[float]:
    """Weights of the affine minimizer: y / sum(y), where L^T y = z."""
    y = list(z)
    for i in range(len(L) - 1, -1, -1):
        Li = L[i]
        yi = y[i] = y[i] / Li[i]
        for k in range(i):
            y[k] -= Li[k] * yi
    total = sum(y)
    return [v / total for v in y]


def _wolfe(G: np.ndarray, max_iter: int):
    """Wolfe's method on the Gram matrix G of the points.

    Returns (active, lam, iterations, capped): the active point indices
    and their weights.  Stops when the Wolfe test passes, when the
    entering point is already active or affinely dependent on the active
    set (a numerical stall that the caller's certificate reports), or
    after max_iter major cycles.
    """
    Gl = G.tolist()
    diag = [row[i] for i, row in enumerate(Gl)]
    active = [diag.index(min(diag))]
    lam = [1.0]
    L: List[List[float]] = []
    z: List[float] = []
    _extend_factor(L, z, Gl, active)  # a single point is never dependent
    it = 0
    while True:
        it += 1
        if it > max_iter:
            return active, lam, it, True
        # dots = G[:, active] @ lam, read by rows since G is symmetric.
        dots = G.take(active, axis=0).T.dot(lam).tolist()
        gsq = sum(map(mul, [dots[a] for a in active], lam))
        low = min(dots)
        if low >= gsq - _TOL * (1.0 + gsq):
            break
        j = dots.index(low)
        if j in active:
            break  # numerically stalled; certificate reported by the caller
        active.append(j)
        if not _extend_factor(L, z, Gl, active):
            active.pop()
            break  # affinely dependent on the active set; likewise reported
        lam.append(0.0)
        # Minor cycles: pull lam toward the affine minimizer, dropping
        # points whose weight hits zero.
        while True:
            alpha = _affine_weights(L, z)
            if min(alpha) > _DROP:
                lam = alpha
                break
            theta = min((l / (l - a) for l, a in zip(lam, alpha)
                         if a <= _DROP and l != a), default=1.0)
            theta = min(max(theta, 0.0), 1.0)
            lam = [l + theta * (a - l) for l, a in zip(lam, alpha)]
            keep = [i for i, l in enumerate(lam) if l > _DROP]
            if not keep:
                keep = [lam.index(max(lam))]
            active = [active[i] for i in keep]
            lam = [lam[i] for i in keep]
            total = sum(lam)
            lam = [l / total for l in lam]
            # Rows before the first dropped point are unchanged; refactor
            # the rest from G_S.
            first = next((n for n, i in enumerate(keep) if n != i), len(keep))
            del L[first:], z[first:]
            if not _extend_factor(L, z, Gl, active):
                return active, lam, it, False
            if len(active) == 1:
                break
    return active, lam, it, False


def min_norm_point(points: Sequence[np.ndarray]) -> MinNormResult:
    """Minimum-norm point of conv(points) with a simplex-weight certificate.

    The Gram matrix of the deduplicated points is built once, and Wolfe's
    method runs on it with a Cholesky-factored active set (see the module
    docstring).  The returned point g satisfies the Wolfe criterion
    <g, p_i - g> >= -_TOL * (1 + ||g||^2) for every input point, unless the
    method stalls numerically or hits its cap of 64 * m major cycles;
    ``gap`` reports the worst violation before clipping at zero, so a
    stall shows there.  A bundle with a coordinate of magnitude outside
    [1e-100, 1e100] is solved divided by a power of two, and the point and
    gap are scaled back exactly; the criterion then holds in the scaled
    units.  Deterministic for a fixed input order; vertex selection breaks
    ties at the lowest index.
    """
    if len(points) == 0:
        raise ValueError("empty point set")
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ValueError("points must share a common dimension")
    if not np.isfinite(P).all():
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
    Q = P if len(first_idx) == m else P[first_idx]

    # Scale guard: an exact power-of-two rescaling of extreme bundles.
    shift = 0
    top = float(np.abs(Q).max())
    if not _SAFE[0] <= top <= _SAFE[1]:
        shift = math.frexp(top)[1]
        Q = np.ldexp(Q, -shift)

    active, lam, it, capped = _wolfe(Q @ Q.T, 64 * m)

    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    g = lam @ Q[active]

    weights = np.zeros(m)
    for a, w in zip(active, lam):
        weights[first_idx[a]] = w

    dots = Q @ g
    gsq = float(g @ g)
    gap = float(max(0.0, np.max(gsq - dots)))
    if shift:
        g = np.ldexp(g, shift)
        with np.errstate(over="ignore"):  # a gap past the float range is inf
            gap = float(np.ldexp(gap, 2 * shift))
    return MinNormResult(point=g, weights=weights, gap=gap, iterations=it,
                         capped=capped)
