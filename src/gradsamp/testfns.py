"""Analytic finite-max objectives with exact inner oracles.

Two families: pointwise maxima of finitely many (affine or quadratic)
pieces, used for unit tests with known minimizers, and a truncated
Cantor-construction stress objective whose nondifferentiability points are
dense in a fat Cantor set.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .core import ProblemOracle


@dataclass(frozen=True)
class MaxPiece:
    a: Tuple[float, ...]
    b: float = 0.0
    Q: Optional[Tuple[Tuple[float, ...], ...]] = None  # symmetric, optional


@dataclass(frozen=True)
class FiniteMaxProblem:
    """f(x) = max_i [ 1/2 x'Q_i x + a_i'x + b_i ] over a finite index set."""

    pieces: Tuple[MaxPiece, ...]

    def __post_init__(self):
        if len(self.pieces) == 0:
            raise ValueError("need at least one piece")
        n = len(self.pieces[0].a)
        for p in self.pieces:
            if len(p.a) != n:
                raise ValueError("pieces must share a dimension")
            if p.Q is not None:
                Q = np.asarray(p.Q, dtype=float)
                if Q.shape != (n, n) or not np.allclose(Q, Q.T):
                    raise ValueError("Q must be symmetric n x n")

    @property
    def dim(self) -> int:
        return len(self.pieces[0].a)


def abs_value_problem() -> FiniteMaxProblem:
    """f(x) = |x| = max{x, -x} in one dimension."""
    return FiniteMaxProblem(pieces=(MaxPiece(a=(1.0,)), MaxPiece(a=(-1.0,))))


class FiniteMaxOracle(ProblemOracle):
    """Exact enumeration oracle; theta is the (1-d) piece index."""

    exact_inner = True

    def __init__(self, prob: FiniteMaxProblem):
        self.prob = prob
        self.dim = prob.dim
        self.theta_dim = 1
        self._a = [np.asarray(p.a, dtype=float) for p in prob.pieces]
        self._b = [float(p.b) for p in prob.pieces]
        self._Q = [None if p.Q is None else np.asarray(p.Q, dtype=float)
                   for p in prob.pieces]

    def _value(self, x: np.ndarray, i: int) -> float:
        v = float(self._a[i] @ x) + self._b[i]
        if self._Q[i] is not None:
            v += 0.5 * float(x @ (self._Q[i] @ x))
        return v

    def _grad(self, x: np.ndarray, i: int) -> np.ndarray:
        g = self._a[i].copy()
        if self._Q[i] is not None:
            g = g + self._Q[i] @ x
        return g

    def eval_F(self, x, theta):
        return self._value(np.asarray(x, dtype=float), int(round(float(theta[0]))))

    def grad_x_F(self, x, theta):
        return self._grad(np.asarray(x, dtype=float), int(round(float(theta[0]))))

    def inner_max(self, x, dist_tol):
        x = np.asarray(x, dtype=float)
        vals = [self._value(x, i) for i in range(len(self._a))]
        i = int(np.argmax(vals))  # ties go to the lowest index
        return np.array([float(i)]), 0.0

    def in_D(self, x):
        # Outside D only where two maximal pieces tie with unequal gradients.
        x = np.asarray(x, dtype=float)
        vals = [self._value(x, i) for i in range(len(self._a))]
        vmax = max(vals)
        tied = [i for i, v in enumerate(vals) if v == vmax]
        if len(tied) == 1:
            return True
        g0 = self._grad(x, tied[0])
        return all(np.array_equal(self._grad(x, i), g0) for i in tied[1:])


def finite_max_oracle(prob: FiniteMaxProblem) -> FiniteMaxOracle:
    return FiniteMaxOracle(prob)


# ---------------------------------------------------------------------------
# Truncated Cantor-construction stress objective
# ---------------------------------------------------------------------------

def bump(u: np.ndarray) -> np.ndarray:
    """Smooth odd bump on (-1, 1): sin(pi u) * exp(-1/(1-u^2)), 0 outside.

    Vanishes at 0 with nonzero slope pi/e there."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.sin(math.pi * ui) * np.exp(-1.0 / (1.0 - ui * ui))
    return out


def bump_d1(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    E = np.exp(-1.0 / (1.0 - ui * ui))
    w = -2.0 * ui / (1.0 - ui * ui) ** 2
    out[inside] = math.pi * np.cos(math.pi * ui) * E + np.sin(math.pi * ui) * E * w
    return out


def bump_d2(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    one = 1.0 - ui * ui
    E = np.exp(-1.0 / one)
    w = -2.0 * ui / one ** 2
    wp = -2.0 / one ** 2 - 8.0 * ui * ui / one ** 3
    s = np.sin(math.pi * ui)
    c = np.cos(math.pi * ui)
    out[inside] = (-math.pi ** 2 * s * E + 2.0 * math.pi * c * E * w
                   + s * E * (w * w + wp))
    return out


@lru_cache(maxsize=1)
def bump_derivative_bound() -> float:
    """Numerical sup of max(|bump'|, |bump''|) on [-1,1], slightly inflated
    so the scaled-bump bounds hold with margin under any sampling."""
    u = np.linspace(-1.0, 1.0, 400001)
    c = max(float(np.max(np.abs(bump_d1(u)))), float(np.max(np.abs(bump_d2(u)))))
    return c * (1.0 + 1e-6)


@dataclass(frozen=True)
class CantorStressProblem:
    """Truncation depth of the recursive fat-Cantor bump construction.

    Level k removes, from each retained interval, an open interval of
    length 2**(-2(k+1)) around its midpoint; a scaled smooth bump rides on
    each removed interval.  Midpoints are computed exactly in binary
    rationals.  Depths beyond 12 underflow the interval widths."""

    depth: int

    def __post_init__(self):
        if not (1 <= self.depth <= 12):
            raise ValueError("depth must lie in [1, 12]")


def _cantor_levels(depth: int):
    """Midpoints (floats, sorted) and half-widths delta_k for k = 1..depth."""
    intervals = [(Fraction(0), Fraction(1))]
    # Level 0 removal (no bump rides on it).
    levels = []
    for k in range(0, depth + 1):
        delta = Fraction(1, 2 ** (2 * (k + 1) + 1))
        mids = [(lo + hi) / 2 for lo, hi in intervals]
        if k >= 1:
            levels.append((k, [float(m) for m in mids], float(delta),
                           [(float(lo), float(hi)) for lo, hi in intervals]))
        nxt = []
        for (lo, hi), m in zip(intervals, mids):
            nxt.append((lo, m - delta))
            nxt.append((m + delta, hi))
        intervals = nxt
    return levels


class CantorStressOracle(ProblemOracle):
    """Exact oracle for the truncated construction.

    The inner parameter is the scalar family index t; on each segment
    [1/(k+1), 1/k] the family value is affine in t, so the supremum over
    the truncated family is attained on the grid {0} union {1/k : k <=
    depth} and is enumerated exactly.  At a shared grid point the two
    adjacent segment formulas are both evaluated and the larger value
    taken."""

    exact_inner = True

    def __init__(self, prob: CantorStressProblem):
        self.prob = prob
        self.dim = 1
        self.theta_dim = 1
        C = bump_derivative_bound()
        self._levels = {}
        for k, mids, delta, intervals in _cantor_levels(prob.depth):
            eps_k = delta * delta / (k * C)
            self._levels[k] = (mids, delta, eps_k, intervals)
        # Candidate scalars: value is coef * g_k(x) at family point t.
        self._candidates: List[Tuple[float, int, float]] = [(0.0, 0, 0.0)]
        for k in range(1, prob.depth + 1):
            seg = 1.0 / (k * (k + 1)) ** 2
            self._candidates.append((1.0 / k, k, seg))
            if k >= 2:
                self._candidates.append((1.0 / k, k, 1.0 / ((k - 1) * k) ** 2))

    def _g(self, k: int, x: float) -> Tuple[float, float]:
        """(g_k(x), g_k'(x)) for the level-k bump sum."""
        if k == 0:
            return 0.0, 0.0
        mids, delta, eps_k, _ = self._levels[k]
        j = bisect_left(mids, x)
        for cand in (j - 1, j):
            if 0 <= cand < len(mids) and abs(x - mids[cand]) < delta:
                u = (x - mids[cand]) / delta
                return (eps_k * float(bump(np.array([u]))[0]),
                        eps_k / delta * float(bump_d1(np.array([u]))[0]))
        return 0.0, 0.0

    def _lookup(self, t: float, x: float) -> Tuple[float, float]:
        """(F, dF/dx) at family index t: the larger of the segment formulas
        that meet at t, the first one on a tie."""
        best = None
        for tc, k, coef in self._candidates:
            if tc == t:
                g, gd = self._g(k, x)
                if best is None or coef * g > best[0]:
                    best = (coef * g, coef * gd)
        if best is None:
            raise ValueError(f"family index {t} is not on the truncated grid")
        return best

    def eval_F(self, x, theta):
        return self._lookup(float(theta[0]), float(np.asarray(x).ravel()[0]))[0]

    def grad_x_F(self, x, theta):
        return np.array([self._lookup(float(theta[0]),
                                      float(np.asarray(x).ravel()[0]))[1]])

    def _all_values(self, xv: float):
        return [(coef * self._g(k, xv)[0], t, k, coef)
                for t, k, coef in self._candidates]

    def inner_max(self, x, dist_tol):
        xv = float(np.asarray(x).ravel()[0])
        vals = self._all_values(xv)
        best = max(v for v, *_ in vals)
        for v, t, k, coef in vals:
            if v == best:
                return np.array([t]), 0.0

    def in_D(self, x):
        xv = float(np.asarray(x).ravel()[0])
        vals = self._all_values(xv)
        best = max(v for v, *_ in vals)
        derivs = {coef * self._g(k, xv)[1]
                  for v, t, k, coef in vals if v == best}
        return len(derivs) == 1

    # Exposed for tests of the construction itself.
    def level(self, k: int):
        return self._levels[k]

    def g_value(self, k: int, x: float) -> float:
        return self._g(k, x)[0]

    def g_deriv(self, k: int, x: float) -> float:
        return self._g(k, x)[1]


def cantor_stress_oracle(prob: CantorStressProblem) -> CantorStressOracle:
    return CantorStressOracle(prob)
