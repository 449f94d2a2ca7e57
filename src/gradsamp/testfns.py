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
from typing import Optional, Tuple

import numpy as np

from .core import ProblemOracle, _is_count


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
            Q = np.zeros((n, n)) if p.Q is None else np.asarray(p.Q, dtype=float)
            if not (np.all(np.isfinite(p.a)) and np.isfinite(p.b) and np.all(np.isfinite(Q))):
                raise ValueError("piece coefficients must be finite")
            if Q.shape != (n, n) or not np.allclose(Q, Q.T):
                raise ValueError("Q must be symmetric n x n")

    @property
    def dim(self) -> int:
        return len(self.pieces[0].a)


def _argmax(vals) -> int:
    """The index np.argmax picks: the first NaN, else the first maximum."""
    for i, v in enumerate(vals):
        if v != v:
            return i
    return vals.index(max(vals))


def _first_max(vals: np.ndarray, grads: np.ndarray) -> Tuple[np.ndarray, int]:
    """From member values (R x M) and gradients (R x M x n): each row's
    first maximal member's gradient, and how many leading rows lie in D,
    which a row with a NaN value or a tie of unequal gradients is not."""
    rows = np.arange(len(vals))
    first = vals.argmax(axis=1)  # a row's first NaN, if it has one
    out = grads[rows, first]
    tied = vals == vals[rows, first][:, None]
    # 0 where one member is maximal, more on a tie, -1 on a NaN.
    extra = tied.sum(axis=1) - 1
    for r in np.flatnonzero(extra).tolist():
        if extra[r] < 0 or (grads[r, tied[r]] != out[r]).any():
            return out, r
    return out, len(vals)


class _MemberMaxOracle(ProblemOracle):
    """Exact oracle for f(x) = max_i f_i(x) over finitely many smooth members.

    theta = [t] is a family index naming one or more members; F(x, [t]) is
    the largest of their values, the first on a tie, and a t that names no
    member is rejected.  The inner maximizer names the first maximal member.
    x is outside D where some member value is NaN, and where maximal
    members disagree on the gradient.  Subclasses pass each member's family
    index, in member order, and supply ``_block(X)``, the values (R x M)
    and gradients (R x M x n) of the M members at the R rows of X, each
    row's with the same bytes whatever block it is evaluated in.

    Each method evaluates the members at its point with one ``_block``
    row, and ``sample_gradients`` evaluates a whole bundle in one
    ``_block`` pass."""

    theta_dim = 1

    def __init__(self, indices):
        self._indices = [float(t) for t in indices]
        self._named = {}
        for i, t in enumerate(self._indices):
            self._named.setdefault(t, []).append(i)

    def _block(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _evaluated(self, x) -> Tuple[list, np.ndarray]:
        # The member values, as a list, and gradients at the point x.
        vals, grads = self._block(np.asarray(x, dtype=float)[None])
        return vals[0].tolist(), grads[0]

    def _member(self, vals: list, theta) -> int:
        named = self._named.get(float(theta[0]))
        if named is None:
            raise ValueError(f"family index {theta[0]} names no member")
        if len(named) == 1:
            return named[0]
        return max(named, key=vals.__getitem__)

    def objective(self, x):
        """eval_F(x, inner_max(x)) from one ``_block`` row."""
        vals = self._evaluated(x)[0]
        return vals[self._member(vals, (self._indices[_argmax(vals)],))]

    def eval_F(self, x, theta):
        vals = self._evaluated(x)[0]
        return vals[self._member(vals, theta)]

    def grad_x_F(self, x, theta):
        vals, grads = self._evaluated(x)
        return grads[self._member(vals, theta)]

    def inner_max(self, x):
        return np.array([self._indices[_argmax(self._evaluated(x)[0])]])

    def in_D(self, x):
        return _first_max(*self._block(np.asarray(x, dtype=float)[None]))[1] == 1

    def sample_gradients(self, points):
        """The base walk's gradients, from one ``_block`` pass over all the
        points: each row's first maximal member's, as ``inner_max`` picks
        it, up to the first row outside D."""
        if len(points) == 0:
            return []
        out, n_in_D = _first_max(*self._block(np.asarray(points, dtype=float)))
        return out[:n_in_D]


class FiniteMaxOracle(_MemberMaxOracle):
    """Exact enumeration oracle; theta is the (1-d) piece index.

    ``_block`` evaluates every piece in one stacked pass, making for each
    point and piece the BLAS calls of the per-piece formulas, so a point's
    values and gradients have the same bytes whichever block it is in."""

    def __init__(self, prob: FiniteMaxProblem):
        super().__init__(range(len(prob.pieces)))
        self.prob = prob
        self.dim = prob.dim
        pieces = prob.pieces
        self._A = np.array([p.a for p in pieces], dtype=float)
        self._b = np.array([p.b for p in pieces], dtype=float)
        quad = [i for i, p in enumerate(pieces) if p.Q is not None]
        self._Qs = np.array([pieces[i].Q for i in quad], dtype=float) if quad else None
        # A slice when every piece has Q, so the updates in _block are views.
        self._quad = slice(None) if len(quad) == len(pieces) else quad

    def _block(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Values (R x P) and gradients (R x P x n) of the P pieces at the R
        rows of X.

        Each batched matmul makes one BLAS call per (row, piece), the call
        of the per-piece formula: a ddot for a_i'x, a dgemv for Q_i x and a
        ddot for x'(Q_i x).  A piece without Q gets a_i'x + b_i and a_i
        with nothing added: a zero Q would add NaN at an infinite
        coordinate."""
        Xc = X[:, None, :, None]
        vals = np.matmul(self._A[:, None, :], Xc)[..., 0, 0] + self._b
        grads = self._A[None].repeat(len(X), axis=0)
        if self._Qs is not None:
            QX = np.matmul(self._Qs, Xc)
            q = self._quad
            vals[:, q] += 0.5 * np.matmul(X[:, None, None, :], QX)[..., 0, 0]
            grads[:, q] += QX[..., 0]
        return vals, grads


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
        if not (_is_count(self.depth) and 1 <= self.depth <= 12):
            raise ValueError(f"depth must be an integer in [1, 12]: {self.depth!r}")


def _cantor_levels(depth: int):
    """Midpoints (floats, sorted) and removal half-widths for k = 1..depth."""
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


class CantorStressOracle(_MemberMaxOracle):
    """Exact oracle for the truncated construction.

    The inner parameter is the scalar family index t; on each segment
    [1/(k+1), 1/k] the family value is affine in t, so the supremum over
    the truncated family is attained on the grid {0} union {1/k : k <=
    depth} and is enumerated exactly.  The members are the segment
    formulas coef * g_k; at a shared grid point 1/k both formulas that
    meet there are members."""

    def __init__(self, prob: CantorStressProblem):
        self.prob = prob
        self.dim = 1
        C = bump_derivative_bound()
        self._levels = {}
        for k, mids, delta, intervals in _cantor_levels(prob.depth):
            eps_k = delta * delta / (k * C)
            self._levels[k] = (mids, delta, eps_k, intervals)
        # Member (t, k, coef) has the value coef * g_k(x) at family index t;
        # at t = 1/k the segments [1/(k+1), 1/k] and [1/k, 1/(k-1)] meet.
        members = [(0.0, 0, 0.0)]
        for k in range(1, prob.depth + 1):
            members += [(1.0 / k, k, 1.0 / (k * j) ** 2) for j in (k + 1, k - 1) if j]
        super().__init__([t for t, _, _ in members])
        self._member_level = [k for _, k, _ in members]
        self._coefs = np.array([[coef] for _, _, coef in members])

    def _block(self, X):
        """Each member's coef * g_k and coef * g_k' at the rows of X, from
        one ``_bump_sum`` per level and row."""
        levels = range(self.prob.depth + 1)
        rows = []
        for x in X[:, 0].tolist():
            g = [self._bump_sum(k, x) for k in levels]
            rows.append([g[k] for k in self._member_level])
        P = self._coefs * np.array(rows)  # R x M x (value, slope)
        return P[..., 0], P[..., 1:]

    def _bump_sum(self, k: int, x: float) -> Tuple[float, float]:
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

    # Exposed for tests of the construction itself.
    def level(self, k: int):
        return self._levels[k]


def cantor_stress_oracle(prob: CantorStressProblem) -> CantorStressOracle:
    return CantorStressOracle(prob)
