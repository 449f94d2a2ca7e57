"""Distributionally robust 1-D coverage of a histogram density.

N agents sit on the real line and pay, for every point of the support,
twice the distance to the nearest agent, weighted by an uncertain
histogram density.  The density's bin heights are box-bounded and carry a
total-mass equality, so the worst case over densities is a linear program
solved exactly by greedy filling.  The cost is piecewise smooth in the
agent positions: nonsmoothness sits on the hyperplanes where two agents
coincide, an agent hits a bin edge, or a midpoint between neighbouring
agents hits a bin edge.  An optional hinge penalty pulls agents back into
the support.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .core import ProblemOracle, _is_count


@dataclass(frozen=True)
class CoverageProblem:
    n_agents: int
    bin_edges: Tuple[float, ...]
    theta_lower: Tuple[float, ...]
    theta_upper: Tuple[float, ...]
    total_mass: float = 1.0
    penalty_enabled: bool = False
    penalty_weight: float = 1.0

    def __post_init__(self):
        edges = tuple(float(e) for e in self.bin_edges)
        lower = tuple(float(v) for v in self.theta_lower)
        upper = tuple(float(v) for v in self.theta_upper)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "theta_lower", lower)
        object.__setattr__(self, "theta_upper", upper)
        if not (_is_count(self.n_agents) and self.n_agents >= 1):
            raise ValueError(f"n_agents must be an integer >= 1: {self.n_agents!r}")
        if not isinstance(self.penalty_enabled, bool):
            raise ValueError(f"penalty_enabled must be a bool: {self.penalty_enabled!r}")
        if (len(edges) < 2 or not all(map(math.isfinite, edges))
                or any(b <= a for a, b in zip(edges, edges[1:]))):
            raise ValueError("bin_edges must be finite and strictly increasing")
        K = len(edges) - 1
        if len(lower) != K or len(upper) != K:
            raise ValueError("theta bounds must have one entry per bin")
        if not all(0.0 <= lo <= hi for lo, hi in zip(lower, upper)):
            raise ValueError("need 0 <= theta_lower <= theta_upper")
        if not 0.0 < self.total_mass < math.inf:
            raise ValueError("total_mass must be positive and finite")
        w = self.widths
        if (np.dot(lower, w) > self.total_mass + 1e-12
                or np.dot(upper, w) < self.total_mass - 1e-12):
            raise ValueError("mass constraint infeasible for the given bounds")
        if not 0.0 < self.penalty_weight < math.inf:
            raise ValueError("penalty_weight must be positive and finite")

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) - 1

    @property
    def widths(self) -> np.ndarray:
        e = np.asarray(self.bin_edges)
        return e[1:] - e[:-1]

    @cached_property
    def _edge_sets(self):
        # (edges, doubled edges) for the exact-comparison D test.
        return (frozenset(self.bin_edges),
                frozenset(2.0 * e for e in self.bin_edges))

    @cached_property
    def _support_cuts(self):
        return np.array([self.bin_edges[0], np.nextafter(self.bin_edges[-1], math.inf)])

    @cached_property
    def _edge_arrays(self):
        # The sorted edges and doubled edges, for the block path's D test.
        e = np.asarray(self.bin_edges)
        return e, 2.0 * e

    @cached_property
    def _mass_bounds(self):
        # For inner_lp_max: the widths (read-only, as every call shares
        # them), the lower bin masses and the room above them as lists, and
        # the sums of the lower and upper bin masses.
        w = self.widths
        w.flags.writeable = False
        lo_m = np.asarray(self.theta_lower) * w
        hi_m = np.asarray(self.theta_upper) * w
        return (w, lo_m.tolist(), (hi_m - lo_m).tolist(),
                float(lo_m.sum()), float(hi_m.sum()))


def _partition(prob: CoverageProblem, x: np.ndarray):
    """Nearest-agent partition of the bins, shared by c, dc/dx and the D test.

    Returns (order, xs, segments): ``order`` sorts the agents, ``xs`` holds
    their sorted positions, and each segment (k, alpha, beta, owner, a_idx,
    b_idx) is a piece [alpha, beta] of bin k nearest to sorted agent
    ``owner``.  a_idx/b_idx are the left sorted-agent index of the midpoint
    an endpoint equals, or -1 when the endpoint is a (constant) bin edge.

    One pointer j walks the sorted midpoints across all bins: the midpoints
    strictly inside a bin cut it, and the segment just below midpoint j,
    the first one not yet passed, lies in the cell of sorted agent j.  The
    owner is defined as ``bisect_left(mids, centre)`` with centre =
    (alpha + beta) / 2, which is j unless the centre rounds down onto
    alpha (beta is then alpha's float successor, or equal to it); only
    then is it looked up.
    """
    xl = np.asarray(x, dtype=float).tolist()
    order = sorted(range(len(xl)), key=xl.__getitem__)
    xs = [xl[i] for i in order]
    mids = [(u + v) / 2.0 for u, v in zip(xs, xs[1:])]
    mids.append(math.inf)  # stops both walks below: the edges are finite
    edges = prob.bin_edges
    segments = []
    j = bisect_right(mids, edges[0])
    for k in range(prob.n_bins):
        alpha, a_idx, b = edges[k], -1, edges[k + 1]
        while mids[j] < b:
            beta = mids[j]
            owner = j if (alpha + beta) / 2.0 != alpha else bisect_left(mids, alpha)
            segments.append((k, alpha, beta, owner, a_idx, j))
            alpha, a_idx = beta, j
            j += 1
        owner = j if (alpha + b) / 2.0 != alpha else bisect_left(mids, alpha)
        segments.append((k, alpha, b, owner, a_idx, -1))
        while mids[j] == b:  # a midpoint on an edge cuts nothing
            j += 1
    return order, xs, segments


def _cost(xs, segments, n_bins: int) -> np.ndarray:
    # The per-bin cost c, with F(x, theta) = <c, theta>: c_k sums, over the
    # segments of bin k, the integral of 2|s - y| over [alpha, beta], by
    # position of the owner s.
    c = [0.0] * n_bins
    for k, alpha, beta, owner, _a, _b in segments:
        s = xs[owner]
        da, db = alpha - s, beta - s
        ha, hb = da * da, db * db  # not ** 2: libm pow, which NumPy cannot repeat
        c[k] += hb - ha if s <= alpha else ha - hb if s >= beta else hb + ha
    return np.asarray(c)


def _smooth(prob: CoverageProblem, xs) -> bool:
    """Membership of the sorted positions xs in the open smooth set D, by
    exact comparison.

    Excluded (measure-zero) hyperplanes: coinciding agents, an agent at a
    bin edge, a midpoint of sorted-adjacent agents at a bin edge, and --
    with the penalty on -- an agent at a support endpoint (already a bin
    edge)."""
    edges, doubled = prob._edge_sets
    pairs = list(zip(xs, xs[1:]))
    return (edges.isdisjoint(xs) and all(u != v for u, v in pairs)
            and doubled.isdisjoint([u + v for u, v in pairs]))


def _jacobian(prob: CoverageProblem, order, xs, segments) -> np.ndarray:
    # Each segment integral of 2|s - y| over [alpha, beta] has partials
    # 2|beta - s| in beta and -2|alpha - s| in alpha, and, being shift
    # invariant, their negated sum in the owner s.  A midpoint endpoint
    # moves half with each of its two neighbouring agents.  Only O(N + K)
    # cells are nonzero: each is summed in segment order under its flat
    # index k*N + i, then scattered into the dense matrix.
    N = len(xs)
    cells = {}
    get = cells.get
    for k, alpha, beta, owner, a_idx, b_idx in segments:
        s = xs[owner]
        pa, pb = 2.0 * abs(alpha - s), 2.0 * abs(beta - s)
        row = k * N
        i = row + order[owner]
        cells[i] = get(i, 0.0) + (pa - pb)
        if a_idx >= 0:
            d = 0.5 * -pa
            i = row + order[a_idx]
            cells[i] = get(i, 0.0) + d
            i = row + order[a_idx + 1]
            cells[i] = get(i, 0.0) + d
        if b_idx >= 0:
            d = 0.5 * pb
            i = row + order[b_idx]
            cells[i] = get(i, 0.0) + d
            i = row + order[b_idx + 1]
            cells[i] = get(i, 0.0) + d
    J = np.zeros(prob.n_bins * N)
    J[list(cells)] = list(cells.values())
    return J.reshape(prob.n_bins, N)


def penalty(prob: CoverageProblem, x: np.ndarray) -> float:
    """Hinge distance of each agent to the support [first edge, last edge]."""
    x = np.asarray(x, dtype=float)
    lo, hi = prob.bin_edges[0], prob.bin_edges[-1]
    return float(np.sum(np.maximum(0.0, np.maximum(lo - x, x - hi))))


_SLOPES = np.array([-1.0, 0.0, 1.0])


def _penalty_grad(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    # The hinge's slope for each coordinate of a point or a block of rows:
    # -1 below the support, +1 above it and 0 on it, from one search among
    # the first edge and the float just above the last.
    return _SLOPES[np.searchsorted(prob._support_cuts, x, side="right")]


def inner_lp_max(prob: CoverageProblem, c: np.ndarray) -> np.ndarray:
    """Exact maximizer of <c, theta> over the box-bounded mass simplex.

    In per-bin mass variables m_k = theta_k * width_k the objective is
    sum_k (c_k / width_k) m_k with box bounds and a fixed total, so the
    greedy fill by decreasing rate c_k / width_k is exact (ties broken at
    the lowest index)."""
    c = np.asarray(c, dtype=float)
    w, lo_m, room, lo_sum, hi_sum = prob._mass_bounds
    resid = prob.total_mass - lo_sum
    if resid < -1e-9 or prob.total_mass > hi_sum + 1e-9:
        raise ValueError("infeasible mass bounds")
    masses = list(lo_m)
    for k in np.argsort(-(c / w), kind="stable").tolist():
        if resid <= 0.0:
            break
        add = min(room[k], resid)
        masses[k] += add
        resid -= add
    return np.asarray(masses) / w


# CoverageOracle.sample_gradients takes the block path once len(points) *
# (N + K) reaches _BLOCK_MIN, and feeds it chunks of rows of about
# _BLOCK_SEGMENTS segments (a row has at most N + K - 1), which bounds its
# memory.  Against the per-point path, on seeded bundles of m = N + 2
# points on a shared 2-core x86 box, the block path took 2.0x the time at
# a size of 16, 0.85-1.0x at 77 to 84, 0.7-0.9x at 128 to 144 and about
# 0.3x at N = 20 and N = 50.
_BLOCK_MIN = 120
_BLOCK_SEGMENTS = 2000


def _block_segments(prob: CoverageProblem, mids: np.ndarray):
    """_partition's segments for every row of sorted midpoints, as flat
    arrays in walk order: (row, k, alpha, beta, owner, a_idx, b_idx).

    A row's cuts are its K + 1 edges and the midpoints strictly inside a
    bin, in increasing order, and each pair of neighbouring cuts is a
    segment.  The owner is the walk's: j for a segment that ends at
    midpoint j, the count of midpoints below the edge for one that ends at
    an edge, and the count below alpha when the centre rounds onto alpha.
    """
    R = len(mids)
    edges = prob._edge_arrays[0]
    K = len(edges) - 1
    # kr counts the edges at or below a midpoint: it lies below edge k
    # exactly when kr <= k, and inside bin kr - 1 unless it sits on an edge.
    kr = np.searchsorted(edges, mids, side="right")
    inside = (kr >= 1) & (kr <= K) & (edges[kr - 1] != mids)
    key = np.arange(R)[:, None] * (K + 2) + kr
    below = np.bincount(key.ravel(), minlength=R * (K + 2)).reshape(R, K + 2)
    below = below[:, :K + 1].cumsum(axis=1)
    inside_below = np.bincount(key[inside], minlength=R * (K + 2)).reshape(R, K + 2)
    inside_below = inside_below[:, :K + 1].cumsum(axis=1)
    n_cuts = K + 1 + inside_below[:, -1]
    first = np.cumsum(n_cuts) - n_cuts  # each row's first cut
    # Per cut: its value, the midpoint it is (-1 at an edge), the bin of the
    # segment it starts, and the owner of the segment it ends.
    T = int(n_cuts.sum())
    value = np.empty(T)
    mid_idx = np.full(T, -1)
    bin_of = np.empty(T, dtype=np.intp)
    end_owner = np.empty(T, dtype=np.intp)
    at = first[:, None] + np.arange(K + 1) + inside_below
    value[at] = edges
    bin_of[at] = np.arange(K + 1)
    end_owner[at] = below
    r, j = np.nonzero(inside)
    at = first[r] + kr[r, j] + (np.cumsum(inside, axis=1) - 1)[r, j]
    value[at] = mids[r, j]
    mid_idx[at] = j
    bin_of[at] = kr[r, j] - 1
    end_owner[at] = j
    starts = np.ones(T, dtype=bool)
    starts[first + n_cuts - 1] = False
    lo = np.flatnonzero(starts)
    row = np.repeat(np.arange(R), n_cuts - 1)
    alpha, beta = value[lo], value[lo + 1]
    owner = end_owner[lo + 1]
    for i in np.flatnonzero((alpha + beta) / 2.0 == alpha).tolist():
        owner[i] = np.searchsorted(mids[row[i]], alpha[i], side="left")
    return row, bin_of[lo], alpha, beta, owner, mid_idx[lo], mid_idx[lo + 1]


def _block_lp(prob: CoverageProblem, c: np.ndarray) -> np.ndarray:
    """inner_lp_max on every row of c, byte for byte.

    In fill order, the mass left before each step is one subtract.accumulate
    of the rooms: a step adds its whole room while some mass is left after
    it, the step that exhausts it adds what was left, and later steps add
    nothing."""
    w, lo_m, room, lo_sum, hi_sum = prob._mass_bounds
    resid = prob.total_mass - lo_sum
    if resid < -1e-9 or prob.total_mass > hi_sum + 1e-9:
        raise ValueError("infeasible mass bounds")
    R, K = c.shape
    fill = np.argsort(-(c / w), axis=1, kind="stable")
    room_f = np.asarray(room)[fill]
    left = np.subtract.accumulate(
        np.concatenate([np.full((R, 1), resid), room_f], axis=1), axis=1)
    positive = left > 0.0
    lo_f = np.asarray(lo_m)[fill]
    add = np.where(positive[:, 1:], room_f, left[:, :-1])
    masses = np.empty((R, K))
    masses[np.arange(R)[:, None], fill] = np.where(positive[:, :-1], lo_f + add, lo_f)
    return masses / w


def _hits(sorted_values: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Elementwise: does v equal one of sorted_values?
    return (np.searchsorted(sorted_values, v, side="left")
            != np.searchsorted(sorted_values, v, side="right"))


def _block_gradients(prob: CoverageProblem, X: np.ndarray) -> list:
    """The gradients of the per-point path at the inner maximizers of the
    leading rows of X that lie in D, byte for byte, computed for all of
    those rows at once."""
    N = X.shape[1]
    K = prob.n_bins
    edges, doubled = prob._edge_arrays
    order = np.argsort(X, axis=1, kind="stable")
    xs = X[np.arange(len(X))[:, None], order]
    sums = xs[:, :-1] + xs[:, 1:]
    bad = ((xs[:, :-1] == xs[:, 1:]) | _hits(doubled, sums)).any(axis=1)
    bad |= _hits(edges, xs).any(axis=1)
    R = int(bad.argmax()) if bad.any() else len(X)
    if R == 0:
        return []
    X, order, xs = X[:R], order[:R], xs[:R]
    row, k, alpha, beta, owner, a_idx, b_idx = _block_segments(prob, sums[:R] / 2.0)

    # c summed per bin in segment order, as _cost does, then the LP.
    s = xs.ravel()[row * N + owner]
    da, db = alpha - s, beta - s
    ha, hb = da * da, db * db
    v = np.where(s <= alpha, hb - ha, np.where(s >= beta, ha - hb, hb + ha))
    theta = _block_lp(prob, np.bincount(row * K + k, weights=v, minlength=R * K).reshape(R, K))

    # The Jacobian cells of each segment in _jacobian's order: the owner,
    # the two agents of a midpoint alpha, then those of a midpoint beta.  A
    # missing midpoint adds +0.0, which leaves every cell as it is, as no
    # cell sum is ever -0.0.
    pa, pb = 2.0 * np.abs(da), 2.0 * np.abs(db)
    half_a = np.where(a_idx >= 0, 0.5 * -pa, 0.0)
    half_b = np.where(b_idx >= 0, 0.5 * pb, 0.0)
    agent, base, cell = order.ravel(), row * N, (row * K + k) * N
    cells = np.empty((len(row), 5), dtype=np.intp)
    parts = np.empty((len(row), 5))
    for col, (i, part) in enumerate(((owner, pa - pb), (a_idx, half_a), (a_idx + 1, half_a),
                                     (b_idx, half_b), (b_idx + 1, half_b))):
        cells[:, col] = cell + agent[base + i]
        parts[:, col] = part
    J = np.bincount(cells.ravel(), weights=parts.ravel(), minlength=R * K * N)
    # One BLAS gemv per row, the same call as J_r.T @ theta_r.
    G = np.matmul(J.reshape(R, K, N).transpose(0, 2, 1), theta[:, :, None])[:, :, 0]
    if prob.penalty_enabled:
        G = G + prob.penalty_weight * _penalty_grad(prob, X)
    return list(G)


class CoverageOracle(ProblemOracle):
    """Oracle contract for the coverage family: exact greedy inner LP and
    analytic gradients.

    The partition, c and D membership of the last point asked about are
    kept, so a bundle sample's in_D, inner_max and grad_x_F, or a
    line-search trial's inner_max and eval_F, build the partition once.
    The memo is read and replaced as one tuple, so concurrent callers never
    get another caller's point.

    ``sample_gradients`` evaluates a large bundle in chunks of rows with
    NumPy (see _BLOCK_MIN), with the per-point path's bytes, and a small
    one point by point."""

    def __init__(self, prob: CoverageProblem):
        self.prob = prob
        self.dim = prob.n_agents
        self.theta_dim = prob.n_bins
        self._last = (None,)  # (x bytes, order, xs, segments, c, in D)

    def _at(self, x: np.ndarray):
        key = x.tobytes()
        last = self._last
        if last[0] != key:
            order, xs, segments = _partition(self.prob, x)
            last = self._last = (key, order, xs, segments,
                                 _cost(xs, segments, self.prob.n_bins),
                                 _smooth(self.prob, xs))
        return last[1:]

    def sample_gradients(self, points):
        width = self.dim + self.theta_dim
        if len(points) * width < _BLOCK_MIN:
            return super().sample_gradients(points)
        rows = max(1, _BLOCK_SEGMENTS // width)
        out = []
        for i in range(0, len(points), rows):
            chunk = points[i:i + rows]
            got = _block_gradients(self.prob, np.array(chunk, dtype=float))
            out += got
            if len(got) < len(chunk):
                break
        return out

    def eval_F(self, x, theta):
        x = np.asarray(x, dtype=float)
        v = float(self._at(x)[3] @ np.asarray(theta, dtype=float))
        if self.prob.penalty_enabled:
            v += self.prob.penalty_weight * penalty(self.prob, x)
        return v

    def grad_x_F(self, x, theta):
        """The gradient of <c, theta> (+ weighted penalty), on D."""
        x = np.asarray(x, dtype=float)
        order, xs, segments, _, smooth = self._at(x)
        if not smooth:
            raise ValueError("gradient undefined: x lies on an excluded hyperplane")
        g = _jacobian(self.prob, order, xs, segments).T @ np.asarray(theta, dtype=float)
        if self.prob.penalty_enabled:
            g = g + self.prob.penalty_weight * _penalty_grad(self.prob, x)
        return g

    def inner_max(self, x):
        return inner_lp_max(self.prob, self._at(np.asarray(x, dtype=float))[3])

    def in_D(self, x):
        return self._at(np.asarray(x, dtype=float))[4]


def make_coverage_oracle(prob: CoverageProblem) -> CoverageOracle:
    return CoverageOracle(prob)
