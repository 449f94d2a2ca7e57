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
from operator import add, ne, neg, truediv
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
                or not all(0.0 < b - a < math.inf for a, b in zip(edges, edges[1:]))):
            raise ValueError("bin_edges must be finite and strictly increasing, "
                             "with finite widths")
        K = len(edges) - 1
        if len(lower) != K or len(upper) != K:
            raise ValueError("theta bounds must have one entry per bin")
        if not all(0.0 <= lo <= hi and lo < math.inf for lo, hi in zip(lower, upper)):
            raise ValueError("need 0 <= theta_lower <= theta_upper, theta_lower finite")
        if not 0.0 < self.total_mass < math.inf:
            raise ValueError("total_mass must be positive and finite")
        # On the sums the LP fills from, so a problem built here never makes
        # it fail; within the slack it returns theta_lower or theta_upper.
        lo_sum, hi_sum = self._mass_bounds[6:]
        slack = 1e-12 * max(1.0, self.total_mass)
        if not lo_sum - slack <= self.total_mass <= hi_sum + slack:
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
    def _edge_arrays(self):
        # The sorted edges and doubled edges, for the block path's D test.
        e = np.asarray(self.bin_edges)
        with np.errstate(over="ignore"):  # a doubled edge past 1e308 is inf
            return e, 2.0 * e

    @cached_property
    def _mass_bounds(self):
        # For the LPs: the widths, the lower bin masses and the room above
        # them, each as an array for _block_lp (read-only, as every call
        # shares it) and as a list for _lp, then the sums of the lower and
        # upper bin masses, which __post_init__ checks.  A mass or sum past
        # 1e308 is inf, without NumPy's warning; an inf lower mass makes
        # the problem infeasible, whatever its room (inf - inf = NaN) reads.
        w = self.widths
        with np.errstate(over="ignore", invalid="ignore"):
            lo_m = np.asarray(self.theta_lower) * w
            hi_m = np.asarray(self.theta_upper) * w
            room = hi_m - lo_m
            sums = float(lo_m.sum()), float(hi_m.sum())
        for a in (w, lo_m, room):
            a.flags.writeable = False
        return (w, w.tolist(), lo_m, lo_m.tolist(), room, room.tolist()) + sums


def _walk(prob: CoverageProblem, x, parts=None):
    """One pass over the nearest-agent partition of the bins at x, shared
    by c, dc/dx and the D test.

    Returns (xs, c): the agents' sorted positions, and the per-bin cost c
    as a list, with F(x, theta) = <c, theta>.  Given a list ``parts``, it
    also appends to it one (k, i, part) per segment, in walk order, for
    the gradient (_sum_parts); the callers that read only c pass none.

    Each segment is a piece [alpha, beta] of bin k nearest to one sorted
    agent, the owner s, which is agent i.  One pointer j walks the sorted
    midpoints across all bins: the midpoints strictly inside a bin cut it,
    and the segment just below midpoint j, the first one not yet passed,
    lies in the cell of sorted agent j.  The owner is defined as
    ``bisect_left(mids, centre)`` with centre = (alpha + beta) / 2, which
    is j unless the centre rounds down onto alpha (beta is then alpha's
    float successor, or equal to it); only then is it looked up.  c_k
    sums, over the segments of bin k in walk order, the integral of
    2|s - y| over [alpha, beta], by position of the owner.  On D the
    integrand 2 min_i |x_i - y| is continuous across each cell boundary,
    so the Leibniz terms of a moving midpoint, equal and opposite from the
    two segments that meet there, cancel.  What is left of the segment's
    derivative in the agents is the owner's part, 2|alpha - s| - 2|beta - s|.
    """
    xl = np.asarray(x, dtype=float).tolist()
    order = sorted(range(len(xl)), key=xl.__getitem__)
    xs = [xl[i] for i in order]
    mids = [(u + v) / 2.0 for u, v in zip(xs, xs[1:])]
    mids.append(math.inf)  # stops both loops below: the edges are finite
    edges = prob.bin_edges
    c = [0.0] * prob.n_bins
    j = bisect_right(mids, edges[0])
    for k in range(prob.n_bins):
        alpha, b = edges[k], edges[k + 1]
        ck = 0.0
        # The segments that end at a midpoint, then the one that ends at b,
        # with the same arithmetic: one loop that tests for the last
        # segment took about 1.5x the time at N = 50.
        while mids[j] < b:
            beta = mids[j]
            owner = j if (alpha + beta) / 2.0 != alpha else bisect_left(mids, alpha)
            s = xs[owner]
            da, db = alpha - s, beta - s
            ha, hb = da * da, db * db  # not ** 2: libm pow, which NumPy cannot repeat
            ck += hb - ha if s <= alpha else ha - hb if s >= beta else hb + ha
            if parts is not None:
                parts.append((k, order[owner], 2.0 * abs(da) - 2.0 * abs(db)))
            alpha = beta
            j += 1
        owner = j if (alpha + b) / 2.0 != alpha else bisect_left(mids, alpha)
        s = xs[owner]
        da, db = alpha - s, b - s
        ha, hb = da * da, db * db
        c[k] = ck + (hb - ha if s <= alpha else ha - hb if s >= b else hb + ha)
        if parts is not None:
            parts.append((k, order[owner], 2.0 * abs(da) - 2.0 * abs(db)))
        while mids[j] == b:  # a midpoint on an edge cuts nothing
            j += 1
    return xs, c


def _smooth(prob: CoverageProblem, xs) -> bool:
    """Membership of the sorted positions xs in the open smooth set D, by
    exact comparison.

    Excluded (measure-zero) hyperplanes: coinciding agents, an agent at a
    bin edge, a midpoint of sorted-adjacent agents at a bin edge, and --
    with the penalty on -- an agent at a support endpoint (already a bin
    edge)."""
    edges, doubled = prob._edge_sets
    rest = xs[1:]
    return (edges.isdisjoint(xs) and all(map(ne, xs, rest))
            and doubled.isdisjoint(map(add, xs, rest)))


def _sum_parts(parts, th: list, n: int) -> list:
    # The gradient of <c, theta> in the n agents as a list, for theta as a
    # list: each of a walk's owner parts times theta_k, added to its agent
    # in segment order.
    g = [0.0] * n
    for k, i, part in parts:
        g[i] += part * th[k]
    return g


def penalty(prob: CoverageProblem, x: np.ndarray) -> float:
    """Hinge distance of each agent to the support [first edge, last edge].

    The bytes of np.sum(np.maximum(0.0, np.maximum(lo - x, x - hi))).  The
    hinge terms are formed on Python floats as np.maximum forms them: NaN
    if either operand is, and the second operand on a tie (so
    np.maximum(0.0, -0.0) is -0.0); lo - v and v - hi are NaN together, as
    the edges are finite.  The sum stays np.sum, whose order Python's sum
    does not follow from 8 terms on.  For terms that are all zeros, the
    usual case of agents inside the support, np.sum gives +0.0, which is
    returned without it."""
    lo, hi = prob.bin_edges[0], prob.bin_edges[-1]
    terms = []
    for v in np.asarray(x, dtype=float).tolist():
        a, b = lo - v, v - hi
        m = a if a > b else b
        terms.append(0.0 if m < 0.0 else m)
    if not any(terms):
        return 0.0
    with np.errstate(over="ignore"):  # terms past 1e308 sum to inf
        return float(np.sum(terms))


def _penalty_grad(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    # The hinge's slope for each coordinate of a point or a block of rows:
    # -1 below the support, 0 on it and +1 above it, so NaN, which fails
    # both comparisons, gets +1.  Each gradient path adds w * slope once.
    lo, hi = prob.bin_edges[0], prob.bin_edges[-1]
    return np.where(x < lo, -1.0, np.where(x <= hi, 0.0, 1.0))


def inner_lp_max(prob: CoverageProblem, c: np.ndarray) -> np.ndarray:
    """Exact maximizer of <c, theta> over the box-bounded mass simplex.

    In per-bin mass variables m_k = theta_k * width_k the objective is
    sum_k (c_k / width_k) m_k with box bounds and a fixed total, so the
    greedy fill by decreasing rate c_k / width_k is exact (ties broken at
    the lowest index).  The fill runs on Python floats (_lp)."""
    return np.asarray(_lp(prob, c if isinstance(c, list)  # _walk gives c as a list
                          else np.asarray(c, dtype=float).tolist()))


def _lp(prob: CoverageProblem, c: list) -> list:
    """inner_lp_max with c and theta as lists, byte for byte.

    The rate c_k / w_k, its negation and theta_k = m_k / w_k are one IEEE
    operation per entry, as in NumPy, and a stable sort of the negated
    rates is np.argsort's order once none is NaN (argsort puts NaN last);
    a NaN or an inf - inf in their sum leaves the order to np.argsort.
    The fill starts from the lower masses and adds each bin's room in that
    order while some of the total is left."""
    _, wl, _, lo_m, _, room, lo_sum, _ = prob._mass_bounds
    rates = list(map(neg, map(truediv, c, wl)))  # -(c_k / w_k)
    total = sum(rates)
    if total == total:
        order = sorted(range(len(rates)), key=rates.__getitem__)
    else:
        order = np.argsort(rates, kind="stable").tolist()
    resid = prob.total_mass - lo_sum
    masses = list(lo_m)
    for k in order:
        if resid <= 0.0:
            break
        r = room[k]
        step = resid if resid < r else r  # min(r, resid)
        masses[k] += step
        resid -= step
    return list(map(truediv, masses, wl))


# CoverageOracle.sample_gradients takes the block path once len(points) *
# (N + K) reaches _BLOCK_MIN.  Against the per-point walk, on seeded
# bundles of m = N + 2 points with K = 2N on a shared 2-core x86 box
# pinned to one core with BLAS on one thread, the block path took 3.4x the
# time at a size of 24, 1.6-1.7x at 72, 1.2x at 105, 0.97-1.0x at 144 and
# 0.54x at 360.
_BLOCK_MIN = 120
# A block holds about a dozen arrays of R * (N + K) segments at once, so
# the rows of a large bundle go in chunks of at most _CHUNK_SEGMENTS
# segments.  For one seeded bundle of N + 2 rows with K = 2N (same box),
# the tracemalloc peak of one block is 0.8, 3.2, 12 and 50 MiB at N = 50,
# 100, 200 and 400; with this cap it is 0.8, 1.7, 1.9 and 2.8 MiB.  At
# N = 400 a bundle took a median of 121 ms, against 199 ms as one block,
# 142 ms at a cap of 8 192 (2.5 MiB) and 117 ms at 32 768 (4.4 MiB).  An
# N = 50 bundle, 7 800 segments, is still one block.
_CHUNK_SEGMENTS = 16384


def _block_segments(prob: CoverageProblem, mids: np.ndarray):
    """_walk's segments for every row of sorted midpoints, as flat
    arrays in walk order: (row, k, alpha, beta, owner).

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
    del key
    inside_below = inside_below[:, :K + 1].cumsum(axis=1)
    n_cuts = K + 1 + inside_below[:, -1]
    first = np.cumsum(n_cuts) - n_cuts  # each row's first cut
    # Per cut: its value, the bin of the segment it starts, and the owner of
    # the segment it ends.
    T = int(n_cuts.sum())
    value = np.empty(T)
    bin_of = np.empty(T, dtype=np.intp)
    end_owner = np.empty(T, dtype=np.intp)
    at = first[:, None] + np.arange(K + 1) + inside_below
    del inside_below
    value[at] = edges
    bin_of[at] = np.arange(K + 1)
    end_owner[at] = below
    del below
    r, j = np.nonzero(inside)
    at = first[r] + kr[r, j] + (np.cumsum(inside, axis=1) - 1)[r, j]
    del inside
    value[at] = mids[r, j]
    bin_of[at] = kr[r, j] - 1
    end_owner[at] = j
    del at, r, j, kr
    starts = np.ones(T, dtype=bool)
    starts[first + n_cuts - 1] = False
    lo = np.flatnonzero(starts)
    hi = lo + 1
    del starts
    alpha, beta = value[lo], value[hi]
    del value
    owner = end_owner[hi]
    del end_owner
    row = np.repeat(np.arange(R), n_cuts - 1)
    for i in np.flatnonzero((alpha + beta) / 2.0 == alpha).tolist():
        owner[i] = np.searchsorted(mids[row[i]], alpha[i], side="left")
    return row, bin_of[lo], alpha, beta, owner


def _block_lp(prob: CoverageProblem, c: np.ndarray) -> np.ndarray:
    """inner_lp_max on every row of c, byte for byte.

    In fill order, the mass left before each step is one subtract.accumulate
    of the rooms: a step adds its whole room while some mass is left after
    it, the step that exhausts it adds what was left, and later steps add
    nothing."""
    w, _, lo_m, _, room, _, lo_sum, _ = prob._mass_bounds
    resid = prob.total_mass - lo_sum
    R, K = c.shape
    fill = np.argsort(-(c / w), axis=1, kind="stable")
    room_f = room[fill]
    left = np.subtract.accumulate(
        np.concatenate([np.full((R, 1), resid), room_f], axis=1), axis=1)
    positive = left > 0.0
    lo_f = lo_m[fill]
    add = np.where(positive[:, 1:], room_f, left[:, :-1])
    masses = np.empty((R, K))
    masses[np.arange(R)[:, None], fill] = np.where(positive[:, :-1], lo_f + add, lo_f)
    return masses / w


def _hits(sorted_values: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Elementwise: does v equal one of sorted_values?  The first entry not
    # below v equals v exactly when some entry does.  searchsorted orders
    # NaN last, so a NaN v lands past the end and the last entry, read in
    # its place, is not equal to it; an inf v finds an entry that
    # overflowed to inf, as a doubled edge can.
    i = np.searchsorted(sorted_values, v, side="left")
    return sorted_values[np.minimum(i, len(sorted_values) - 1, out=i)] == v


def _block_gradients(prob: CoverageProblem, X: np.ndarray) -> np.ndarray:
    """The gradients of the per-point path at the inner maximizers of the
    leading rows of X that lie in D, byte for byte, computed for all of
    those rows at once, one row each.

    Each per-segment array is dropped once its last reader has run, here
    and in _block_segments, which keeps a block's peak near 0.8 MiB at
    N = 50 instead of 2 MiB; without these dels the solver ran 16% fewer
    iterations per second at N = 50.  Where the heap grows past the
    allocator's trim threshold, which depends on the process's history,
    the allocator hands the freed top back to the system after every
    bundle, and the next bundle faults it in again."""
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
        return np.empty((0, N))
    X, order, xs = X[:R], order[:R], xs[:R]
    row, k, alpha, beta, owner = _block_segments(prob, sums[:R] / 2.0)
    del sums
    # Each segment's one part goes to its owner's cell among the block's
    # global agent cells.
    at = row * N + owner
    s = xs.ravel()[at]
    cells = (order + np.arange(R)[:, None] * N).ravel()[at]
    bin_cell = row * K + k
    del row, k, owner, at

    # c summed per bin in segment order, as _walk does, then the LP.
    da, db = alpha - s, beta - s
    ha, hb = da * da, db * db
    v = np.where(s <= alpha, hb - ha, np.where(s >= beta, ha - hb, hb + ha))
    del s, alpha, beta, ha, hb
    theta = _block_lp(prob, np.bincount(bin_cell, weights=v, minlength=R * K).reshape(R, K))
    del v

    # Each owner part times theta_k, summed per agent in segment order.
    parts = (2.0 * np.abs(da) - 2.0 * np.abs(db)) * theta.ravel()[bin_cell]
    del da, db, bin_cell
    G = np.bincount(cells, weights=parts, minlength=R * N).reshape(R, N)
    if prob.penalty_enabled:
        G = G + prob.penalty_weight * _penalty_grad(prob, X)
    return G


class CoverageOracle(ProblemOracle):
    """Oracle contract for the coverage family: exact greedy inner LP and
    analytic gradients.

    The oracle keeps no state of its own: each method but ``in_D``, which
    only sorts, makes one ``_walk`` of its point, which gives the sorted
    positions for the D test, c, and the gradient's parts where the method
    reads them; ``objective`` reads both the LP and the value from one
    walk.  ``sample_gradients`` walks a
    small bundle point by point, on Python floats, and evaluates a large
    one as NumPy blocks (see _BLOCK_MIN and _CHUNK_SEGMENTS), with the
    same bytes.  It returns the gradients as one (k, n) array."""

    def __init__(self, prob: CoverageProblem):
        self.prob = prob
        self.dim = prob.n_agents
        self.theta_dim = prob.n_bins

    def _value(self, x: np.ndarray, c: list, theta) -> float:
        if sum(c) < math.inf:  # as every c_k >= 0, each one is finite
            v = float(np.asarray(c) @ np.asarray(theta, dtype=float))
        else:  # far out f is inf or NaN: an inf c_k times theta_k = 0 is NaN
            with np.errstate(over="ignore", invalid="ignore"):
                v = float(np.asarray(c) @ np.asarray(theta, dtype=float))
        if self.prob.penalty_enabled:
            v += self.prob.penalty_weight * penalty(self.prob, x)
        return v

    def sample_gradients(self, points):
        width = self.dim + self.theta_dim
        if len(points) * width < _BLOCK_MIN:
            rows = []
            for x in points:
                parts = []
                xs, c = _walk(self.prob, x, parts)
                if not _smooth(self.prob, xs):
                    break
                rows.append(_sum_parts(parts, _lp(self.prob, c), self.dim))
            G = np.array(rows).reshape(len(rows), self.dim)
            if self.prob.penalty_enabled:
                X = np.asarray(points[:len(rows)], dtype=float).reshape(G.shape)
                G = G + self.prob.penalty_weight * _penalty_grad(self.prob, X)
            return G
        step = max(1, _CHUNK_SEGMENTS // width)
        out = []
        # Far out (|x| about 1e154 and more) c overflows to inf or NaN, which
        # the walk's Python floats give without a warning, and so does this.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(points), step):  # rows are independent
                chunk = points[i:i + step]
                out.append(_block_gradients(self.prob, np.asarray(chunk, dtype=float)))
                if len(out[-1]) < len(chunk):  # it met a point outside D
                    break
        return out[0] if len(out) == 1 else np.concatenate(out)

    def objective(self, x):
        """eval_F(x, inner_max(x)) from one walk."""
        x = np.asarray(x, dtype=float)
        c = _walk(self.prob, x)[1]
        return self._value(x, c, inner_lp_max(self.prob, c))

    def eval_F(self, x, theta):
        x = np.asarray(x, dtype=float)
        return self._value(x, _walk(self.prob, x)[1], theta)

    def grad_x_F(self, x, theta):
        """The gradient of <c, theta> (+ weighted penalty), on D."""
        x = np.asarray(x, dtype=float)
        parts = []
        xs, _ = _walk(self.prob, x, parts)
        if not _smooth(self.prob, xs):
            raise ValueError("gradient undefined: x lies on an excluded hyperplane")
        g = np.asarray(_sum_parts(parts, np.asarray(theta, dtype=float).tolist(), self.dim))
        if self.prob.penalty_enabled:
            g = g + self.prob.penalty_weight * _penalty_grad(self.prob, x)
        return g

    def inner_max(self, x):
        return inner_lp_max(self.prob, _walk(self.prob, x)[1])

    def in_D(self, x):
        # The D test reads only the sorted positions: x sorted as _walk sorts it.
        return _smooth(self.prob, sorted(np.asarray(x, dtype=float).tolist()))


def make_coverage_oracle(prob: CoverageProblem) -> CoverageOracle:
    return CoverageOracle(prob)
