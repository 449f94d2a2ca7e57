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
import threading
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
        lo_sum, hi_sum = self._mass_bounds[3:]
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
    def _support_cuts(self):
        return np.array([self.bin_edges[0], np.nextafter(self.bin_edges[-1], math.inf)])

    @cached_property
    def _edge_arrays(self):
        # The sorted edges and doubled edges, for the block path's D test.
        e = np.asarray(self.bin_edges)
        return e, 2.0 * e

    @cached_property
    def _mass_bounds(self):
        # For the LPs: the widths (read-only, as every call shares them),
        # the lower bin masses and the room above them as lists, and the
        # sums of the lower and upper bin masses, which __post_init__ checks.
        w = self.widths
        w.flags.writeable = False
        lo_m = np.asarray(self.theta_lower) * w
        hi_m = np.asarray(self.theta_upper) * w
        return (w, lo_m.tolist(), (hi_m - lo_m).tolist(),
                float(lo_m.sum()), float(hi_m.sum()))

    @cached_property
    def _width_list(self):
        # The widths as a list, for the list LP.
        return self.widths.tolist()


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


def _cost(xs, segments, n_bins: int) -> list:
    # The per-bin cost c as a list, with F(x, theta) = <c, theta>: c_k sums,
    # over the segments of bin k, the integral of 2|s - y| over
    # [alpha, beta], by position of the owner s.
    c = [0.0] * n_bins
    for k, alpha, beta, owner, _a, _b in segments:
        s = xs[owner]
        da, db = alpha - s, beta - s
        ha, hb = da * da, db * db  # not ** 2: libm pow, which NumPy cannot repeat
        c[k] += hb - ha if s <= alpha else ha - hb if s >= beta else hb + ha
    return c


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


def _gradient(order, xs, segments, th: list) -> list:
    # The gradient of <c, theta> in the agents as a list, for theta as a
    # list.  Each segment integral of 2|s - y| over [alpha, beta] has
    # partials 2|beta - s| in beta and -2|alpha - s| in alpha, and, being
    # shift invariant, their negated sum in the owner s.  A midpoint endpoint moves half with each of its two
    # neighbouring agents.  Each part times theta_k is added to its agent in
    # segment order: the owner, the two agents of a midpoint alpha, then
    # those of a midpoint beta.
    g = [0.0] * len(xs)
    for k, alpha, beta, owner, a_idx, b_idx in segments:
        s, t = xs[owner], th[k]
        pa, pb = 2.0 * abs(alpha - s), 2.0 * abs(beta - s)
        g[order[owner]] += (pa - pb) * t
        if a_idx >= 0:
            d = (0.5 * -pa) * t
            g[order[a_idx]] += d
            g[order[a_idx + 1]] += d
        if b_idx >= 0:
            d = (0.5 * pb) * t
            g[order[b_idx]] += d
            g[order[b_idx + 1]] += d
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


_SLOPES = np.array([-1.0, 0.0, 1.0])


def _penalty_grad(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    # The hinge's slope for each coordinate of a point or a block of rows:
    # -1 below the support, +1 above it and 0 on it, from one search among
    # the first edge and the float just above the last.
    return _SLOPES[np.searchsorted(prob._support_cuts, x, side="right")]


def _add_penalty(prob: CoverageProblem, g: list, x) -> list:
    # g + penalty_weight * _penalty_grad(prob, x) on lists, byte for byte:
    # NaN, which searchsorted puts last, gets the slope +1 there and here.
    lo, hi, wt = prob.bin_edges[0], prob.bin_edges[-1], prob.penalty_weight
    return [gi + wt * (-1.0 if v < lo else 0.0 if v <= hi else 1.0)
            for gi, v in zip(g, np.asarray(x, dtype=float).tolist())]


def inner_lp_max(prob: CoverageProblem, c: np.ndarray) -> np.ndarray:
    """Exact maximizer of <c, theta> over the box-bounded mass simplex.

    In per-bin mass variables m_k = theta_k * width_k the objective is
    sum_k (c_k / width_k) m_k with box bounds and a fixed total, so the
    greedy fill by decreasing rate c_k / width_k is exact (ties broken at
    the lowest index).  Up to _LP_LIST_MAX bins the fill runs on Python
    floats (_lp), and above it on arrays, with the same bytes."""
    if len(c) <= _LP_LIST_MAX:  # _cost gives c as a list
        return np.asarray(_lp(prob, c if isinstance(c, list)
                              else np.asarray(c, dtype=float).tolist()))
    c = np.asarray(c, dtype=float)
    w = prob._mass_bounds[0]
    return np.asarray(_fill(prob, np.argsort(-(c / w), kind="stable").tolist())) / w


def _fill(prob: CoverageProblem, order) -> list:
    # The bin masses of the greedy fill in the given order: the lower
    # masses, then each bin's room while some of the total is left.
    _, lo_m, room, lo_sum, _ = prob._mass_bounds
    resid = prob.total_mass - lo_sum
    masses = list(lo_m)
    for k in order:
        if resid <= 0.0:
            break
        r = room[k]
        step = resid if resid < r else r  # min(r, resid)
        masses[k] += step
        resid -= step
    return masses


# Up to _LP_LIST_MAX bins, inner_lp_max takes the list LP and _lp sorts
# the fill order in Python; above it, both sort with np.argsort, and
# inner_lp_max fills on arrays.  From c as a list to theta as an array, on
# seeded c on a shared 2-core x86 box pinned to one core, the list LP took
# 0.5x the time of the array LP at K = 2, 0.7x at 6, 0.85x at 12, about the
# same at 20, 1.1x at 32 and 1.65x at 100.
_LP_LIST_MAX = 20


def _lp(prob: CoverageProblem, c: list) -> list:
    """inner_lp_max with c and theta as lists, byte for byte.

    The rate c_k / w_k, its negation and theta_k = m_k / w_k are one IEEE
    operation per entry, as in NumPy, and a stable sort of the negated
    rates is np.argsort's order once none is NaN (argsort puts NaN last);
    a NaN or an inf - inf in their sum, or more than _LP_LIST_MAX bins,
    leaves the order to np.argsort."""
    wl = prob._width_list
    rates = list(map(neg, map(truediv, c, wl)))  # -(c_k / w_k)
    total = sum(rates)
    if total == total and len(rates) <= _LP_LIST_MAX:
        order = sorted(range(len(rates)), key=rates.__getitem__)
    else:
        order = np.argsort(rates, kind="stable").tolist()
    return list(map(truediv, _fill(prob, order), wl))


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
# the tracemalloc peak of one block is 0.8, 3.1, 12 and 49 MiB at N = 50,
# 100, 200 and 400 once the thread's gather buffers exist; with this cap
# it is 0.8, 1.6, 1.9 and 2.7 MiB (1.4 to 3.9 MiB on a thread's first
# bundle, which makes them).  At N = 400 a bundle took a median of 121 ms,
# against 199 ms as one block, 142 ms at a cap of 8 192 (2.5 MiB) and 117
# ms at 32 768 (4.4 MiB).  An N = 50 bundle, 7 800 segments, is still one
# block.
_CHUNK_SEGMENTS = 16384


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
    del key
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
    del inside_below
    value[at] = edges
    bin_of[at] = np.arange(K + 1)
    end_owner[at] = below
    del below
    r, j = np.nonzero(inside)
    at = first[r] + kr[r, j] + (np.cumsum(inside, axis=1) - 1)[r, j]
    del inside
    value[at] = mids[r, j]
    mid_idx[at] = j
    bin_of[at] = kr[r, j] - 1
    end_owner[at] = j
    del at, r, j, kr
    starts = np.ones(T, dtype=bool)
    starts[first + n_cuts - 1] = False
    lo = np.flatnonzero(starts)
    del starts
    alpha, beta = value[lo], value[lo + 1]
    del value
    owner = end_owner[lo + 1]
    del end_owner
    row = np.repeat(np.arange(R), n_cuts - 1)
    for i in np.flatnonzero((alpha + beta) / 2.0 == alpha).tolist():
        owner[i] = np.searchsorted(mids[row[i]], alpha[i], side="left")
    return row, bin_of[lo], alpha, beta, owner, mid_idx[lo], mid_idx[lo + 1]


def _block_lp(prob: CoverageProblem, c: np.ndarray) -> np.ndarray:
    """inner_lp_max on every row of c, byte for byte.

    In fill order, the mass left before each step is one subtract.accumulate
    of the rooms: a step adds its whole room while some mass is left after
    it, the step that exhausts it adds what was left, and later steps add
    nothing."""
    w, lo_m, room, lo_sum, _ = prob._mass_bounds
    resid = prob.total_mass - lo_sum
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


# The (S, 5) gather arrays are a block's largest, 306 KB each at N = 50:
# made fresh for every bundle, each pair was mapped and unmapped by the
# allocator and its pages faulted in anew.  So each thread keeps one pair,
# of at most 5 * max(_CHUNK_SEGMENTS, N + K) entries each.
_gather = threading.local()


def _gather_buffers(S: int):
    """This thread's (S, 5) cell and part arrays for _block_gradients' last
    bincount, as views of one pair of buffers that grows to the largest S
    met.  Every entry of a view is written before it is read, and no view
    is kept past the call."""
    bufs = getattr(_gather, "bufs", None)
    if bufs is None or len(bufs[0]) < S:
        bufs = _gather.bufs = (np.empty((S, 5), dtype=np.intp), np.empty((S, 5)))
    return bufs[0][:S], bufs[1][:S]


def _block_gradients(prob: CoverageProblem, X: np.ndarray) -> np.ndarray:
    """The gradients of the per-point path at the inner maximizers of the
    leading rows of X that lie in D, byte for byte, computed for all of
    those rows at once, one row each.

    Each per-segment array is dropped once its last reader has run, here
    and in _block_segments, which keeps a block's peak near 0.8 MiB at
    N = 50 instead of 2 MiB.  Where the heap grows past the allocator's
    trim threshold, which depends on the process's history, the allocator
    hands the freed top back to the system after every bundle, and the
    next bundle faults it in again."""
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
    row, k, alpha, beta, owner, a_idx, b_idx = _block_segments(prob, sums[:R] / 2.0)
    del sums
    # The cells of each segment's parts, in _gradient's order: its owner,
    # the two agents of a midpoint alpha, then those of a midpoint beta.
    cells, parts = _gather_buffers(len(row))
    agent, base = order.ravel(), row * N
    s = xs.ravel()[base + owner]
    for col, i in enumerate((owner, a_idx, a_idx + 1, b_idx, b_idx + 1)):
        cells[:, col] = base + agent[base + i]
    has_a, has_b, bin_cell = a_idx >= 0, b_idx >= 0, row * K + k
    del row, k, owner, a_idx, b_idx, base, i

    # c summed per bin in segment order, as _cost does, then the LP.
    da, db = alpha - s, beta - s
    ha, hb = da * da, db * db
    v = np.where(s <= alpha, hb - ha, np.where(s >= beta, ha - hb, hb + ha))
    del s, alpha, beta, ha, hb
    theta = _block_lp(prob, np.bincount(bin_cell, weights=v, minlength=R * K).reshape(R, K))
    del v

    # The parts of each segment times theta_k.  A missing midpoint adds
    # +0.0, which leaves every sum as it is, as no sum is ever -0.0.
    t = theta.ravel()[bin_cell]
    del bin_cell
    pa, pb = 2.0 * np.abs(da), 2.0 * np.abs(db)
    del da, db
    parts[:, 0] = (pa - pb) * t
    parts[:, 1] = parts[:, 2] = np.where(has_a, (0.5 * -pa) * t, 0.0)
    parts[:, 3] = parts[:, 4] = np.where(has_b, (0.5 * pb) * t, 0.0)
    G = np.bincount(cells.ravel(), weights=parts.ravel(), minlength=R * N).reshape(R, N)
    if prob.penalty_enabled:
        G = G + prob.penalty_weight * _penalty_grad(prob, X)
    return G


def _walk(prob: CoverageProblem, x):
    """The per-point gradient at the inner maximizer of x as a list, in one
    pass on Python floats, or None outside D."""
    order, xs, segments = _partition(prob, x)
    if not _smooth(prob, xs):
        return None
    g = _gradient(order, xs, segments, _lp(prob, _cost(xs, segments, prob.n_bins)))
    return _add_penalty(prob, g, x) if prob.penalty_enabled else g


class CoverageOracle(ProblemOracle):
    """Oracle contract for the coverage family: exact greedy inner LP and
    analytic gradients.

    The oracle keeps no state of its own: each method builds the partition
    of its point, and ``objective`` builds it once for the LP and the
    value.  ``sample_gradients`` evaluates a small bundle point by point,
    each in one pass on Python floats, and a large one as NumPy blocks (see
    _BLOCK_MIN and _CHUNK_SEGMENTS), with the same bytes.  It returns the
    gradients as one (k, n) array."""

    def __init__(self, prob: CoverageProblem):
        self.prob = prob
        self.dim = prob.n_agents
        self.theta_dim = prob.n_bins

    def _cost_at(self, x: np.ndarray) -> list:
        _, xs, segments = _partition(self.prob, x)
        return _cost(xs, segments, self.prob.n_bins)

    def _value(self, x: np.ndarray, c: list, theta) -> float:
        v = float(np.asarray(c) @ np.asarray(theta, dtype=float))
        if self.prob.penalty_enabled:
            v += self.prob.penalty_weight * penalty(self.prob, x)
        return v

    def sample_gradients(self, points):
        width = self.dim + self.theta_dim
        if len(points) * width < _BLOCK_MIN:
            rows = []
            for x in points:
                g = _walk(self.prob, x)
                if g is None:
                    break
                rows.append(g)
            return np.array(rows).reshape(len(rows), self.dim)
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
        """eval_F(x, inner_max(x)) from one partition."""
        x = np.asarray(x, dtype=float)
        c = self._cost_at(x)
        return self._value(x, c, inner_lp_max(self.prob, c))

    def eval_F(self, x, theta):
        x = np.asarray(x, dtype=float)
        return self._value(x, self._cost_at(x), theta)

    def grad_x_F(self, x, theta):
        """The gradient of <c, theta> (+ weighted penalty), on D."""
        x = np.asarray(x, dtype=float)
        order, xs, segments = _partition(self.prob, x)
        if not _smooth(self.prob, xs):
            raise ValueError("gradient undefined: x lies on an excluded hyperplane")
        g = _gradient(order, xs, segments, np.asarray(theta, dtype=float).tolist())
        if self.prob.penalty_enabled:
            g = _add_penalty(self.prob, g, x)
        return np.asarray(g)

    def inner_max(self, x):
        return inner_lp_max(self.prob, self._cost_at(np.asarray(x, dtype=float)))

    def in_D(self, x):
        return _smooth(self.prob, _partition(self.prob, np.asarray(x, dtype=float))[1])


def make_coverage_oracle(prob: CoverageProblem) -> CoverageOracle:
    return CoverageOracle(prob)
