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


def theta_feasible(prob: CoverageProblem, theta: np.ndarray,
                   tol: float = 1e-9) -> bool:
    """Box membership plus the total-mass equality, within tol."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (prob.n_bins,):
        return False
    lo = np.asarray(prob.theta_lower)
    hi = np.asarray(prob.theta_upper)
    if np.any(theta < lo - tol) or np.any(theta > hi + tol):
        return False
    return abs(float(theta @ prob.widths) - prob.total_mass) <= tol


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
    # c_k sums, over the segments of bin k, the integral of 2|s - y| over
    # [alpha, beta], by position of the owner s.
    c = [0.0] * n_bins
    for k, alpha, beta, owner, _a, _b in segments:
        s = xs[owner]
        ha, hb = (alpha - s) ** 2, (beta - s) ** 2
        c[k] += hb - ha if s <= alpha else ha - hb if s >= beta else hb + ha
    return np.asarray(c)


def _smooth(prob: CoverageProblem, xs) -> bool:
    # Membership in D of the sorted positions xs; see in_D_coverage.
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


def coverage_c_vector(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    """Per-bin coverage cost c(x): c_k = integral over bin k of twice the
    distance to the nearest agent.  F(x, theta) = <c(x), theta>."""
    _, xs, segments = _partition(prob, x)
    return _cost(xs, segments, prob.n_bins)


def coverage_c_jacobian(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    """Jacobian dc/dx (n_bins x n_agents), valid on D."""
    return _jacobian(prob, *_partition(prob, x))


def penalty(prob: CoverageProblem, x: np.ndarray) -> float:
    """Hinge distance of each agent to the support [first edge, last edge]."""
    x = np.asarray(x, dtype=float)
    lo, hi = prob.bin_edges[0], prob.bin_edges[-1]
    return float(np.sum(np.maximum(0.0, np.maximum(lo - x, x - hi))))


def _penalty_grad(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    lo, hi = prob.bin_edges[0], prob.bin_edges[-1]
    return np.where(x < lo, -1.0, 0.0) + np.where(x > hi, 1.0, 0.0)


def _gradient(prob: CoverageProblem, x: np.ndarray, theta, order, xs,
              segments, smooth: bool) -> np.ndarray:
    # The gradient of <c, theta> (+ weighted penalty) from x's partition
    # and its membership in D.
    if not smooth:
        raise ValueError("gradient undefined: x lies on an excluded hyperplane")
    g = _jacobian(prob, order, xs, segments).T @ np.asarray(theta, dtype=float)
    if prob.penalty_enabled:
        g = g + prob.penalty_weight * _penalty_grad(prob, x)
    return g


def coverage_grad_x(prob: CoverageProblem, x: np.ndarray,
                    theta: np.ndarray) -> np.ndarray:
    """Analytic gradient of <c(x), theta> (+ weighted penalty), on D."""
    x = np.asarray(x, dtype=float)
    order, xs, segments = _partition(prob, x)
    return _gradient(prob, x, theta, order, xs, segments, _smooth(prob, xs))


def in_D_coverage(prob: CoverageProblem, x: np.ndarray) -> bool:
    """Exact-comparison membership in the open smooth set D.

    Excluded (measure-zero) hyperplanes: coinciding agents, an agent at a
    bin edge, a midpoint of sorted-adjacent agents at a bin edge, and --
    with the penalty on -- an agent at a support endpoint (already a bin
    edge)."""
    return _smooth(prob, sorted(np.asarray(x, dtype=float).tolist()))


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


class CoverageOracle(ProblemOracle):
    """Oracle contract for the coverage family: exact greedy inner LP and
    analytic gradients.

    The partition, c and D membership of the last point asked about are
    kept, so a bundle sample's in_D, inner_max and grad_x_F, or a
    line-search trial's inner_max and eval_F, build the partition once.
    The memo is read and replaced as one tuple, so concurrent callers never
    get another caller's point."""

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

    def eval_F(self, x, theta):
        x = np.asarray(x, dtype=float)
        v = float(self._at(x)[3] @ np.asarray(theta, dtype=float))
        if self.prob.penalty_enabled:
            v += self.prob.penalty_weight * penalty(self.prob, x)
        return v

    def grad_x_F(self, x, theta):
        x = np.asarray(x, dtype=float)
        order, xs, segments, _, smooth = self._at(x)
        return _gradient(self.prob, x, theta, order, xs, segments, smooth)

    def inner_max(self, x):
        return inner_lp_max(self.prob, self._at(np.asarray(x, dtype=float))[3])

    def in_D(self, x):
        return self._at(np.asarray(x, dtype=float))[4]


def make_coverage_oracle(prob: CoverageProblem) -> CoverageOracle:
    return CoverageOracle(prob)
