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
    """
    xl = np.asarray(x, dtype=float).tolist()
    order = sorted(range(len(xl)), key=xl.__getitem__)
    xs = [xl[i] for i in order]
    mids = [(u + v) / 2.0 for u, v in zip(xs, xs[1:])]
    edges = prob.bin_edges
    segments = []
    for k in range(prob.n_bins):
        a, b = edges[k], edges[k + 1]
        inner = range(bisect_right(mids, a), bisect_left(mids, b))
        cuts = [(a, -1)] + [(mids[j], j) for j in inner] + [(b, -1)]
        for (alpha, a_idx), (beta, b_idx) in zip(cuts, cuts[1:]):
            owner = bisect_left(mids, (alpha + beta) / 2.0)
            segments.append((k, alpha, beta, owner, a_idx, b_idx))
    return order, xs, segments


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
    # moves half with each of its two neighbouring agents.
    J = [[0.0] * prob.n_agents for _ in range(prob.n_bins)]
    for k, alpha, beta, owner, a_idx, b_idx in segments:
        s = xs[owner]
        pa, pb = 2.0 * abs(alpha - s), 2.0 * abs(beta - s)
        row = J[k]
        row[order[owner]] += pa - pb
        if a_idx >= 0:
            row[order[a_idx]] += 0.5 * -pa
            row[order[a_idx + 1]] += 0.5 * -pa
        if b_idx >= 0:
            row[order[b_idx]] += 0.5 * pb
            row[order[b_idx + 1]] += 0.5 * pb
    return np.array(J)


def coverage_c_vector(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    """Per-bin coverage cost c(x): c_k = integral over bin k of twice the
    distance to the nearest agent.  F(x, theta) = <c(x), theta>."""
    _, xs, segments = _partition(prob, x)
    c = [0.0] * prob.n_bins
    for k, alpha, beta, owner, _a, _b in segments:
        # Integral of 2|s - y| over [alpha, beta], by position of the owner s.
        s = xs[owner]
        ha, hb = (alpha - s) ** 2, (beta - s) ** 2
        c[k] += hb - ha if s <= alpha else ha - hb if s >= beta else hb + ha
    return np.asarray(c)


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


def coverage_grad_x(prob: CoverageProblem, x: np.ndarray,
                    theta: np.ndarray) -> np.ndarray:
    """Analytic gradient of <c(x), theta> (+ weighted penalty), on D."""
    x = np.asarray(x, dtype=float)
    order, xs, segments = _partition(prob, x)
    if not _smooth(prob, xs):
        raise ValueError("gradient undefined: x lies on an excluded hyperplane")
    g = _jacobian(prob, order, xs, segments).T @ np.asarray(theta, dtype=float)
    if prob.penalty_enabled:
        g = g + prob.penalty_weight * _penalty_grad(prob, x)
    return g


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
    w = prob.widths
    lo_m = np.asarray(prob.theta_lower) * w
    hi_m = np.asarray(prob.theta_upper) * w
    resid = prob.total_mass - float(lo_m.sum())
    if resid < -1e-9 or prob.total_mass > float(hi_m.sum()) + 1e-9:
        raise ValueError("infeasible mass bounds")
    masses = lo_m.copy()
    order = np.argsort(-(c / w), kind="stable")
    for k in order:
        if resid <= 0.0:
            break
        add = min(hi_m[k] - lo_m[k], resid)
        masses[k] += add
        resid -= add
    return masses / w


class CoverageOracle(ProblemOracle):
    """Oracle contract for the coverage family: exact greedy inner LP and
    analytic gradients."""

    exact_inner = True

    def __init__(self, prob: CoverageProblem):
        self.prob = prob
        self.dim = prob.n_agents
        self.theta_dim = prob.n_bins

    def eval_F(self, x, theta):
        x = np.asarray(x, dtype=float)
        v = float(coverage_c_vector(self.prob, x) @ np.asarray(theta, dtype=float))
        if self.prob.penalty_enabled:
            v += self.prob.penalty_weight * penalty(self.prob, x)
        return v

    def grad_x_F(self, x, theta):
        return coverage_grad_x(self.prob, np.asarray(x, dtype=float),
                               np.asarray(theta, dtype=float))

    def inner_max(self, x, dist_tol):
        c = coverage_c_vector(self.prob, np.asarray(x, dtype=float))
        return inner_lp_max(self.prob, c), 0.0

    def in_D(self, x):
        return in_D_coverage(self.prob, np.asarray(x, dtype=float))


def make_coverage_oracle(prob: CoverageProblem) -> CoverageOracle:
    return CoverageOracle(prob)
