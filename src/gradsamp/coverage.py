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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import ProblemOracle


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
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bin_edges must be strictly increasing")
        K = len(edges) - 1
        if len(lower) != K or len(upper) != K:
            raise ValueError("theta bounds must have one entry per bin")
        if any(lo < 0.0 or lo > hi for lo, hi in zip(lower, upper)):
            raise ValueError("need 0 <= theta_lower <= theta_upper")
        if self.total_mass <= 0.0:
            raise ValueError("total_mass must be positive")
        w = self.widths
        if (np.dot(lower, w) > self.total_mass + 1e-12
                or np.dot(upper, w) < self.total_mass - 1e-12):
            raise ValueError("mass constraint infeasible for the given bounds")
        if self.penalty_weight <= 0.0:
            raise ValueError("penalty_weight must be positive")

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) - 1

    @property
    def widths(self) -> np.ndarray:
        e = np.asarray(self.bin_edges)
        return e[1:] - e[:-1]


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


def _segments(prob: CoverageProblem, x: np.ndarray):
    """Per-bin segment decomposition of the nearest-agent partition.

    Yields (bin_index, alpha, beta, owner, a_idx, b_idx, order, xs) where
    owner indexes the sorted positions, and a_idx/b_idx are the left
    sorted-agent index of the midpoint an endpoint equals, or -1 when the
    endpoint is a (constant) bin edge.
    """
    order = sorted(range(len(x)), key=x.__getitem__)
    xs = [float(x[i]) for i in order]
    mids = [(xs[i] + xs[i + 1]) / 2.0 for i in range(len(xs) - 1)]
    edges = prob.bin_edges
    for k in range(prob.n_bins):
        a, b = edges[k], edges[k + 1]
        lo = bisect_right(mids, a)
        hi = bisect_left(mids, b)
        cuts = [(a, -1)] + [(mids[j], j) for j in range(lo, hi)] + [(b, -1)]
        for s in range(len(cuts) - 1):
            alpha, a_idx = cuts[s]
            beta, b_idx = cuts[s + 1]
            owner = bisect_left(mids, (alpha + beta) / 2.0)
            yield k, alpha, beta, owner, a_idx, b_idx, order, xs


def _h_value(s: float, alpha: float, beta: float) -> float:
    # Integral of 2|s - y| over [alpha, beta], by position of the owner s.
    if s <= alpha:
        return (beta - s) ** 2 - (alpha - s) ** 2
    if s >= beta:
        return (s - alpha) ** 2 - (s - beta) ** 2
    return (beta - s) ** 2 + (s - alpha) ** 2


def _h_partials(s: float, alpha: float, beta: float) -> Tuple[float, float, float]:
    # (d/ds, d/dalpha, d/dbeta) of the segment integral.
    if s <= alpha:
        return (-2.0 * (beta - s) + 2.0 * (alpha - s),
                -2.0 * (alpha - s), 2.0 * (beta - s))
    if s >= beta:
        return (2.0 * (s - alpha) - 2.0 * (s - beta),
                -2.0 * (s - alpha), 2.0 * (s - beta))
    return (-2.0 * (beta - s) + 2.0 * (s - alpha),
            -2.0 * (s - alpha), 2.0 * (beta - s))


def coverage_c_vector(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    """Per-bin coverage cost c(x): c_k = integral over bin k of twice the
    distance to the nearest agent.  F(x, theta) = <c(x), theta>."""
    c = [0.0] * prob.n_bins
    for k, alpha, beta, owner, _a, _b, _order, xs in _segments(prob, x):
        c[k] += _h_value(xs[owner], alpha, beta)
    return np.asarray(c)


def coverage_c_jacobian(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    """Jacobian dc/dx (n_bins x n_agents), valid on D.

    Differentiates each segment integral through its owner position and
    its midpoint-dependent endpoints (a midpoint moves half with each of
    the two neighbouring agents)."""
    J = np.zeros((prob.n_bins, prob.n_agents))
    for k, alpha, beta, owner, a_idx, b_idx, order, xs in _segments(prob, x):
        ds, da, db = _h_partials(xs[owner], alpha, beta)
        J[k, order[owner]] += ds
        if a_idx >= 0:
            J[k, order[a_idx]] += 0.5 * da
            J[k, order[a_idx + 1]] += 0.5 * da
        if b_idx >= 0:
            J[k, order[b_idx]] += 0.5 * db
            J[k, order[b_idx + 1]] += 0.5 * db
    return J


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
    if not in_D_coverage(prob, x):
        raise ValueError("gradient undefined: x lies on an excluded hyperplane")
    g = coverage_c_jacobian(prob, x).T @ np.asarray(theta, dtype=float)
    if prob.penalty_enabled:
        g = g + prob.penalty_weight * _penalty_grad(prob, x)
    return g


def in_D_coverage(prob: CoverageProblem, x: np.ndarray) -> bool:
    """Exact-comparison membership in the open smooth set D.

    Excluded (measure-zero) hyperplanes: coinciding agents, an agent at a
    bin edge, a midpoint of sorted-adjacent agents at a bin edge, and --
    with the penalty on -- an agent at a support endpoint (already a bin
    edge)."""
    xs = sorted(float(v) for v in x)
    edges = prob.bin_edges
    for i in range(len(xs) - 1):
        if xs[i] == xs[i + 1]:
            return False
        s = xs[i] + xs[i + 1]
        for e in edges:
            if s == 2.0 * e:
                return False
    for xi in xs:
        for e in edges:
            if xi == e:
                return False
    return True


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
