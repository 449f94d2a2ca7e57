"""Independent reference oracles that tests compare the library against.

- ``min_norm_bruteforce``: derivative-free lattice search for the
  minimum-norm point of a convex hull (checks Wolfe's method).
- ``two_agent_cost``: closed-form worst-case coverage cost of the
  two-agent, two-bin problem (checks the greedy inner LP).
- ``excluded_hyperplanes``: the coverage smooth-set D's defining
  hyperplanes that a point lies on, in exact rational arithmetic (checks
  ``in_D_coverage``).
- ``reference_c_vector``, ``reference_c_jacobian``, ``reference_grad_x``
  and ``reference_lp_max``: the coverage cost, its Jacobian, the gradient
  and the greedy inner LP as first written, with the partition found by
  bisection per bin and per segment, the Jacobian filled as a list of
  lists, and the LP on NumPy scalars (checks, byte for byte, the
  library's single-walk partition, scattered Jacobian and list-based LP).
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from gradsamp import CoverageProblem, coverage_c_vector, in_D_coverage


def _compositions(total: int, parts: int):
    """Yield all nonnegative integer vectors of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _window_eval(P: np.ndarray, denom: int, centers: np.ndarray,
                 width: int) -> Tuple[np.ndarray, float]:
    """Best lattice point (denominator ``denom``) within an L-inf window of
    ``width`` lattice units around ``centers`` (float simplex weights)."""
    m = P.shape[0]
    c = np.rint(centers * denom).astype(int)
    axes = []
    for i in range(m - 1):
        lo = max(0, c[i] - width)
        hi = min(denom, c[i] + width)
        axes.append(np.arange(lo, hi + 1))
    if m == 1:
        lam = np.array([1.0])
        return lam, float(np.linalg.norm(lam @ P))
    grids = np.meshgrid(*axes, indexing="ij")
    head = np.stack([gg.ravel() for gg in grids], axis=1)
    last = denom - head.sum(axis=1)
    ok = (last >= max(0, c[m - 1] - width)) & (last <= min(denom, c[m - 1] + width))
    head = head[ok]
    last = last[ok]
    if head.shape[0] == 0:
        return centers, float(np.linalg.norm(centers @ P))
    lam = np.column_stack([head, last]).astype(float) / denom
    vals = np.linalg.norm(lam @ P, axis=1)
    b = int(np.argmin(vals))
    return lam[b], float(vals[b])


def min_norm_bruteforce(points: Sequence[np.ndarray],
                        grid_resolution: float) -> np.ndarray:
    """Derivative-free lattice search for the hull's minimum-norm point.

    Minimizes ||sum_i lam_i p_i|| over simplex weights on a lattice of
    spacing ``grid_resolution``.  Small lattices are enumerated
    exhaustively; larger ones (the node count grows combinatorially in the
    point count) are searched by exhaustive coarse enumeration followed by
    windowed refinement down to the requested spacing, which the convexity
    of the objective makes reliable in practice.  Intended as an
    independent test oracle, never called by the solver.
    """
    m = len(points)
    if m == 0:
        raise ValueError("empty point set")
    if m > 6:
        raise ValueError("brute force supports at most 6 points")
    if not (0.0 < grid_resolution <= 0.1):
        raise ValueError("grid_resolution must lie in (0, 0.1]")
    P = np.asarray(points, dtype=float)
    denom = max(1, int(round(1.0 / grid_resolution)))

    n_nodes = math.comb(denom + m - 1, m - 1)
    if n_nodes <= 60_000:
        lam = np.array(list(_compositions(denom, m)), dtype=float) / denom
        vals = np.linalg.norm(lam @ P, axis=1)
        best = lam[int(np.argmin(vals))]
        return best @ P

    # Coarse exhaustive pass, then refine around the incumbent.
    coarse = 8
    lam = np.array(list(_compositions(coarse, m)), dtype=float) / coarse
    vals = np.linalg.norm(lam @ P, axis=1)
    best = lam[int(np.argmin(vals))]
    d = coarse
    while d < denom:
        d = min(denom, d * 4)
        best, _ = _window_eval(P, d, best, width=12)
    return best @ P


def two_agent_cost(theta1_bounds: Tuple[float, float],
                   theta2_bounds: Tuple[float, float],
                   x: np.ndarray) -> float:
    """Closed-form worst-case cost for two agents on [0,4] with two
    width-2 bins (bin heights sum to 1/2).

    Valid for x in [0,2] x [2,4]; agrees with the generic LP pipeline."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError("x must have two coordinates")
    if not (0.0 <= x[0] <= 2.0 and 2.0 <= x[1] <= 4.0):
        raise ValueError("x must lie in [0,2] x [2,4]")
    t1lo, t1hi = theta1_bounds
    t2lo, t2hi = theta2_bounds
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(t1lo, t2lo), theta_upper=(t1hi, t2hi))
    p1, p2 = coverage_c_vector(prob, x)
    if p1 <= p2:
        th1 = max(t1lo, 0.5 - t2hi)
    else:
        th1 = min(t1hi, 0.5 - t2lo)
    return th1 * p1 + (0.5 - th1) * p2


def excluded_hyperplanes(prob: CoverageProblem, x: np.ndarray) -> set:
    """Kinds of excluded hyperplane that x lies on; x is in D iff none.

    Straight from the definition of D, without sorting: two agents
    coincide; an agent sits on a bin edge; or the midpoint of two agents
    with no agent strictly between them sits on a bin edge.  Compared in
    exact rationals, so the library's float test is checked, not copied.
    """
    xs = [Fraction(float(v)) for v in x]
    edges = [Fraction(e) for e in prob.bin_edges]
    kinds = set()
    for i, a in enumerate(xs):
        if a in edges:
            kinds.add("agent_on_edge")
        for j, b in enumerate(xs):
            if i == j:
                continue
            if a == b:
                kinds.add("coincident")
            elif a < b and not any(a < c < b for c in xs) and (a + b) / 2 in edges:
                kinds.add("midpoint_on_edge")
    return kinds


def _reference_partition(prob: CoverageProblem, x: np.ndarray):
    # Segments (k, alpha, beta, owner, a_idx, b_idx) as in the library: the
    # midpoints strictly inside each bin cut it, and the owner is the
    # sorted agent whose cell holds the segment's centre.
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


def reference_c_vector(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    _, xs, segments = _reference_partition(prob, x)
    c = [0.0] * prob.n_bins
    for k, alpha, beta, owner, _a, _b in segments:
        s = xs[owner]
        ha, hb = (alpha - s) ** 2, (beta - s) ** 2
        c[k] += hb - ha if s <= alpha else ha - hb if s >= beta else hb + ha
    return np.asarray(c)


def reference_c_jacobian(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    order, xs, segments = _reference_partition(prob, x)
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


def reference_grad_x(prob: CoverageProblem, x: np.ndarray,
                     theta: np.ndarray) -> np.ndarray:
    """Gradient of <c, theta> (+ weighted penalty); ValueError off D."""
    x = np.asarray(x, dtype=float)
    if not in_D_coverage(prob, x):
        raise ValueError("gradient undefined: x lies on an excluded hyperplane")
    g = reference_c_jacobian(prob, x).T @ np.asarray(theta, dtype=float)
    if prob.penalty_enabled:
        lo, hi = prob.bin_edges[0], prob.bin_edges[-1]
        g = g + prob.penalty_weight * (np.where(x < lo, -1.0, 0.0)
                                       + np.where(x > hi, 1.0, 0.0))
    return g


def reference_lp_max(prob: CoverageProblem, c: np.ndarray) -> np.ndarray:
    """Greedy fill of the bin masses by decreasing c_k / width_k."""
    c = np.asarray(c, dtype=float)
    w = prob.widths
    lo_m = np.asarray(prob.theta_lower) * w
    hi_m = np.asarray(prob.theta_upper) * w
    resid = prob.total_mass - float(lo_m.sum())
    if resid < -1e-9 or prob.total_mass > float(hi_m.sum()) + 1e-9:
        raise ValueError("infeasible mass bounds")
    masses = lo_m.copy()
    for k in np.argsort(-(c / w), kind="stable"):
        if resid <= 0.0:
            break
        add = min(hi_m[k] - lo_m[k], resid)
        masses[k] += add
        resid -= add
    return masses / w
