"""Independent reference oracles that tests compare the library against.

- ``min_norm_bruteforce``: derivative-free lattice search for the
  minimum-norm point of a convex hull (checks Wolfe's method).
- ``abs_value_problem``: f(x) = |x| as a finite max of two pieces.
- ``two_agent_cost``: closed-form worst-case coverage cost of the
  two-agent, two-bin problem (checks the partition, the cost and the
  greedy inner LP).
- ``excluded_hyperplanes``: the coverage smooth-set D's defining
  hyperplanes that a point lies on, in exact rational arithmetic (checks
  ``CoverageOracle.in_D``).
- ``theta_feasible``: box membership and the total-mass equality of a
  coverage density (checks the greedy inner LP's answers).
- ``reference_c_vector``, ``reference_grad_x`` and ``reference_lp_max``:
  the coverage cost, the gradient and the greedy inner LP, with the
  partition found by bisection per bin and per segment, the gradient
  summed per segment on NumPy scalars, and the LP on NumPy scalars with
  no feasibility check of its own (``CoverageProblem`` refuses infeasible
  mass bounds); they check, byte for byte, the library's single-walk
  partition, Python-float gradient sum and list-based LP.
- ``midpoint_grad_x``: the coverage gradient with the Leibniz terms of
  the moving midpoints, which cancel on D, still summed (checks that the
  library's owner-only gradient stays within a rounding bound of it).
- ``reference_piece``: the value and gradient of one finite-max piece by
  its formula, one NumPy call per term (checks, byte for byte, the stacked
  pass over all pieces).
- ``reference_penalty``: the coverage hinge penalty as one NumPy formula
  (checks, byte for byte, the hinge terms formed on Python floats).
- ``reference_ball_points``: ball samples from given draws, with the
  radius re-checked on every row (checks, byte for byte, ``sample_ball``,
  which skips the re-check where no row can round past the sphere).
- ``reference_min_norm_point`` and ``reference_wolfe``: the min-norm QP
  with each product outside Wolfe's loop through ``@`` and every major
  cycle's dots from one product with the Gram matrix (check, byte for
  byte, ``min_norm_point`` and ``_wolfe``, whose first cycle reads the
  start point's Gram row and whose products go through ``ndarray.dot``).
- ``reference_trace_csv`` and ``reference_trace_json``: the trace files as
  ``f"{v:.17g}"`` per value and as one ``json.dumps(payload)`` line write
  them (check, byte for byte, the CLI's writers).
- ``bump_d2``: the stress bump's second derivative (checks, with the
  library's ``bump_d1``, the literal ``BUMP_DERIVATIVE_BOUND`` on a grid,
  and the scaled-bump bounds per level).
"""

import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import mul
from typing import List, Sequence, Tuple

import numpy as np

from gradsamp import (CoverageProblem, FiniteMaxProblem, MaxPiece, MinNormResult, Trace,
                      make_coverage_oracle)
from gradsamp.minnorm import (_DROP, _SAFE, _TOL, NonFiniteError, _affine_weights,
                              _extend_factor)


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


def reference_wolfe(G: np.ndarray, max_iter: int):
    """Wolfe's method on the Gram matrix G, each major cycle's dots from
    one product G[:, active] @ lam."""
    diag = G.diagonal().tolist()
    active = [diag.index(min(diag))]
    Gl = {active[0]: G[active[0]].tolist()}
    lam = [1.0]
    L: List[List[float]] = []
    z: List[float] = []
    _extend_factor(L, z, Gl, active)
    it = 0
    while True:
        it += 1
        if it > max_iter:
            return active, lam, it, True
        dots = G.take(active, axis=0).T.dot(lam).tolist()
        gsq = sum(map(mul, [dots[a] for a in active], lam))
        low = min(dots)
        if low >= gsq - _TOL * (1.0 + gsq):
            break
        j = dots.index(low)
        if j in active:
            break
        active.append(j)
        if j not in Gl:
            Gl[j] = G[j].tolist()
        if not _extend_factor(L, z, Gl, active):
            active.pop()
            break
        lam.append(0.0)
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
            first = next((n for n, i in enumerate(keep) if n != i), len(keep))
            del L[first:], z[first:]
            if not _extend_factor(L, z, Gl, active):
                return active, lam, it, False
            if len(active) == 1:
                break
    return active, lam, it, False


def _reference_gap(Q: np.ndarray, g: np.ndarray, gg: float) -> float:
    return max(0.0, gg - min((Q @ g).tolist()))


def reference_min_norm_point(points: Sequence[np.ndarray]) -> MinNormResult:
    """Minimum-norm point of conv(points): bitwise duplicates merged, the
    power-of-two scale guard, Wolfe's method, the normalised weights and
    one refinement step, each product through ``@``."""
    if len(points) == 0:
        raise ValueError("empty point set")
    P = np.ascontiguousarray(points, dtype=float)
    if P.ndim != 2:
        raise ValueError("points must share a common dimension")
    m = P.shape[0]
    top = max(float(P.max()), -float(P.min()))
    if not top < math.inf:
        raise NonFiniteError("non-finite coordinates in input points")
    first_idx = range(m)
    if len(set(P[:, 0].tolist())) < m:
        first = {}
        for i, key in enumerate(P.view(f"V{P.itemsize * P.shape[1]}").ravel().tolist()):
            first.setdefault(key, i)
        first_idx = list(first.values())
    Q = P if len(first_idx) == m else P[first_idx]
    shift = 0
    if not _SAFE[0] <= top <= _SAFE[1]:
        shift = math.frexp(top)[1]
        Q = np.ldexp(Q, -shift)

    active, lam, it, capped = reference_wolfe(Q @ Q.T, 64 * m)

    lam = np.array(lam)
    lam = lam / lam.sum()
    g = lam @ Q[active]
    gg = float(g @ g)
    gap = _reference_gap(Q, g, gg)
    if gap > _TOL * (1.0 + gg):
        S = Q[active]
        rhs = np.column_stack([np.ones(len(active)), S @ g])
        a1, ar = np.linalg.lstsq(S @ S.T + 1.0, rhs, rcond=None)[0].T
        delta = a1 * (ar.sum() / a1.sum()) - ar
        g2 = g + delta @ S
        gap2 = _reference_gap(Q, g2, float(g2 @ g2))
        if gap2 < gap and np.all(lam + delta >= 0.0):
            lam, g, gap = lam + delta, g2, gap2

    weights = np.zeros(m)
    weights[[first_idx[a] for a in active]] = lam

    if shift:
        g = np.ldexp(g, shift)
        with np.errstate(over="ignore"):
            gap = float(np.ldexp(gap, 2 * shift))
    return MinNormResult(point=g, weights=weights, gap=gap, iterations=it,
                         capped=capped)


def abs_value_problem() -> FiniteMaxProblem:
    """f(x) = |x| = max{x, -x} in one dimension."""
    return FiniteMaxProblem(pieces=(MaxPiece(a=(1.0,)), MaxPiece(a=(-1.0,))))


def _segment_cost(a: float, b: float, s: float) -> float:
    # The integral of 2|y - s| over [a, b].
    return (b - s) * abs(b - s) - (a - s) * abs(a - s)


def two_agent_cost(theta1_bounds: Tuple[float, float],
                   theta2_bounds: Tuple[float, float],
                   x: np.ndarray) -> float:
    """Closed-form worst-case cost for two agents on [0,4] with two
    width-2 bins (bin heights sum to 1/2).

    Valid for x in [0,2] x [2,4], where agent 1 is nearest left of the
    midpoint (x1 + x2)/2 and agent 2 right of it; agrees with the generic
    LP pipeline."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError("x must have two coordinates")
    if not (0.0 <= x[0] <= 2.0 and 2.0 <= x[1] <= 4.0):
        raise ValueError("x must lie in [0,2] x [2,4]")
    t1lo, t1hi = theta1_bounds
    t2lo, t2hi = theta2_bounds
    x1, x2 = float(x[0]), float(x[1])
    cut = (x1 + x2) / 2.0  # in [1, 3]
    p1 = _segment_cost(0.0, min(cut, 2.0), x1) + _segment_cost(min(cut, 2.0), 2.0, x2)
    p2 = _segment_cost(2.0, max(cut, 2.0), x1) + _segment_cost(max(cut, 2.0), 4.0, x2)
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


def _reference_cuts(prob: CoverageProblem, x: np.ndarray):
    # Segments (k, alpha, beta, owner, a_idx, b_idx): the midpoints strictly
    # inside each bin cut it, and the owner is the sorted agent whose cell
    # holds the segment's centre.  a_idx/b_idx is the left sorted agent of
    # the midpoint an endpoint is, or -1 at a bin edge.
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


def _reference_partition(prob: CoverageProblem, x: np.ndarray):
    # The library's segments (k, alpha, beta, owner).
    order, xs, segments = _reference_cuts(prob, x)
    return order, xs, [seg[:4] for seg in segments]


def reference_c_vector(prob: CoverageProblem, x: np.ndarray) -> np.ndarray:
    _, xs, segments = _reference_partition(prob, x)
    c = [0.0] * prob.n_bins
    for k, alpha, beta, owner in segments:
        s = xs[owner]
        ha, hb = (alpha - s) * (alpha - s), (beta - s) * (beta - s)
        c[k] += hb - ha if s <= alpha else ha - hb if s >= beta else hb + ha
    return np.asarray(c)


def reference_grad_x(prob: CoverageProblem, x: np.ndarray,
                     theta: np.ndarray) -> np.ndarray:
    """Gradient of <c, theta> (+ weighted penalty); ValueError off D."""
    x = np.asarray(x, dtype=float)
    if not make_coverage_oracle(prob).in_D(x):
        raise ValueError("gradient undefined: x lies on an excluded hyperplane")
    order, xs, segments = _reference_partition(prob, x)
    theta = np.asarray(theta, dtype=float)
    g = [0.0] * prob.n_agents
    for k, alpha, beta, owner in segments:
        s = xs[owner]
        pa, pb = 2.0 * abs(alpha - s), 2.0 * abs(beta - s)
        g[order[owner]] += float((pa - pb) * theta[k])
    g = np.array(g)
    if prob.penalty_enabled:
        lo, hi = prob.bin_edges[0], prob.bin_edges[-1]
        g = g + prob.penalty_weight * (np.where(x < lo, -1.0, 0.0)
                                       + np.where(x > hi, 1.0, 0.0))
    return g


def midpoint_grad_x(prob: CoverageProblem, x: np.ndarray, theta: np.ndarray):
    """The gradient of <c, theta>, without the penalty, with the Leibniz
    terms of every interior midpoint kept, as the library once summed it.

    A midpoint endpoint moves half with each of its two neighbouring
    agents, so after its owner's part a segment adds -0.5 * 2|alpha - s| *
    theta_k to both agents of a midpoint alpha, then 0.5 * 2|beta - s| *
    theta_k to both of a midpoint beta.  On D these terms cancel in pairs
    up to the rounding of the midpoint.  Returns (g, n, scale), per agent:
    the sum, the count of its terms, and the sum over them of |term|, plus
    theta_k |m| for a term of midpoint m."""
    order, xs, segments = _reference_cuts(prob, x)
    theta = np.asarray(theta, dtype=float).tolist()
    g, n, scale = [0.0] * len(xs), [0] * len(xs), [0.0] * len(xs)
    for k, alpha, beta, owner, a_idx, b_idx in segments:
        s, t = xs[owner], theta[k]
        pa, pb = 2.0 * abs(alpha - s), 2.0 * abs(beta - s)
        terms = [(owner, (pa - pb) * t, 0.0)]
        for idx, part, m in ((a_idx, -0.5 * pa, alpha), (b_idx, 0.5 * pb, beta)):
            if idx >= 0:
                terms += [(i, part * t, t * abs(m)) for i in (idx, idx + 1)]
        for i, term, extra in terms:
            g[order[i]] += term
            n[order[i]] += 1
            scale[order[i]] += abs(term) + extra
    return np.array(g), np.array(n), np.array(scale)


def reference_lp_max(prob: CoverageProblem, c: np.ndarray) -> np.ndarray:
    """Greedy fill of the bin masses by decreasing c_k / width_k."""
    c = np.asarray(c, dtype=float)
    w = prob.widths
    lo_m = np.asarray(prob.theta_lower) * w
    hi_m = np.asarray(prob.theta_upper) * w
    resid = prob.total_mass - float(lo_m.sum())
    masses = lo_m.copy()
    for k in np.argsort(-(c / w), kind="stable"):
        if resid <= 0.0:
            break
        add = min(hi_m[k] - lo_m[k], resid)
        masses[k] += add
        resid -= add
    return masses / w


def reference_piece(piece: MaxPiece, x: np.ndarray) -> Tuple[float, np.ndarray]:
    """(a'x + b + x'Qx / 2, a + Qx) of one piece, the quadratic terms only
    where the piece has Q."""
    a = np.asarray(piece.a, dtype=float)
    v = float(a @ x) + float(piece.b)
    g = a.copy()
    if piece.Q is not None:
        Q = np.asarray(piece.Q, dtype=float)
        v += 0.5 * float(x @ (Q @ x))
        g = g + Q @ x
    return v, g


def reference_penalty(prob: CoverageProblem, x: np.ndarray) -> float:
    """The hinge distance of each agent to the support, summed, in NumPy."""
    x = np.asarray(x, dtype=float)
    lo, hi = prob.bin_edges[0], prob.bin_edges[-1]
    return float(np.sum(np.maximum(0.0, np.maximum(lo - x, x - hi))))


def reference_ball_points(center: np.ndarray, radius: float, z: np.ndarray,
                          u: np.ndarray) -> np.ndarray:
    """center + radius * u_i**(1/n) * z_i / ||z_i|| for the Gaussian rows z
    and uniforms u, a zero row giving the centre, and every offset whose
    computed norm exceeds the radius scaled back onto the sphere."""
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    nz = np.sqrt(np.einsum("ij,ij->i", z, z))
    nz[nz == 0.0] = 1.0
    offset = (radius * u ** (1.0 / n))[:, None] * (z / nz[:, None])
    d = np.sqrt(np.einsum("ij,ij->i", offset, offset))
    over = d > radius
    offset[over] *= (radius / d[over])[:, None]
    return center + offset


def reference_trace_csv(trace: Trace) -> str:
    """trace.csv as one f"{float(v):.17g}" per value."""
    def fmt(v):
        return f"{float(v):.17g}"
    n = len(trace.records[0].x) if trace.records else len(trace.final_x)
    header = ["k"] + [f"x_{i}" for i in range(n)] + [
        "f", "eps", "nu", "g_norm", "t", "step_kind"]
    lines = [",".join(header)]
    for r in trace.records:
        row = [str(r.k)] + [fmt(v) for v in r.x] + [
            fmt(r.f_approx), fmt(r.eps), fmt(r.nu), fmt(r.g_norm),
            fmt(r.t), r.step_kind.value]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_trace_json(trace: Trace) -> str:
    """trace.json as one json.dumps(payload) line."""
    payload = {
        "seed": trace.seed,
        "termination": trace.termination.value,
        "params": trace.params_snapshot,
        "records": [
            {
                "k": r.k,
                "x": [float(v) for v in r.x],
                "f": r.f_approx,
                "eps": r.eps,
                "nu": r.nu,
                "g_norm": r.g_norm,
                "t": r.t,
                "step_kind": r.step_kind.value,
                "sample_count": r.sample_count,
                "wall_time_us": r.wall_time_us,
            }
            for r in trace.records
        ],
    }
    return json.dumps(payload)


def bump_d2(u: np.ndarray) -> np.ndarray:
    """The second derivative of ``gradsamp.testfns.bump``, 0 outside (-1, 1)."""
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
