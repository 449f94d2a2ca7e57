"""Coverage cost, gradient, domain, inner LP, and the two-agent closed form.

The per-bin cost is cross-checked against adaptive quadrature of the
defining integral, and the analytic gradient against central finite
differences, so the closed-form segment algebra never certifies itself.
"""

import dataclasses
import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from gradsamp import (
    CoverageProblem,
    GsParams,
    Rng,
    Termination,
    inner_lp_max,
    make_coverage_oracle,
    penalty,
    run,
)
from gradsamp import ProblemOracle, coverage
from oracles import (
    excluded_hyperplanes,
    reference_c_vector,
    reference_grad_x,
    reference_lp_max,
    reference_penalty,
    theta_feasible,
    two_agent_cost,
)


def _c(prob, x):
    """The per-bin cost c(x), from a fresh partition."""
    _, xs, segments = coverage._partition(prob, x)
    return np.asarray(coverage._cost(xs, segments, prob.n_bins))


def _in_D(prob, x):
    return make_coverage_oracle(prob).in_D(x)


def _grad(prob, x, theta):
    """The gradient of <c(x), theta> (+ weighted penalty), from a fresh oracle."""
    return make_coverage_oracle(prob).grad_x_F(x, theta)


def _c_quadrature(prob, x):
    """Independent oracle: adaptive quadrature of 2*min_n |x_n - y| per bin."""
    x = np.asarray(x, dtype=float)
    out = []
    xs = np.sort(x)
    kinks = np.concatenate([xs, (xs[:-1] + xs[1:]) / 2.0])  # agents + midpoints
    for k in range(prob.n_bins):
        a, b = prob.bin_edges[k], prob.bin_edges[k + 1]
        pts = sorted(v for v in kinks if a < v < b)
        val, _ = quad(lambda y: 2.0 * np.min(np.abs(x - y)), a, b,
                      points=pts or None, limit=200)
        out.append(val)
    return np.array(out)


# -- the per-bin cost c ------------------------------------------------------

def test_c_single_agent_centered():
    prob = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0),
                           theta_lower=(0.0,), theta_upper=(1.0,))
    np.testing.assert_allclose(_c(prob, np.array([0.5])), [0.5])
    np.testing.assert_allclose(_c(prob, np.array([0.0])), [1.0])


def test_c_two_agents_symmetric():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    np.testing.assert_allclose(_c(prob, np.array([1.0, 3.0])),
                               [2.0, 2.0])


def test_c_matches_quadrature_random():
    gen = np.random.Generator(np.random.Philox(21))
    for _ in range(25):
        N = int(gen.integers(1, 5))
        K = int(gen.integers(1, 5))
        edges = tuple(float(v) for v in
                      np.concatenate([[0.0], np.cumsum(gen.uniform(0.5, 2.0, K))]))
        prob = CoverageProblem(n_agents=N, bin_edges=edges,
                               theta_lower=(0.0,) * K,
                               theta_upper=(2.0,) * K)
        x = gen.uniform(-1.0, edges[-1] + 1.0, size=N)
        np.testing.assert_allclose(_c(prob, x),
                                   _c_quadrature(prob, x),
                                   rtol=1e-9, atol=1e-9)


def test_c_permutation_symmetric():
    prob = CoverageProblem(n_agents=3, bin_edges=(0.0, 1.0, 2.0, 3.0),
                           theta_lower=(0.0,) * 3, theta_upper=(1.0,) * 3)
    x = np.array([0.4, 2.6, 1.1])
    base = _c(prob, x)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        np.testing.assert_array_equal(_c(prob, x[perm]), base)


def test_linearity_recovers_c():
    """F(x, theta) = <c(x), theta> exactly: evaluating at basis-spanning
    random theta and solving reproduces c."""
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 1.5, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(1.0, 1.0))
    oracle = make_coverage_oracle(prob)
    gen = np.random.Generator(np.random.Philox(22))
    x = np.array([0.7, 2.9])
    T = gen.uniform(0.0, 1.0, size=(2, 2))
    vals = np.array([oracle.eval_F(x, t) for t in T])
    c_solved = np.linalg.solve(T, vals)
    np.testing.assert_allclose(c_solved, _c(prob, x),
                               atol=1e-10)


# -- gradient ----------------------------------------------------------------

def test_grad_single_agent_examples():
    prob = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0),
                           theta_lower=(1.0,), theta_upper=(1.0,))
    g = _grad(prob, np.array([0.5]), np.array([1.0]))
    np.testing.assert_allclose(g, [0.0], atol=1e-12)

    pen = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0),
                          theta_lower=(1.0,), theta_upper=(1.0,),
                          penalty_enabled=True, penalty_weight=1.0)
    g = _grad(pen, np.array([-0.5]), np.array([1.0]))
    np.testing.assert_allclose(g, [-3.0], atol=1e-12)  # cost -2, penalty -1


def test_grad_symmetric_two_agent_zero():
    # Single bin so the symmetric configuration's midpoint is not a bin
    # edge; with the two-bin geometry the symmetric point (1,3) lies on an
    # excluded hyperplane (midpoint 2 equals the interior edge).
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 4.0),
                           theta_lower=(0.25,), theta_upper=(0.25,))
    g = _grad(prob, np.array([1.0, 3.0]), np.array([0.25]))
    np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-12)
    # The two-bin symmetric point is correctly excluded from D.
    two = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                          theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    assert not _in_D(two, np.array([1.0, 3.0]))


def test_grad_rejects_x_outside_D():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    with pytest.raises(ValueError):
        _grad(prob, np.array([1.0, 1.0]), np.array([0.25, 0.25]))


def _margin(prob, x):
    """Smallest gap between x and an excluded hyperplane: moving one agent
    by less than this cannot cross one."""
    xs = np.sort(x)
    edges = np.asarray(prob.bin_edges)
    d = np.min(np.abs(xs[:, None] - edges[None, :]))
    if len(xs) > 1:
        mids = (xs[:-1] + xs[1:]) / 2.0
        d = min(d, np.min(np.diff(xs)),
                np.min(np.abs(mids[:, None] - edges[None, :])))
    return d


def test_jacobian_matches_finite_differences():
    """dc/dx, as the gradients of <c, e_k> at each unit theta e_k with the
    penalty off, and the penalized gradient at a random theta, against
    central differences, at seeded points of D with up to 6 agents and 6
    bins, penalty on and off.  Central differences are exact on a quadratic
    piece, so the points keep a margin of 1e3 steps from every excluded
    hyperplane."""
    h = 1e-6
    for seed in range(12):
        gen = np.random.Generator(np.random.Philox(300 + seed))
        N = int(gen.integers(1, 7))
        K = int(gen.integers(1, 7))
        edges = tuple(float(v) for v in
                      np.concatenate([[0.0], np.cumsum(gen.uniform(0.5, 2.0, K))]))
        prob = CoverageProblem(n_agents=N, bin_edges=edges,
                               theta_lower=(0.0,) * K, theta_upper=(2.0,) * K,
                               penalty_enabled=seed % 2 == 1)
        oracle = make_coverage_oracle(prob)
        x = gen.uniform(-1.0, edges[-1] + 1.0, size=N)
        while _margin(prob, x) < 1e3 * h:
            x = gen.uniform(-1.0, edges[-1] + 1.0, size=N)
        assert _in_D(prob, x)
        theta = gen.uniform(0.0, 1.0, size=K)
        plain = dataclasses.replace(prob, penalty_enabled=False)
        J = np.array([_grad(plain, x, e_k) for e_k in np.eye(K)])
        g = _grad(prob, x, theta)
        for i in range(N):
            e = np.zeros(N)
            e[i] = h
            fd = (_c(prob, x + e)
                  - _c(prob, x - e)) / (2 * h)
            np.testing.assert_allclose(J[:, i], fd, atol=1e-6,
                                       err_msg=f"seed {seed}, agent {i}")
            fd_F = (oracle.eval_F(x + e, theta)
                    - oracle.eval_F(x - e, theta)) / (2 * h)
            assert g[i] == pytest.approx(fd_F, abs=1e-6), f"seed {seed}, agent {i}"


def test_cone_property_with_penalty():
    """Outside the support, the penalized gradient points back toward it."""
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 3.0, 6.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.4, 0.4),
                           penalty_enabled=True, penalty_weight=1.0)
    gen = np.random.Generator(np.random.Philox(23))
    checked = 0
    while checked < 50:
        x = np.array([gen.uniform(-2.0, -0.1), gen.uniform(6.1, 8.0)])
        if not _in_D(prob, x):
            continue
        theta = inner_lp_max(prob, _c(prob, x))
        g = _grad(prob, x, theta)
        assert g[0] < 0.0  # x_0 below the support
        assert g[1] > 0.0  # x_1 above the support
        checked += 1


def test_continuity_across_excluded_hyperplanes():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    oracle = make_coverage_oracle(prob)

    def f(x):
        return oracle.objective(np.asarray(x))

    d = 1e-8
    # Agent-coincidence, agent-at-edge, and midpoint-at-edge hyperplanes.
    pairs = [
        (np.array([1.5 - d, 1.5 + d]), np.array([1.5 + d, 1.5 - d])),
        (np.array([2.0 - d, 3.0]), np.array([2.0 + d, 3.0])),
        (np.array([1.0 - d, 3.0]), np.array([1.0 + d, 3.0])),
    ]
    L = 100.0  # generous local Lipschitz bound for this geometry
    for a, b in pairs:
        assert abs(f(a) - f(b)) <= L * np.linalg.norm(a - b)


# -- in_D --------------------------------------------------------------------

def test_in_D_midpoint_on_edge_excluded():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 1.0, 2.0, 3.0, 4.0),
                           theta_lower=(0.0,) * 4, theta_upper=(1.0,) * 4)
    assert not _in_D(prob, np.array([1.3, 2.7]))  # midpoint 2.0


def test_in_D_coincident_agents_excluded():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 1.0),
                           theta_lower=(0.0,), theta_upper=(2.0,))
    assert not _in_D(prob, np.array([0.5, 0.5]))


def test_in_D_agent_on_edge_excluded():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 1.0, 2.0),
                           theta_lower=(0.0, 0.0), theta_upper=(1.0, 1.0))
    assert not _in_D(prob, np.array([1.0, 1.7]))


def test_in_D_interior_point_accepted():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 1.0, 2.0),
                           theta_lower=(0.0, 0.0), theta_upper=(1.0, 1.0))
    assert _in_D(prob, np.array([0.31, 1.77]))


def test_in_D_matches_definition_on_half_unit_grid():
    """Agents on a half-unit grid over integer bin edges hit every kind of
    excluded hyperplane; the oracle's in_D must agree with the definition."""
    gen = np.random.Generator(np.random.Philox(25))
    seen = set()
    inside = 0
    for _ in range(2000):
        N = int(gen.integers(1, 7))
        K = int(gen.integers(1, 7))
        edges = tuple(float(v) for v in
                      np.concatenate([[0.0], np.cumsum(gen.integers(1, 3, K))]))
        prob = CoverageProblem(n_agents=N, bin_edges=edges,
                               theta_lower=(0.0,) * K, theta_upper=(1.0,) * K)
        x = gen.integers(-2, 2 * int(edges[-1]) + 3, size=N) / 2.0
        kinds = excluded_hyperplanes(prob, x)
        assert _in_D(prob, x) == (not kinds), (edges, x, kinds)
        seen |= kinds
        inside += not kinds
    assert seen == {"coincident", "agent_on_edge", "midpoint_on_edge"}
    assert 200 <= inside <= 1800


# -- penalty -----------------------------------------------------------------

def test_penalty_examples():
    prob = CoverageProblem(n_agents=3, bin_edges=(0.0, 2.0, 4.0, 6.0),
                           theta_lower=(0.0,) * 3, theta_upper=(1.0,) * 3)
    assert penalty(prob, np.array([-1.0, 2.0, 7.0])) == 2.0
    assert penalty(prob, np.array([1.0, 3.0, 5.0])) == 0.0
    one = CoverageProblem(n_agents=1, bin_edges=(0.0, 6.0),
                          theta_lower=(1.0 / 6.0,), theta_upper=(1.0 / 6.0,))
    assert penalty(one, np.array([-3.0])) == 3.0
    assert penalty(prob, np.array([-1e308, 1e308, 1e308])) == math.inf  # no warning


def test_penalty_slope_one_pass_matches_two_masks():
    """The hinge slope, for a point and for a block of rows, equals byte
    for byte the sum of a mask below the support and one above it, on the
    support's ends, one float either side of them, and far away.  The
    hinge value equals the NumPy formula byte for byte on every triple of
    those values, NaN and +-1e308, also on supports that start at -0.0
    and at 0.0, and on seeded rows of 50 agents."""
    prob = CoverageProblem(n_agents=3, bin_edges=(-0.5, 2.0, 4.0),
                           theta_lower=(0.0,) * 2, theta_upper=(1.0,) * 2)
    lo, hi = -0.5, 4.0
    values = [v for e in (lo, hi) for v in (np.nextafter(e, -np.inf), e,
                                            np.nextafter(e, np.inf))]
    values += [-np.inf, -1e300, -0.0, 0.0, 1.0, 1e300, np.inf]
    X = np.array(values).reshape(-1, 1) + np.zeros(3)
    X[:, 1] = X[::-1, 0]
    want = np.where(X < lo, -1.0, 0.0) + np.where(X > hi, 1.0, 0.0)
    assert coverage._penalty_grad(prob, X).tobytes() == want.tobytes()
    for x, w in zip(X, want):
        assert coverage._penalty_grad(prob, x).tobytes() == w.tobytes()
    for start in (lo, -0.0, 0.0):
        prob = CoverageProblem(n_agents=3, bin_edges=(start, 2.0, 4.0),
                               theta_lower=(0.0,) * 2, theta_upper=(1.0,) * 2)
        ends = [np.nextafter(start, -np.inf), start, np.nextafter(start, np.inf)]
        for x in itertools.product(values + ends + [np.nan, -1e308, 1e308], repeat=3):
            x = np.array(x)
            with np.errstate(over="ignore"):  # np.sum of two terms past 1e308
                assert repr(penalty(prob, x)) == repr(reference_penalty(prob, x)), x
    # 50 agents, where np.sum adds pairwise and Python's sum would not.
    wide = dataclasses.replace(prob, n_agents=50)
    gen = np.random.Generator(np.random.Philox(41))
    for _ in range(200):
        x = 2.0 + gen.normal(size=50) * 10.0 ** gen.integers(-3, 4, size=50)
        assert repr(penalty(wide, x)) == repr(reference_penalty(wide, x))


# -- inner LP ----------------------------------------------------------------

def test_lp_greedy_example():
    prob = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0, 2.0, 3.0),
                           theta_lower=(0.1, 0.1, 0.1),
                           theta_upper=(0.6, 0.6, 0.6))
    theta = inner_lp_max(prob, np.array([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(theta, [0.6, 0.1, 0.3], atol=1e-12)
    assert float(theta @ [3.0, 1.0, 2.0]) == pytest.approx(2.5)


def test_lp_singleton_feasible_set():
    prob = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0, 2.0),
                           theta_lower=(0.3, 0.7), theta_upper=(0.3, 0.7))
    np.testing.assert_allclose(inner_lp_max(prob, np.array([5.0, 1.0])),
                               [0.3, 0.7])


def test_lp_width_two_bins_branch():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    theta = inner_lp_max(prob, np.array([1.0, 3.0]))  # c_1 < c_2
    np.testing.assert_allclose(theta, [0.05, 0.45], atol=1e-12)


def test_lp_result_feasible():
    prob = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0, 3.0, 4.0),
                           theta_lower=(0.05, 0.1, 0.0),
                           theta_upper=(0.5, 0.4, 0.6))
    gen = np.random.Generator(np.random.Philox(24))
    for _ in range(50):
        theta = inner_lp_max(prob, gen.uniform(0.0, 5.0, size=3))
        assert theta_feasible(prob, theta)


def test_theta_feasible_checks_mass_and_box():
    prob = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0, 2.0),
                           theta_lower=(0.0, 0.0), theta_upper=(1.0, 1.0))
    assert theta_feasible(prob, np.array([0.4, 0.6]))
    assert not theta_feasible(prob, np.array([0.4, 0.4]))   # mass 0.8
    assert not theta_feasible(prob, np.array([1.5, -0.5]))  # box violated


# -- two-agent closed form ---------------------------------------------------

def test_two_agent_center_value():
    assert two_agent_cost((0.0, 0.45), (0.0, 0.45),
                          np.array([1.0, 3.0])) == pytest.approx(1.0)


def test_two_agent_degenerate_bounds():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.25, 0.25), theta_upper=(0.25, 0.25))
    x = np.array([0.6, 3.3])
    c = _c(prob, x)
    assert two_agent_cost((0.25, 0.25), (0.25, 0.25), x) == pytest.approx(
        0.25 * float(c.sum()))


def test_two_agent_domain_validation():
    with pytest.raises(ValueError):
        two_agent_cost((0.0, 0.45), (0.0, 0.45), np.array([3.0, 3.0]))
    with pytest.raises(ValueError):
        two_agent_cost((0.0, 0.45), (0.0, 0.45), np.array([1.0]))


# -- oracle packaging --------------------------------------------------------

def test_oracle_exact_inner_reports_zero_distance():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    oracle = make_coverage_oracle(prob)
    x = np.array([0.7, 3.2])
    theta = oracle.inner_max(x)
    assert theta.shape == (oracle.theta_dim,) and theta_feasible(prob, theta)
    assert oracle.eval_F(x, theta) == pytest.approx(
        two_agent_cost((0.0, 0.45), (0.0, 0.45), x))
    assert oracle.objective(np.array([1.0, 3.0])) == pytest.approx(1.0)


# -- byte identity with the bisect reference ---------------------------------

def _grad_or_error(fn, *args):
    try:
        return fn(*args).tobytes()
    except ValueError:
        return "ValueError"


def _reference_cases():
    """Seeded (problem, x, theta) with N, K <= 8, penalty on and off, over
    five kinds of agent positions: a half-unit grid over integer edges
    (coincident agents, agents on edges, midpoints on edges); continuous;
    integers nudged by 1e-15; groups of three or more coincident agents,
    so midpoints repeat; and clusters a few ulps wide, where neighbouring
    cuts are adjacent floats.  Then two fixed clusters of the last kind, one
    on an edge and one in D."""
    gen = np.random.Generator(np.random.Philox(26))
    for i in range(4000):
        N = int(gen.integers(1, 9))
        K = int(gen.integers(1, 9))
        edges = tuple(float(v) for v in
                      np.concatenate([[0.0], np.cumsum(gen.integers(1, 3, K))]))
        prob = CoverageProblem(n_agents=N, bin_edges=edges,
                               theta_lower=(0.0,) * K, theta_upper=(1.0,) * K,
                               penalty_enabled=i % 2 == 1)
        top = edges[-1]
        kind = i // 2 % 5
        if kind == 0:
            x = gen.integers(-2, 2 * int(top) + 3, size=N) / 2.0
        elif kind == 1:
            x = gen.uniform(-1.0, top + 1.0, size=N)
        elif kind == 2:
            x = (gen.integers(-1, int(top) + 2, size=N)
                 + gen.choice([-1e-15, 0.0, 1e-15], size=N))
        elif kind == 3:
            x = gen.integers(-2, 2 * int(top) + 3, size=N) / 2.0
            x[:max(3, N // 2)] = x[0]
            x = gen.permutation(x)
        else:
            centre = gen.integers(0, 4 * int(top) + 1) / 4.0
            x = centre + gen.integers(-3, 4, size=N) * np.spacing(max(centre, 1.0))
        yield prob, x, gen.uniform(0.0, 1.0, size=K)
    prob = CoverageProblem(n_agents=3, bin_edges=(0.0, 1.0, 2.0, 3.0, 4.0),
                           theta_lower=(0.0,) * 4, theta_upper=(1.0,) * 4)
    for centre, steps in ((3.0, [-1.0, 1.0, 1.0]), (3.25, [-1.0, 0.0, 1.0])):
        yield prob, centre + np.array(steps) * np.spacing(centre), np.full(4, 0.25)


def test_coverage_matches_bisect_reference_bytewise():
    """c, the gradient and the oracle's answers equal, byte for byte, those
    of the per-bin bisect partition, and the gradient raises on exactly the
    same points."""
    inside = outside = repeated = 0
    for prob, x, theta in _reference_cases():
        case = (prob.bin_edges, prob.penalty_enabled, x.tolist())
        c = reference_c_vector(prob, x)
        assert _c(prob, x).tobytes() == c.tobytes(), case
        grad = _grad_or_error(reference_grad_x, prob, x, theta)
        assert _grad_or_error(_grad, prob, x, theta) == grad, case

        oracle = make_coverage_oracle(prob)
        lp = reference_lp_max(prob, c)
        star = oracle.inner_max(x)
        assert star.tobytes() == lp.tobytes(), case
        assert (_grad_or_error(oracle.grad_x_F, x, star)
                == _grad_or_error(reference_grad_x, prob, x, lp)), case
        for t in (star, theta):
            F = float(c @ t)
            if prob.penalty_enabled:
                F += prob.penalty_weight * penalty(prob, x)
            assert repr(oracle.eval_F(x, t)) == repr(F), case
        assert _grad_or_error(oracle.grad_x_F, x, theta) == grad, case

        inside += grad != "ValueError"
        outside += grad == "ValueError"
        repeated += np.max(np.unique(x, return_counts=True)[1]) >= 3
    assert inside >= 1000 and outside >= 1000 and repeated >= 500


def _per_point(oracle, points):
    return [g.tobytes() for g in ProblemOracle.sample_gradients(oracle, points)]


def test_block_path_matches_per_point_path_bytewise(monkeypatch):
    """A coverage bundle evaluated as one block, or below the selection
    threshold as the direct walk on Python floats, gives, byte for byte,
    the gradients of the in_D, inner_max, grad_x_F walk, and stops before
    the same first point outside D.  Each bundle holds a _reference_cases()
    point and copies of it moved by half units, by 1e-15 and by a few ulps,
    so it repeats agents, puts midpoints on edges and clusters cuts; bundle
    sizes fall on both sides of the threshold.  Then single points on both
    paths, among them agents at 1e200, where c is inf or NaN, rates that
    tie, and LPs without room, where the list LP also gives a _block_lp
    row's bytes.  Then bundles of N + 2 rows at N = 50, one block, and at
    N = 400, in chunks of 13 rows, whole and with a miss of D at row 30."""
    blocks = []
    block = coverage._block_gradients

    def counted(prob, X):
        blocks.append(len(X))
        return block(prob, X)

    monkeypatch.setattr(coverage, "_block_gradients", counted)
    gen = np.random.Generator(np.random.Philox(28))
    sizes = {False: 0, True: 0}
    partial = 0
    for prob, x, _ in _reference_cases():
        moves = gen.choice([0.0, 0.5, -0.5, 1e-15, -1e-15], size=(23, len(x)))
        ulps = gen.integers(-2, 3, size=(23, len(x))) * np.spacing(np.abs(x) + 1.0)
        points = [x] + list(x + np.where(gen.random((23, 1)) < 0.3, ulps, moves))
        points = points[:int(gen.integers(1, 25))]
        gen.shuffle(points)
        oracle = make_coverage_oracle(prob)
        before = len(blocks)
        got = [g.tobytes() for g in oracle.sample_gradients(points)]
        want = _per_point(oracle, points)
        case = (prob.bin_edges, prob.penalty_enabled, [p.tolist() for p in points])
        assert got == want, case
        is_block = len(blocks) > before
        assert is_block == (len(points) * (prob.n_agents + prob.n_bins)
                            >= coverage._BLOCK_MIN)
        sizes[is_block] += 1
        partial += is_block and 0 < len(want) < len(points)
    assert sizes[True] >= 1000 and sizes[False] >= 1000 and partial >= 100

    # Every reference point in D on its own, alone and repeated past the
    # threshold: among them, segments whose centre rounds onto alpha.  And
    # a pair whose midpoint rounds onto an edge though their sum is not
    # twice the edge, next to a bin so narrow that its theta makes
    # subnormal cells show.
    corner = CoverageProblem(n_agents=2, bin_edges=(0.0, 1e-300, 1.0),
                             theta_lower=(0.5e300, 0.0), theta_upper=(1e300, 1.0))
    tiny = np.array([-1.0, 2.0]) * np.nextafter(0.0, 1.0)
    assert (tiny[0] + tiny[1]) / 2.0 == 0.0 and _in_D(corner, tiny)
    alone = [(prob, x) for prob, x, _ in _reference_cases() if _in_D(prob, x)]
    # The LP with no mass to fill above the lower bounds, with rooms
    # without bound, and with zero room in one bin; each with the penalty
    # off and on.
    lps = [CoverageProblem(n_agents=3, bin_edges=(0.0, 1.0, 2.0, 4.0),
                           theta_lower=lower, theta_upper=upper, penalty_enabled=on)
           for lower, upper in (((0.25,) * 3, (0.25,) * 3),
                                ((0.0, 0.1, 0.0), (np.inf, np.inf, 0.3)),
                                ((0.2, 0.1, 0.1), (0.2, 0.5, 0.5)))
           for on in (False, True)]
    special = [(corner, tiny)] + [(p, np.array([0.3, 1.6, 3.1])) for p in lps]
    # Agents at +-1e200: c is NaN where an agent that far owns a whole bin
    # (inf - inf), so the fill order comes from np.argsort, and inf where a
    # bin 1e200 wide holds its owner, so rates of -inf tie.  In the last
    # problem c is (NaN, inf, finite), where argsort puts the NaN bin last
    # and a Python sort would fill it first.  With the penalty on, the
    # slopes at 1e200 are +-1.
    for on in (False, True):
        far = CoverageProblem(n_agents=2, bin_edges=(0.5, 1.5, 2.5, 3.5),
                              theta_lower=(0.0,) * 3, theta_upper=(1.0,) * 3,
                              penalty_enabled=on)
        wide = CoverageProblem(n_agents=2, bin_edges=(-1e200, -1.0, 1.0, 1e200),
                               theta_lower=(0.0,) * 3, theta_upper=(1e-200, 1.0, 1e-200),
                               penalty_enabled=on)
        mixed = CoverageProblem(n_agents=2, bin_edges=(-1e200, -1e170, 1.0, 4.0),
                                theta_lower=(0.0,) * 3, theta_upper=(1e-200, 1e-170, 1.0),
                                penalty_enabled=on)
        special += [(far, np.array([-1e200, 1e200])), (far, np.array([1e200, 2.0])),
                    (far, np.array([2.0, -1e200])), (wide, np.array([-3.0, 2.0])),
                    (mixed, np.array([2.0, 3.0]))]
    # Rates that tie: bins 0 and 2 have the same c and width, with the
    # agents in either order.
    even = CoverageProblem(n_agents=2, bin_edges=(0.0, 1.0, 2.0, 3.0),
                           theta_lower=(0.1,) * 3, theta_upper=(0.5,) * 3)
    special += [(even, np.array([0.5, 2.5])), (even, np.array([2.5, 0.5]))]
    ties = nan_c = inf_c = 0
    for prob, x in alone + special:
        assert _in_D(prob, x), (prob.bin_edges, x.tolist())
        oracle = make_coverage_oracle(prob)
        for count in (1, -(-coverage._BLOCK_MIN // (prob.n_agents + prob.n_bins))):
            points = [x] * count
            blocks.clear()
            got = [g.tobytes() for g in oracle.sample_gradients(points)]
            assert got == _per_point(oracle, points), (prob.bin_edges, x.tolist())
            assert bool(blocks) == (count > 1) and len(got) == len(points)
        _, xs, segments = coverage._partition(prob, x)
        c = coverage._cost(xs, segments, prob.n_bins)
        theta = np.asarray(coverage._lp(prob, c))
        assert theta.tobytes() == coverage._block_lp(prob, np.array([c]))[0].tobytes()
        rates = np.array(c) / prob.widths
        ties += len(np.unique(rates)) < len(rates)
        nan_c += bool(np.isnan(c).any())
        inf_c += bool(np.isinf(c).any())
    assert len(alone) >= 1000 and ties >= 50 and nan_c >= 2 and inf_c >= 2

    # A bundle of N + 2 rows is one block at N = 50 and chunks of
    # _CHUNK_SEGMENTS // (N + K) = 13 rows at N = 400, and an agent on an
    # edge at row 30 stops it in the chunk that holds that row.
    chunks = {50: ([52], [52]), 400: ([13] * 30 + [12], [13] * 3)}
    for N in (50, 400):
        K = 2 * N
        prob = CoverageProblem(n_agents=N, bin_edges=tuple(float(e) for e in range(K + 1)),
                               theta_lower=tuple(gen.uniform(0.0, 0.5, K) / K),
                               theta_upper=tuple(gen.uniform(1.5, 3.0, K) / K),
                               penalty_enabled=True)
        oracle = make_coverage_oracle(prob)
        x = np.sort(gen.uniform(-5.0, K + 5.0, N))
        points = [x + gen.normal(0.0, 0.3, N) for _ in range(N + 2)]
        blocks.clear()
        got = [g.tobytes() for g in oracle.sample_gradients(points)]
        assert got == _per_point(oracle, points) and len(got) == N + 2
        assert blocks == chunks[N][0]
        points[30][7] = 31.0
        blocks.clear()
        got = [g.tobytes() for g in oracle.sample_gradients(points)]
        assert got == _per_point(oracle, points) and len(got) == 30
        assert blocks == chunks[N][1]


def test_block_path_memory_is_bounded():
    """One bundle of N + 2 rows at N = 400, K = 800 peaks at a few MiB under
    tracemalloc, not the 132 MiB of one block over all its 482 400
    segments."""
    gen = np.random.Generator(np.random.Philox(400))
    N, K = 400, 800
    prob = CoverageProblem(n_agents=N, bin_edges=tuple(float(e) for e in range(K + 1)),
                           theta_lower=tuple(gen.uniform(0.0, 0.5, K) / K),
                           theta_upper=tuple(gen.uniform(1.5, 3.0, K) / K),
                           penalty_enabled=True)
    oracle = make_coverage_oracle(prob)
    x = np.sort(gen.uniform(-5.0, K + 5.0, N))
    points = [x + gen.normal(0.0, 0.3, N) for _ in range(N + 2)]
    tracemalloc.start()
    try:
        got = oracle.sample_gradients(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == N + 2
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _block_bundles(sizes, seed):
    """A coverage problem of width N + K = 24 and one bundle of points in D
    for each size; every size here puts the bundle on the block path.  The
    penalty is off, so a block's gradients are returned as the block's last
    bincount made them."""
    gen = np.random.Generator(np.random.Philox(seed))
    N, K = 8, 16
    prob = CoverageProblem(n_agents=N, bin_edges=tuple(float(e) for e in range(K + 1)),
                           theta_lower=tuple(gen.uniform(0.0, 0.5, K) / K),
                           theta_upper=tuple(gen.uniform(1.5, 3.0, K) / K),
                           penalty_enabled=False)
    assert min(sizes) * (N + K) >= coverage._BLOCK_MIN
    return prob, [list(gen.uniform(-1.0, K + 1.0, (size, N))) for size in sizes]


def test_block_gradients_are_not_views_of_the_gather_buffers():
    """Each thread keeps one pair of gather buffers, reused by every block,
    so a gradient array that one bundle returned must not change when
    later bundles, smaller and larger, reuse or regrow them."""
    prob, bundles = _block_bundles((8, 6, 12, 5, 12, 9), 29)
    oracle = make_coverage_oracle(prob)
    got = [oracle.sample_gradients(points) for points in bundles]
    assert [len(g) for g in got] == [len(points) for points in bundles]
    assert [g.tobytes() for g in got] == [
        b"".join(_per_point(oracle, points)) for points in bundles]


def test_block_path_safe_to_call_concurrently(monkeypatch):
    """Threads that share one oracle, each on its own block-path bundle,
    get the bytes of serial calls.  _block_lp, which runs between the
    filling of a block's gather cells and their last read, sleeps briefly,
    so the threads switch there and not only where the interpreter
    happens to."""
    prob, bundles = _block_bundles((5, 7, 9, 12), 30)
    shared = make_coverage_oracle(prob)
    want = [shared.sample_gradients(points).tobytes() for points in bundles]
    lp = coverage._block_lp

    def yielding(*args):
        got = lp(*args)
        time.sleep(1e-5)
        return got

    monkeypatch.setattr(coverage, "_block_lp", yielding)
    wrong = []

    def ask(points, expected):
        try:
            for _ in range(50):
                got = shared.sample_gradients(points).tobytes()
                if got != expected:
                    wrong.append(len(points))
        except Exception as e:  # a thread's exception would only warn
            wrong.append(repr(e))

    threads = [threading.Thread(target=ask, args=case) for case in zip(bundles, want)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -- the oracle's answers on interleaved and changed points -----------------

def _memo_problem():
    gen = np.random.Generator(np.random.Philox(27))
    prob = CoverageProblem(n_agents=6, bin_edges=tuple(float(v) for v in range(9)),
                           theta_lower=(0.05,) * 8, theta_upper=(0.3,) * 8,
                           penalty_enabled=True)
    return prob, gen


def _fresh(prob, x, theta):
    # Answers from a fresh partition and a fresh oracle every time.
    c = _c(prob, x)
    F = float(c @ theta) + prob.penalty_weight * penalty(prob, x)
    return (inner_lp_max(prob, c).tobytes(), repr(F),
            _grad(prob, x, theta).tobytes())


def _asked(oracle, x, theta):
    star = oracle.inner_max(x)
    return (star.tobytes(), repr(oracle.eval_F(x, theta)),
            oracle.grad_x_F(x, theta).tobytes())


def test_oracle_memo_interleaved_points_match_fresh_results():
    """Interleaved points get fresh answers, and so do in_D and grad_x_F
    after a line-search trial's objective call on another point, on a
    point in D and on one with an agent on a bin edge."""
    prob, gen = _memo_problem()
    oracle = make_coverage_oracle(prob)
    x1, x2 = gen.uniform(-0.5, 8.5, size=6), gen.uniform(-0.5, 8.5, size=6)
    theta = gen.uniform(0.05, 0.3, size=8)
    for x in (x1, x2, x1, x1, x2):
        assert _in_D(prob, x)
        assert _asked(oracle, x, theta) == _fresh(prob, x, theta)
    edge = np.concatenate([[3.0], x1[1:]])
    for x in (x1, edge, x2, edge, x1):
        c = _c(prob, x)
        f = float(c @ inner_lp_max(prob, c)) + prob.penalty_weight * penalty(prob, x)
        assert repr(oracle.objective(x)) == repr(f)
        assert oracle.in_D(x) == _in_D(prob, x) == (x is not edge)
        if x is edge:
            with pytest.raises(ValueError, match="excluded hyperplane"):
                oracle.grad_x_F(x, theta)
        else:
            assert oracle.grad_x_F(x, theta).tobytes() == _grad(prob, x, theta).tobytes()


def test_oracle_memo_not_poisoned_by_in_place_change():
    prob, gen = _memo_problem()
    oracle = make_coverage_oracle(prob)
    x = gen.uniform(-0.5, 8.5, size=6)
    theta = gen.uniform(0.05, 0.3, size=8)
    before = _asked(oracle, x, theta)
    x += 0.125
    assert _asked(oracle, x, theta) == _fresh(prob, x, theta) != before
    x -= 0.125
    assert _asked(oracle, x, theta) == before


def test_one_partition_per_bundle_sample_and_per_objective(monkeypatch):
    prob, gen = _memo_problem()
    oracle = make_coverage_oracle(prob)
    built = []
    partition = coverage._partition

    def counted(prob, x):
        built.append(np.array(x))
        return partition(prob, x)

    monkeypatch.setattr(coverage, "_partition", counted)
    samples = [gen.uniform(-0.5, 8.5, size=6) for _ in range(5)]
    assert len(oracle.sample_gradients(samples)) == len(samples)
    assert len(built) == len(samples)
    for y, got in zip(samples, built):
        np.testing.assert_array_equal(got, y)
    built.clear()
    y = gen.uniform(-0.5, 8.5, size=6)
    oracle.objective(y)
    assert len(built) == 1


# -- problem validation ------------------------------------------------------

def test_problem_validation_errors():
    with pytest.raises(ValueError):
        CoverageProblem(n_agents=0, bin_edges=(0.0, 1.0),
                        theta_lower=(0.0,), theta_upper=(1.0,))
    with pytest.raises(ValueError):
        CoverageProblem(n_agents=1, bin_edges=(1.0, 1.0),
                        theta_lower=(0.0,), theta_upper=(1.0,))
    with pytest.raises(ValueError):
        CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0),
                        theta_lower=(0.5,), theta_upper=(0.2,))
    with pytest.raises(ValueError):  # mass infeasible: upper sum < 1
        CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0),
                        theta_lower=(0.0,), theta_upper=(0.5,))
    # NaN anywhere, and infinity except in an upper density bound.
    nan, inf = math.nan, math.inf
    ok = dict(n_agents=1, bin_edges=(0.0, 1.0, 2.0), theta_lower=(0.0, 0.0),
              theta_upper=(1.0, 1.0))
    CoverageProblem(**{**ok, "theta_upper": (inf, inf)})
    for field, value in (("bin_edges", (0.0, nan, 2.0)), ("bin_edges", (0.0, 1.0, inf)),
                         ("theta_lower", (nan, 0.0)), ("theta_upper", (1.0, nan)),
                         ("total_mass", nan), ("total_mass", inf),
                         ("penalty_weight", nan), ("penalty_weight", inf),
                         ("n_agents", 2.5), ("n_agents", True),
                         ("penalty_enabled", "false"), ("penalty_enabled", 1)):
        with pytest.raises(ValueError):
            CoverageProblem(**{**ok, field: value})


def test_lower_masses_that_use_up_the_total_construct_and_solve():
    """A total mass equal to the lower masses as np.dot sums them, which the
    LP's own sum puts 2 ulps above it: the problem constructs, both LP paths
    and the reference LP return theta_lower, and a run ends with a
    termination.  Then a seeded search over such problems, where every one
    constructs and both LP paths and the reference agree byte for byte."""
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 0.9, 1.2), theta_lower=(1e7, 2e7),
                           theta_upper=(2e7, 3e7), total_mass=14999999.999999998)
    lower = np.array(prob.theta_lower)
    c = np.array([[1.0, 2.0], [2.0, 1.0]])
    for row in c:
        assert np.array_equal(inner_lp_max(prob, row), lower)
        assert np.array_equal(reference_lp_max(prob, row), lower)
    assert np.array_equal(coverage._block_lp(prob, c), [lower, lower])
    tr = run(make_coverage_oracle(prob), GsParams(max_iters=5), np.array([0.3, 1.0]), Rng(0))
    assert isinstance(tr.termination, Termination)

    gen = np.random.Generator(np.random.Philox(31))
    for _ in range(2000):
        K = int(gen.integers(1, 9))
        edges = np.cumsum(np.concatenate([[gen.uniform(-5.0, 5.0)], gen.uniform(0.1, 2.0, K)]))
        lower = gen.uniform(0.0, 1.0, K) * 10.0 ** gen.uniform(-8.0, 8.0)
        upper = lower * np.where(gen.random(K) < 0.5, 1.0, gen.uniform(1.0, 3.0, K))
        prob = CoverageProblem(n_agents=1, bin_edges=tuple(edges), theta_lower=tuple(lower),
                               theta_upper=tuple(upper),
                               total_mass=float(np.dot(lower, np.diff(edges))))
        c = gen.standard_normal((3, K))
        block = coverage._block_lp(prob, c)
        for row, theta in zip(c, block):
            assert inner_lp_max(prob, row).tobytes() == theta.tobytes()
            assert reference_lp_max(prob, row).tobytes() == theta.tobytes()
            assert theta_feasible(prob, theta, tol=1e-12 * prob.total_mass)

    # A lower bound without end, or a bin too wide for a double, has no
    # finite mass, and is refused as such rather than with a NumPy warning.
    with pytest.raises(ValueError, match="theta_lower finite"):
        CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0, 2.0), theta_lower=(math.inf, 0.0),
                        theta_upper=(math.inf, 1.0))
    with pytest.raises(ValueError, match="finite widths"):
        CoverageProblem(n_agents=1, bin_edges=(-1e308, 1e308), theta_lower=(0.0,),
                        theta_upper=(1.0,))
