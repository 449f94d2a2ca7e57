"""Coverage cost, gradient, domain, inner LP, and the two-agent closed form.

The per-bin cost is cross-checked against adaptive quadrature of the
defining integral, and the analytic gradient against central finite
differences, so the closed-form segment algebra never certifies itself.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gradsamp import (
    CoverageProblem,
    coverage_c_vector,
    coverage_grad_x,
    in_D_coverage,
    inner_lp_max,
    make_coverage_oracle,
    penalty,
)
from gradsamp.coverage import coverage_c_jacobian, theta_feasible
from oracles import excluded_hyperplanes, two_agent_cost


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


# -- coverage_c_vector -------------------------------------------------------

def test_c_single_agent_centered():
    prob = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0),
                           theta_lower=(0.0,), theta_upper=(1.0,))
    np.testing.assert_allclose(coverage_c_vector(prob, np.array([0.5])), [0.5])
    np.testing.assert_allclose(coverage_c_vector(prob, np.array([0.0])), [1.0])


def test_c_two_agents_symmetric():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    np.testing.assert_allclose(coverage_c_vector(prob, np.array([1.0, 3.0])),
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
        np.testing.assert_allclose(coverage_c_vector(prob, x),
                                   _c_quadrature(prob, x),
                                   rtol=1e-9, atol=1e-9)


def test_c_permutation_symmetric():
    prob = CoverageProblem(n_agents=3, bin_edges=(0.0, 1.0, 2.0, 3.0),
                           theta_lower=(0.0,) * 3, theta_upper=(1.0,) * 3)
    x = np.array([0.4, 2.6, 1.1])
    base = coverage_c_vector(prob, x)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        np.testing.assert_array_equal(coverage_c_vector(prob, x[perm]), base)


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
    np.testing.assert_allclose(c_solved, coverage_c_vector(prob, x),
                               atol=1e-10)


# -- gradient ----------------------------------------------------------------

def test_grad_single_agent_examples():
    prob = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0),
                           theta_lower=(1.0,), theta_upper=(1.0,))
    g = coverage_grad_x(prob, np.array([0.5]), np.array([1.0]))
    np.testing.assert_allclose(g, [0.0], atol=1e-12)

    pen = CoverageProblem(n_agents=1, bin_edges=(0.0, 1.0),
                          theta_lower=(1.0,), theta_upper=(1.0,),
                          penalty_enabled=True, penalty_weight=1.0)
    g = coverage_grad_x(pen, np.array([-0.5]), np.array([1.0]))
    np.testing.assert_allclose(g, [-3.0], atol=1e-12)  # cost -2, penalty -1


def test_grad_symmetric_two_agent_zero():
    # Single bin so the symmetric configuration's midpoint is not a bin
    # edge; with the two-bin geometry the symmetric point (1,3) lies on an
    # excluded hyperplane (midpoint 2 equals the interior edge).
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 4.0),
                           theta_lower=(0.25,), theta_upper=(0.25,))
    g = coverage_grad_x(prob, np.array([1.0, 3.0]), np.array([0.25]))
    np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-12)
    # The two-bin symmetric point is correctly excluded from D.
    two = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                          theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    assert not in_D_coverage(two, np.array([1.0, 3.0]))


def test_grad_rejects_x_outside_D():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    with pytest.raises(ValueError):
        coverage_grad_x(prob, np.array([1.0, 1.0]), np.array([0.25, 0.25]))


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
    """dc/dx and the penalized gradient against central differences, at
    seeded points of D with up to 6 agents and 6 bins, penalty on and off.
    Central differences are exact on a quadratic piece, so the points keep
    a margin of 1e3 steps from every excluded hyperplane."""
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
        assert in_D_coverage(prob, x)
        theta = gen.uniform(0.0, 1.0, size=K)
        J = coverage_c_jacobian(prob, x)
        g = coverage_grad_x(prob, x, theta)
        for i in range(N):
            e = np.zeros(N)
            e[i] = h
            fd = (coverage_c_vector(prob, x + e)
                  - coverage_c_vector(prob, x - e)) / (2 * h)
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
        if not in_D_coverage(prob, x):
            continue
        theta = inner_lp_max(prob, coverage_c_vector(prob, x))
        g = coverage_grad_x(prob, x, theta)
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
    assert not in_D_coverage(prob, np.array([1.3, 2.7]))  # midpoint 2.0


def test_in_D_coincident_agents_excluded():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 1.0),
                           theta_lower=(0.0,), theta_upper=(2.0,))
    assert not in_D_coverage(prob, np.array([0.5, 0.5]))


def test_in_D_agent_on_edge_excluded():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 1.0, 2.0),
                           theta_lower=(0.0, 0.0), theta_upper=(1.0, 1.0))
    assert not in_D_coverage(prob, np.array([1.0, 1.7]))


def test_in_D_interior_point_accepted():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 1.0, 2.0),
                           theta_lower=(0.0, 0.0), theta_upper=(1.0, 1.0))
    assert in_D_coverage(prob, np.array([0.31, 1.77]))


def test_in_D_matches_definition_on_half_unit_grid():
    """Agents on a half-unit grid over integer bin edges hit every kind of
    excluded hyperplane; in_D_coverage must agree with the definition."""
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
        assert in_D_coverage(prob, x) == (not kinds), (edges, x, kinds)
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
    c = coverage_c_vector(prob, x)
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
    _, achieved = oracle.inner_max(np.array([0.7, 3.2]), 0.0)
    assert achieved == 0.0
    assert oracle.objective(np.array([1.0, 3.0])) == pytest.approx(1.0)


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
