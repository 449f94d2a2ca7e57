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
from gradsamp import coverage
from gradsamp.coverage import coverage_c_jacobian, theta_feasible
from gradsamp.driver import build_bundle
from oracles import (
    excluded_hyperplanes,
    reference_c_jacobian,
    reference_c_vector,
    reference_grad_x,
    reference_lp_max,
    two_agent_cost,
)


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
    """c, J, the gradient and the oracle's answers equal, byte for byte, the
    per-bin bisect partition with a list-of-lists Jacobian, and the
    gradient raises on exactly the same points."""
    inside = outside = repeated = 0
    for prob, x, theta in _reference_cases():
        case = (prob.bin_edges, prob.penalty_enabled, x.tolist())
        c = reference_c_vector(prob, x)
        assert coverage_c_vector(prob, x).tobytes() == c.tobytes(), case
        assert (coverage_c_jacobian(prob, x).tobytes()
                == reference_c_jacobian(prob, x).tobytes()), case
        grad = _grad_or_error(reference_grad_x, prob, x, theta)
        assert _grad_or_error(coverage_grad_x, prob, x, theta) == grad, case

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


# -- the oracle's last-point memo --------------------------------------------

def _memo_problem():
    gen = np.random.Generator(np.random.Philox(27))
    prob = CoverageProblem(n_agents=6, bin_edges=tuple(float(v) for v in range(9)),
                           theta_lower=(0.05,) * 8, theta_upper=(0.3,) * 8,
                           penalty_enabled=True)
    return prob, gen


def _fresh(prob, x, theta):
    # Module-level answers, which build their own partition every time.
    c = coverage_c_vector(prob, x)
    F = float(c @ theta) + prob.penalty_weight * penalty(prob, x)
    return (inner_lp_max(prob, c).tobytes(), repr(F),
            coverage_grad_x(prob, x, theta).tobytes())


def _asked(oracle, x, theta):
    star = oracle.inner_max(x)
    return (star.tobytes(), repr(oracle.eval_F(x, theta)),
            oracle.grad_x_F(x, theta).tobytes())


def test_oracle_memo_interleaved_points_match_fresh_results():
    prob, gen = _memo_problem()
    oracle = make_coverage_oracle(prob)
    x1, x2 = gen.uniform(-0.5, 8.5, size=6), gen.uniform(-0.5, 8.5, size=6)
    theta = gen.uniform(0.05, 0.3, size=8)
    for x in (x1, x2, x1, x1, x2):
        assert in_D_coverage(prob, x)
        assert _asked(oracle, x, theta) == _fresh(prob, x, theta)


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
    build_bundle(oracle, samples)
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
