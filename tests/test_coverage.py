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
    inner_lp_max,
    make_coverage_oracle,
    penalty,
)
from gradsamp import ProblemOracle, coverage
from oracles import (
    excluded_hyperplanes,
    reference_c_jacobian,
    reference_c_vector,
    reference_grad_x,
    reference_lp_max,
    theta_feasible,
    two_agent_cost,
)


def _c(prob, x):
    """The per-bin cost c(x), from a fresh partition."""
    _, xs, segments = coverage._partition(prob, x)
    return coverage._cost(xs, segments, prob.n_bins)


def _jacobian(prob, x):
    """dc/dx (n_bins x n_agents), from a fresh partition."""
    return coverage._jacobian(prob, *coverage._partition(prob, x))


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
        assert _in_D(prob, x)
        theta = gen.uniform(0.0, 1.0, size=K)
        J = _jacobian(prob, x)
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


def test_penalty_slope_one_pass_matches_two_masks():
    """The hinge slope, for a point and for a block of rows, equals byte
    for byte the sum of a mask below the support and one above it, on the
    support's ends, one float either side of them, and far away."""
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
    """c, J, the gradient and the oracle's answers equal, byte for byte, the
    per-bin bisect partition with a list-of-lists Jacobian, and the
    gradient raises on exactly the same points."""
    inside = outside = repeated = 0
    for prob, x, theta in _reference_cases():
        case = (prob.bin_edges, prob.penalty_enabled, x.tolist())
        c = reference_c_vector(prob, x)
        assert _c(prob, x).tobytes() == c.tobytes(), case
        assert (_jacobian(prob, x).tobytes()
                == reference_c_jacobian(prob, x).tobytes()), case
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
    """A coverage bundle evaluated as one block gives, byte for byte, the
    gradients of the point-by-point walk, and stops before the same first
    point outside D.  Each bundle holds a _reference_cases() point and
    copies of it moved by half units, by 1e-15 and by a few ulps, so it
    repeats agents, puts midpoints on edges and clusters cuts; bundle sizes
    fall on both sides of the selection threshold.  Then at N = 50, in
    several chunks, with a miss of D in a middle chunk."""
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

    # Every reference point in D on its own, repeated past the threshold:
    # among them, segments whose centre rounds onto alpha.  And a pair whose
    # midpoint rounds onto an edge though their sum is not twice the edge,
    # next to a bin so narrow that its theta makes subnormal cells show.
    corner = CoverageProblem(n_agents=2, bin_edges=(0.0, 1e-300, 1.0),
                             theta_lower=(0.5e300, 0.0), theta_upper=(1e300, 1.0))
    tiny = np.array([-1.0, 2.0]) * np.nextafter(0.0, 1.0)
    assert (tiny[0] + tiny[1]) / 2.0 == 0.0 and _in_D(corner, tiny)
    alone = [(prob, x) for prob, x, _ in _reference_cases() if _in_D(prob, x)]
    # The LP with no mass to fill above the lower bounds, and with rooms
    # without bound.
    lps = [CoverageProblem(n_agents=3, bin_edges=(0.0, 1.0, 2.0, 4.0),
                           theta_lower=lower, theta_upper=upper)
           for lower, upper in (((0.25,) * 3, (0.25,) * 3),
                                ((0.0, 0.1, 0.0), (np.inf, np.inf, 0.3)))]
    for prob, x in alone + [(corner, tiny)] + [(p, np.array([0.3, 1.6, 3.1])) for p in lps]:
        oracle = make_coverage_oracle(prob)
        points = [x] * -(-coverage._BLOCK_MIN // (prob.n_agents + prob.n_bins))
        blocks.clear()
        got = [g.tobytes() for g in oracle.sample_gradients(points)]
        assert got == _per_point(oracle, points), (prob.bin_edges, x.tolist())
        assert blocks and len(got) == len(points)
    assert len(alone) >= 1000

    K = 100
    prob = CoverageProblem(n_agents=50, bin_edges=tuple(float(e) for e in range(K + 1)),
                           theta_lower=tuple(gen.uniform(0.0, 0.5, K) / K),
                           theta_upper=tuple(gen.uniform(1.5, 3.0, K) / K),
                           penalty_enabled=True)
    oracle = make_coverage_oracle(prob)
    x = np.sort(gen.uniform(-5.0, 105.0, 50))
    points = [x + gen.normal(0.0, 0.3, 50) for _ in range(52)]
    blocks.clear()
    assert [g.tobytes() for g in oracle.sample_gradients(points)] == _per_point(oracle, points)
    chunks = len(blocks)
    assert chunks > 2 and sum(blocks) == 52
    points[30][7] = 31.0  # an agent on an edge
    blocks.clear()
    got = [g.tobytes() for g in oracle.sample_gradients(points)]
    assert got == _per_point(oracle, points) and len(got) == 30
    assert len(blocks) < chunks  # no chunk after the miss is evaluated


# -- the oracle's last-point memo --------------------------------------------

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
    prob, gen = _memo_problem()
    oracle = make_coverage_oracle(prob)
    x1, x2 = gen.uniform(-0.5, 8.5, size=6), gen.uniform(-0.5, 8.5, size=6)
    theta = gen.uniform(0.05, 0.3, size=8)
    for x in (x1, x2, x1, x1, x2):
        assert _in_D(prob, x)
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
