"""End-to-end acceptance suite.

Each test prints one ``[criterion NN] ... : PASS`` line on success (visible
with ``pytest -s`` or in the captured output); the test outcome itself is
the pass/fail verdict.  Shared runs are computed once in module-scoped
fixtures so the descent-inequality criterion can audit the same traces the
convergence criteria produced.
"""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from gradsamp import (
    CantorStressProblem,
    CoverageProblem,
    GsParams,
    Rng,
    StepKind,
    Termination,
    cantor_stress_oracle,
    finite_max_oracle,
    gradient_descent_baseline,
    make_coverage_oracle,
    min_norm_point,
    run,
)
from gradsamp.cli import run_experiment
from gradsamp.coverage import inner_lp_max
from oracles import abs_value_problem, bump_d2, min_norm_bruteforce, two_agent_cost

SEED = 42
CENTER = np.array([1.0, 3.0])


def _report(num, name):
    print(f"[criterion {num:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def two_agent_oracle():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    return make_coverage_oracle(prob)


@pytest.fixture(scope="module")
def two_agent_runs(two_agent_oracle):
    """Sampling-solver and plain-GD traces from 10 fixed random starts."""
    gen = np.random.Generator(np.random.Philox(SEED))
    starts = gen.random((10, 2)) * np.array([2.0, 2.0]) + np.array([0.0, 2.0])
    p = GsParams(max_iters=5000, eps_min=1e-3, nu_min=1e-3)
    samp, gd = [], []
    for i, x1 in enumerate(starts):
        samp.append(run(two_agent_oracle, p, x1, Rng(SEED + i)))
        gd.append(gradient_descent_baseline(two_agent_oracle, p, x1))
    return p, starts, samp, gd


@pytest.fixture(scope="module")
def five_agent_run():
    prob = CoverageProblem(
        n_agents=5, bin_edges=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        theta_lower=(0.02, 0.05, 0.10, 0.03, 0.08, 0.02),
        theta_upper=(0.30, 0.25, 0.35, 0.20, 0.30, 0.25),
        penalty_enabled=True, penalty_weight=1.0)
    oracle = make_coverage_oracle(prob)
    x1 = np.array([-1.0, 1.5, 3.0, 4.5, 7.0])
    p = GsParams(m=7, max_iters=1500, eps_min=1e-3, nu_min=1e-3)
    return p, x1, run(oracle, p, x1, Rng(7))


def test_criterion_01_two_agent_convergence(two_agent_runs):
    _, _, samp, _ = two_agent_runs
    for tr in samp:
        assert len(tr.records) <= 5000
        assert np.linalg.norm(np.asarray(tr.final_x) - CENTER) <= 0.05
    _report(1, "two-agent runs converge to (1,3) within 0.05")


def test_criterion_02_gd_baseline_stalls(two_agent_runs):
    _, _, samp, gd = two_agent_runs
    wins = 0
    for tr, base in zip(samp, gd):
        if (base.termination == Termination.STALLED
                and base.final_f >= tr.final_f + 1e-3):
            wins += 1
    assert wins >= 8, f"GD beat or matched the sampling solver on {10 - wins} of 10 starts"
    _report(2, f"plain GD stalls above the sampling solver on {wins}/10 starts")


def test_criterion_03_five_agent_attractivity(five_agent_run):
    p, x1, tr = five_agent_run
    final = np.asarray(tr.final_x)
    assert np.all(final > 0.0) and np.all(final < 6.0)
    # Every iterate stays in the product of balls around [0,6] of radius
    # tau* + eps1, where tau* bounds both the step size and the start's
    # distance to the support.
    tau_star = max(p.t_init_factor * p.eps1,
                   float(np.max(np.maximum(0.0, np.maximum(-x1, x1 - 6.0)))))
    lo, hi = -(tau_star + p.eps1), 6.0 + (tau_star + p.eps1)
    for r in tr.records:
        assert np.all(r.x >= lo) and np.all(r.x <= hi)
    assert np.all(final >= lo) and np.all(final <= hi)
    _report(3, "five-agent run ends strictly inside [0,6] and never "
               f"leaves [{lo:g},{hi:g}]")


def test_criterion_04_descent_inequality(two_agent_runs, five_agent_run):
    p2, _, samp, _ = two_agent_runs
    p5, _, tr5 = five_agent_run
    checked = 0
    for p, tr in [(p2, t) for t in samp] + [(p5, tr5)]:
        fs = [r.f_approx for r in tr.records] + [tr.final_f]
        for i, r in enumerate(tr.records):
            if r.t > 0.0:
                bound = fs[i] - p.alpha * p.beta * r.t * r.g_norm
                assert fs[i + 1] <= bound + 1e-9 * (1.0 + abs(fs[i]))
                checked += 1
    assert checked > 0
    _report(4, f"sufficient decrease held on all {checked} accepted steps")


def test_criterion_05_tolerance_decay(two_agent_oracle):
    p = GsParams(max_iters=10_000)
    tr = run(two_agent_oracle, p, np.array([0.5, 3.5]), Rng(SEED))
    assert tr.final_eps <= 0.1 * p.eps1
    assert tr.final_nu <= 0.1 * p.nu1
    _report(5, f"after 10000 iterations eps/eps1={tr.final_eps / p.eps1:.2e}, "
               f"nu/nu1={tr.final_nu / p.nu1:.2e}")


def test_criterion_06_min_norm_oracle_equivalence():
    gen = np.random.Generator(np.random.Philox(SEED))
    for _ in range(100):
        n = int(gen.integers(1, 4))
        m = int(gen.integers(1, 6))
        pts = gen.uniform(-10.0, 10.0, size=(m, n))
        res = min_norm_point(list(pts))
        brute = min_norm_bruteforce(list(pts), 1e-3)
        v_solver = float(np.linalg.norm(res.point))
        v_lattice = float(np.linalg.norm(brute))
        # The solver must never lose to the lattice; the lattice may sit
        # above the true optimum by its certified discretization error
        # diameter * resolution * m (dominant when 0 lies in the hull).
        assert v_solver <= v_lattice + 1e-4
        diam = float(np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :],
                                           axis=2)))
        assert v_lattice - v_solver <= max(1e-4, diam * 1e-3 * m)
        assert res.gap <= 1e-10
    _report(6, "min-norm solver matched the lattice oracle on 100 instances "
               "within its discretization bound")


def test_criterion_07_gradient_correctness():
    gen = np.random.Generator(np.random.Philox(SEED))
    checked = 0
    while checked < 1000:
        N = int(gen.integers(1, 6))
        K = int(gen.integers(1, 7))
        edges = tuple(float(k) for k in range(K + 1))
        hi = gen.uniform(1.0 / K, 3.0 / K, size=K)
        lo = hi * gen.uniform(0.0, 0.5, size=K)
        scale = min(1.0, 1.0 / float(lo.sum()) * 0.9) if lo.sum() > 0 else 1.0
        lo = lo * scale
        if float(hi.sum()) < 1.0:
            continue
        prob = CoverageProblem(n_agents=N, bin_edges=edges,
                               theta_lower=tuple(lo), theta_upper=tuple(hi),
                               penalty_enabled=bool(gen.integers(0, 2)))
        x = gen.uniform(-0.5, K + 0.5, size=N)
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        if not _well_inside_D(prob, x, 10.0 * h):
            continue
        resid = 1.0 - float(lo @ prob.widths)
        theta = np.asarray(lo) + resid / float((hi - lo) @ prob.widths) * (hi - lo)
        oracle = make_coverage_oracle(prob)
        g = oracle.grad_x_F(x, theta)
        fd = np.zeros(N)
        for i in range(N):
            e = np.zeros(N)
            e[i] = h
            fd[i] = (oracle.eval_F(x + e, theta) - oracle.eval_F(x - e, theta)) / (2 * h)
        denom = max(1.0, float(np.linalg.norm(g)))
        assert np.linalg.norm(g - fd) / denom <= 1e-6
        checked += 1
    _report(7, "analytic gradients matched finite differences at 1000 points")


def _well_inside_D(prob, x, margin):
    """True when x is in D with every excluded hyperplane at least
    ``margin`` away, so a finite-difference stencil stays on one piece."""
    xs = np.sort(np.asarray(x, dtype=float))
    edges = np.asarray(prob.bin_edges)
    if np.any(np.abs(xs[:, None] - edges[None, :]) < margin):
        return False
    if xs.size > 1:
        if np.any(np.diff(xs) < margin):
            return False
        mids = (xs[:-1] + xs[1:]) / 2.0
        if np.any(np.abs(mids[:, None] - edges[None, :]) < margin):
            return False
    return make_coverage_oracle(prob).in_D(x)


def _random_feasible_thetas(gen, lo, hi, w, mass, count):
    """Uniform-ish feasible points: one hit-and-run step from the interior
    point on the segment [lo, hi] meeting the mass equality."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    lam = (mass - float(lo @ w)) / max(float((hi - lo) @ w), 1e-300)
    base = lo + lam * (hi - lo)
    dirs = gen.standard_normal((count, lo.size))
    dirs -= np.outer(dirs @ w, w) / float(w @ w)  # stay on the mass plane
    # Step range along each direction that keeps every coordinate in its box;
    # coordinates the direction (nearly) does not move impose no limit.
    pos, neg = dirs > 1e-15, dirs < -1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        to_hi, to_lo = (hi - base) / dirs, (lo - base) / dirs
    t_hi = np.min(np.where(pos, to_hi, np.where(neg, to_lo, np.inf)), axis=1)
    t_lo = np.max(np.where(pos, to_lo, np.where(neg, to_hi, -np.inf)), axis=1)
    ok = np.isfinite(t_lo) & np.isfinite(t_hi) & (t_hi > t_lo)
    t = gen.uniform(np.where(ok, t_lo, 0.0), np.where(ok, t_hi, 0.0))
    return np.clip(base + t[:, None] * dirs, lo, hi)


def test_criterion_08_inner_lp_exactness():
    gen = np.random.Generator(np.random.Philox(SEED))
    instances = 0
    while instances < 100:
        K = int(gen.integers(2, 5))
        edges = np.concatenate([[0.0], np.cumsum(gen.uniform(0.5, 2.0, size=K))])
        w = np.diff(edges)
        hi = gen.uniform(0.2, 1.5, size=K)
        lo = hi * gen.uniform(0.0, 0.6, size=K)
        mass = float(gen.uniform(lo @ w, hi @ w))
        if not (lo @ w < mass < hi @ w):
            continue
        prob = CoverageProblem(n_agents=1, bin_edges=tuple(edges),
                               theta_lower=tuple(lo), theta_upper=tuple(hi),
                               total_mass=mass)
        c = gen.uniform(0.0, 10.0, size=K)
        theta = inner_lp_max(prob, c)
        val = float(c @ theta)
        # Lattice brute force over the first K-1 coordinates; the last is
        # pinned by the mass equality.
        axes = [np.linspace(lo[j], hi[j], 31) for j in range(K - 1)]
        grids = np.meshgrid(*axes, indexing="ij")
        head = np.stack([g.ravel() for g in grids], axis=1)
        last = (mass - head @ w[:-1]) / w[-1]
        ok = (last >= lo[-1] - 1e-12) & (last <= hi[-1] + 1e-12)
        if np.any(ok):
            cand = np.column_stack([head[ok], np.clip(last[ok], lo[-1], hi[-1])])
            assert val >= float(np.max(cand @ c)) - 1e-6
        samples = _random_feasible_thetas(gen, lo, hi, w, mass, 10_000)
        assert val >= float(np.max(samples @ c)) - 1e-9
        instances += 1
    _report(8, "greedy LP dominated grid and 10^4 random feasible points "
               "on 100 instances")


def test_criterion_09_two_agent_closed_form(two_agent_oracle):
    gen = np.random.Generator(np.random.Philox(SEED))
    for _ in range(1000):
        x = np.array([gen.uniform(0.0, 2.0), gen.uniform(2.0, 4.0)])
        cf = two_agent_cost((0.0, 0.45), (0.0, 0.45), x)
        assert abs(cf - two_agent_oracle.objective(x)) <= 1e-10
    _report(9, "closed-form two-agent cost equals the LP pipeline at "
               "1000 points")


def test_criterion_10_determinism(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "two_agent.json"
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(str(config), out_dir=str(a), max_iters=300) == 0
    assert run_experiment(str(config), out_dir=str(b), max_iters=300) == 0
    assert filecmp.cmp(a / "trace.csv", b / "trace.csv", shallow=False)
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    _report(10, "repeated runs produced byte-identical trace.csv")


def test_criterion_11_finite_max_and_stress_sanity():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams(max_iters=2000, eps_min=1e-3, nu_min=1e-3)
    tr = run(oracle, p, np.array([1.0]), Rng(SEED))
    assert abs(float(np.asarray(tr.final_x)[0])) <= 0.01
    assert tr.final_nu <= 0.01

    stress = cantor_stress_oracle(CantorStressProblem(depth=6))
    from gradsamp.testfns import bump, bump_d1
    u = np.linspace(-1.0, 1.0, 100_001)
    for k in range(1, 7):
        mids, delta, eps_k, _ = stress.level(k)
        assert np.max(np.abs(eps_k * bump(u))) <= 1.0 / k
        assert np.max(np.abs(eps_k / delta * bump_d1(u))) <= 1.0 / k
        assert np.max(np.abs(eps_k / delta ** 2 * bump_d2(u))) <= 1.0 / k
    _report(11, "abs-value run reached |x| <= 0.01 and stress-function "
                "derivative bounds <= 1/k held at depth 6")
