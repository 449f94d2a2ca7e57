"""Sampling, line search, single steps, full runs, and the GD baseline."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from gradsamp import (
    CoverageProblem,
    GsParams,
    MaxPiece,
    FiniteMaxProblem,
    NonsmoothPolicy,
    NonsmoothSampleError,
    ProblemOracle,
    Rng,
    StepKind,
    Termination,
    finite_max_oracle,
    gradient_descent_baseline,
    make_coverage_oracle,
    run,
)
from gradsamp import driver
from gradsamp.cli import build_params, build_problem_oracle, run_experiment
from gradsamp.core import GsState
from gradsamp.driver import line_search, sample_ball, step
from gradsamp.minnorm import NonFiniteError, min_norm_point
from gradsamp.testfns import FiniteMaxOracle

from oracles import abs_value_problem, reference_ball_points

REPO = Path(__file__).resolve().parents[1]


def test_rng_repeatable():
    a = Rng(99)
    b = Rng(99)
    for got, want in zip(a.ball_draws(3, 8), b.ball_draws(3, 8)):
        np.testing.assert_array_equal(got, want)


def test_rng_rejects_a_seed_that_is_not_a_count():
    """A float or bool seed is not truncated or coerced, and a negative one
    is refused by name rather than by the bit generator."""
    for seed in (1.9, 1.0, True, -1, "3"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            Rng(seed)
    assert Rng(np.int64(5)).seed == 5
    np.testing.assert_array_equal(Rng(np.uint32(5)).ball_draws(2, 4)[0],
                                  Rng(5).ball_draws(2, 4)[0])


# -- sample_ball -------------------------------------------------------------

def test_sample_ball_radius_bound_exact():
    rng = Rng(1)
    c = np.array([1.0, -2.0, 0.5])
    for pt in sample_ball(c, 0.7, 500, rng):
        assert np.linalg.norm(pt - c) <= 0.7


def test_sample_ball_empirical_mean():
    rng = Rng(2)
    c = np.array([3.0, -1.0])
    r = 2.0
    pts = np.array(sample_ball(c, r, 10_000, rng))
    assert np.all(np.abs(pts.mean(axis=0) - c) <= 3.0 * r / math.sqrt(10_000))


def test_sample_ball_radial_distribution_2d():
    rng = Rng(3)
    pts = np.array(sample_ball(np.zeros(2), 1.0, 100_000, rng))
    frac = np.mean(np.linalg.norm(pts, axis=1) <= 0.5)
    assert abs(frac - 0.25) <= 0.01  # area ratio 0.5^2 in 2-D


class _Draws:
    """Stands in for Rng with the given Gaussian rows and uniforms."""

    def __init__(self, z, u):
        self.z, self.u = z, u

    def ball_draws(self, count, n):
        assert (count, n) == self.z.shape
        return self.z, self.u


def test_sample_ball_builds_point_i_from_row_i_of_one_block_draw():
    """Sample i is center + radius * u_i**(1/n) * z_i / ||z_i||, where z
    and u are the Gaussian rows and uniforms of one ball_draws(count, n)
    call, to within rounding, and byte for byte the reference that
    re-checks every row's radius: on Rng draws, and on draws whose
    u**(1/n) rounds to 1 (where rows can round past the sphere), with a
    zero row and u = 0, at radii inside and outside (1e-150, 1e150), for
    n = 1, 2, 50 and 400."""
    c = np.array([1.0, -2.0, 0.5])
    got = sample_ball(c, 0.7, 50, Rng(4))
    z, u = Rng(4).ball_draws(50, 3)
    for pt, zi, ui in zip(got, z, u):
        want = c + 0.7 * ui ** (1.0 / 3.0) * zi / np.linalg.norm(zi)
        np.testing.assert_allclose(pt, want, rtol=0.0, atol=4e-15)
    assert got.tobytes() == reference_ball_points(c, 0.7, z, u).tobytes()
    gen = np.random.Generator(np.random.Philox(5))
    for n in (1, 2, 50, 400):
        c = gen.normal(size=n)
        z, u = Rng(n).ball_draws(40, n)
        for radius in (0.7, 1e-160, 1e160):
            assert (sample_ball(c, radius, 40, Rng(n)).tobytes()
                    == reference_ball_points(c, radius, z, u).tobytes())
        z = gen.standard_normal((40, n))
        z[0] = 0.0
        u = 1.0 - gen.integers(0, 2 * n, 40) * 2.0**-53
        u[1] = 0.0
        assert np.count_nonzero(u ** (1.0 / n) == 1.0) >= 4
        for radius in (0.7, 3.0, 1e-160, 1e160):
            assert (sample_ball(c, radius, 40, _Draws(z, u)).tobytes()
                    == reference_ball_points(c, radius, z, u).tobytes())


def test_sample_ball_validation():
    with pytest.raises(ValueError):
        sample_ball(np.zeros(2), 0.0, 1, Rng(0))
    with pytest.raises(ValueError):
        sample_ball(np.zeros(2), 1.0, 0, Rng(0))


# -- sample_gradients --------------------------------------------------------

def test_bundle_abs_value_signs():
    oracle = finite_max_oracle(abs_value_problem())
    g = oracle.sample_gradients([np.array([0.3]), np.array([0.7])])
    np.testing.assert_allclose(g, [[1.0], [1.0]])
    g = oracle.sample_gradients([np.array([-0.3]), np.array([0.7])])
    np.testing.assert_allclose(g, [[-1.0], [1.0]])


# -- line_search -------------------------------------------------------------

def test_line_search_accepts_first_trial_on_smooth_descent():
    # Single quadratic piece: smooth strongly convex, so the first (small)
    # trial along the negated gradient always satisfies sufficient decrease.
    prob = FiniteMaxProblem(pieces=(MaxPiece(a=(0.0, 0.0),
                                             Q=((1.0, 0.0), (0.0, 1.0))),))
    oracle = finite_max_oracle(prob)
    x = np.array([1.0, 1.0])
    grad = x  # gradient of 0.5||x||^2
    d = -grad / np.linalg.norm(grad)
    out = line_search(oracle, x, oracle.objective(x), d, float(np.linalg.norm(grad)),
                      0.01, GsParams())
    assert out.accepted and out.trials == 1
    assert out.t == pytest.approx(GsParams().t_init_factor * 0.01)


def test_line_search_abs_value_hand_example():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams(beta=0.5, t_init_factor=1.0 / 3.0)
    eps_k = 0.9  # t_init = 0.3
    x = np.array([0.5])
    out = line_search(oracle, x, oracle.objective(x), np.array([-1.0]), 1.0, eps_k, p)
    assert out.accepted and out.t == pytest.approx(0.3)
    # Accepted because f(0.2) = 0.2 <= 0.5 - 0.5*0.3 + c_k/2 with c_k >= 0.


def test_line_search_ascent_direction_exhausts_trials():
    prob = FiniteMaxProblem(pieces=(MaxPiece(a=(1.0,)),))  # f(x) = x, smooth
    oracle = finite_max_oracle(prob)
    p = GsParams()
    eps_k = 0.2
    x = np.array([0.0])
    out = line_search(oracle, x, oracle.objective(x), np.array([1.0]), 1.0, eps_k, p)
    assert not out.accepted and out.t == 0.0
    # Trial count: replay the backtracking schedule t_init, gamma*t_init,
    # ... until the next trial would undercut the floor gamma*eps_k/3.
    t = p.t_init_factor * eps_k
    t_min = p.gamma * eps_k / 3.0
    expected = 1
    while not (p.gamma * t < t_min):
        t *= p.gamma
        expected += 1
    assert out.trials == expected
    assert expected >= 2  # the floor admits at least one backtrack here


def test_line_search_requires_unit_direction():
    oracle = finite_max_oracle(abs_value_problem())
    with pytest.raises(ValueError):
        x = np.array([0.5])
        line_search(oracle, x, oracle.objective(x), np.array([-2.0]), 1.0, 0.1,
                    GsParams())


# -- step --------------------------------------------------------------------

def test_step_null_tolerance_branch():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams()
    state = GsState(k=1, x=np.array([0.5]), eps=0.05, nu=10.0)  # nu >= ||g||
    new, rec = step(oracle, state, p, Rng(7))
    assert rec.step_kind == StepKind.NULL_TOLERANCE
    assert rec.t == 0.0
    np.testing.assert_array_equal(new.x, state.x)
    assert new.eps == pytest.approx(p.mu * state.eps)
    assert new.nu == pytest.approx(p.vartheta * state.nu)


def test_step_descent_branch_decreases_f():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams()
    state = GsState(k=1, x=np.array([1.0]), eps=0.2, nu=0.1)
    new, rec = step(oracle, state, p, Rng(8))
    assert rec.step_kind == StepKind.DESCENT
    assert float(new.x[0]) < 1.0
    f_new = oracle.objective(new.x)
    assert f_new <= rec.f_approx - p.alpha * p.beta * rec.t * rec.g_norm + 1e-12


def test_step_stop_policy_raises_on_nonsmooth_sample():
    class AlwaysOutside(type(finite_max_oracle(abs_value_problem()))):
        sample_gradients = ProblemOracle.sample_gradients  # asks in_D

        def in_D(self, x):
            return False

    oracle = AlwaysOutside(abs_value_problem())
    state = GsState(k=1, x=np.array([1.0]), eps=0.2, nu=0.1)
    with pytest.raises(NonsmoothSampleError):
        step(oracle, state, GsParams(), Rng(9))


def test_step_resample_policy_redraws_offenders():
    base = finite_max_oracle(abs_value_problem())

    class FlakyD(type(base)):
        sample_gradients = ProblemOracle.sample_gradients  # asks in_D

        def __init__(self, prob):
            super().__init__(prob)
            self.calls = 0

        def in_D(self, x):
            self.calls += 1
            return self.calls > 2  # first two membership checks fail

    oracle = FlakyD(abs_value_problem())
    p = GsParams(on_nonsmooth_sample=NonsmoothPolicy.RESAMPLE)
    state = GsState(k=1, x=np.array([1.0]), eps=0.2, nu=0.1)
    new, rec = step(oracle, state, p, Rng(10))
    assert rec.sample_count > p.effective_m(1)  # extra draws happened


def test_resample_policy_gives_up_after_capped_redraws():
    """With D empty near x, 'resample' ends the run with NonsmoothSampleStop
    after a bounded number of redraws instead of looping for ever."""

    class NeverInD(FiniteMaxOracle):
        sample_gradients = ProblemOracle.sample_gradients  # asks in_D
        calls = 0

        def in_D(self, x):
            self.calls += 1
            if self.calls > 10_000:  # fail instead of hanging
                raise AssertionError("redraws of one sample are unbounded")
            return False

    oracle = NeverInD(abs_value_problem())
    p = GsParams(on_nonsmooth_sample=NonsmoothPolicy.RESAMPLE, max_iters=3)
    tr = run(oracle, p, np.array([1.0]), Rng(11))
    assert tr.termination == Termination.NONSMOOTH_SAMPLE_STOP
    assert oracle.calls == 101  # the first draw and 100 redraws


class _Logged(ProblemOracle):
    """Logs every call with its point; misses D as a verdict list says, and
    its gradient at a point is the point itself."""

    dim = 2
    theta_dim = 1

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)
        self.calls = []

    def in_D(self, x):
        self.calls.append(("in_D", x.tobytes()))
        return self.verdicts.pop(0)

    def inner_max(self, x):
        self.calls.append(("inner_max", x.tobytes()))
        return np.array([0.0])

    def grad_x_F(self, x, theta):
        self.calls.append(("grad_x_F", x.tobytes()))
        return x.copy()


class _Bundled(Exception):
    pass


def _stop_at_min_norm(monkeypatch):
    bundles = []

    def capture(grads):
        bundles.append([g.copy() for g in grads])
        raise _Bundled

    monkeypatch.setattr(driver, "min_norm_point", capture)
    return bundles


def test_step_tests_and_evaluates_each_sample_in_turn(monkeypatch):
    """Each sample is tested for D, redrawn while it misses, then evaluated
    before the next one is tested.  The draws keep their documented order,
    all m ball samples first and the redraws after them in index order, so
    the bundle is the one of testing every sample before evaluating any."""
    misses = {1: 1, 3: 2}  # sample index -> D tests it fails in a row
    x = np.array([1.0, 0.5])
    state = GsState(k=1, x=x, eps=0.2, nu=0.1)
    p = GsParams(on_nonsmooth_sample=NonsmoothPolicy.RESAMPLE)
    m = p.effective_m(2)
    rng = Rng(21)
    samples = sample_ball(x, state.eps, m, rng)
    calls, bundle, verdicts = [], [], []
    for i, s in enumerate(samples):
        for _ in range(misses.get(i, 0)):
            calls.append(("in_D", s.tobytes()))
            verdicts.append(False)
            s = sample_ball(x, state.eps, 1, rng)[0]
        calls += [("in_D", s.tobytes()), ("inner_max", s.tobytes()),
                  ("grad_x_F", s.tobytes())]
        verdicts.append(True)
        bundle.append(s)

    oracle = _Logged(verdicts)
    bundles = _stop_at_min_norm(monkeypatch)
    with pytest.raises(_Bundled):
        step(oracle, state, p, Rng(21))
    assert oracle.calls == calls and oracle.verdicts == []
    assert [g.tobytes() for g in bundles[0]] == [s.tobytes() for s in bundle]


def test_step_stop_policy_evaluates_the_samples_before_the_miss(monkeypatch):
    x = np.array([1.0, 0.5])
    state = GsState(k=1, x=x, eps=0.2, nu=0.1)
    samples = sample_ball(x, state.eps, 4, Rng(22))
    oracle = _Logged([True, True, False])
    bundles = _stop_at_min_norm(monkeypatch)
    with pytest.raises(NonsmoothSampleError):
        step(oracle, state, GsParams(), Rng(22))
    assert oracle.calls == [(name, s.tobytes()) for s in samples[:2]
                            for name in ("in_D", "inner_max", "grad_x_F")] + [
        ("in_D", samples[2].tobytes())]
    assert bundles == []


def test_step_draws_only_the_ball_samples():
    """Draw-order contract: a step whose samples all land in D consumes
    exactly one (m, n) block of Gaussians and then m uniforms."""
    oracle = finite_max_oracle(FiniteMaxProblem(pieces=(
        MaxPiece(a=(1.0, 0.0, 0.0)), MaxPiece(a=(-1.0, 0.0, 0.0)))))
    p = GsParams()
    x = np.array([1.0, 0.5, -0.5])
    state = GsState(k=1, x=x, eps=0.2, nu=0.1)
    stepped = Rng(12)
    _, rec = step(oracle, state, p, stepped)
    m = p.effective_m(3)
    assert rec.step_kind == StepKind.DESCENT and rec.sample_count == m
    fresh = np.random.Generator(np.random.Philox(12))
    fresh.standard_normal((m, 3))
    fresh.random(m)
    z, u = stepped.ball_draws(2, 3)
    np.testing.assert_array_equal(z, fresh.standard_normal((2, 3)))
    np.testing.assert_array_equal(u, fresh.random(2))


# -- bundle reuse after a NullLineSearch -------------------------------------

def test_kept_gradients_lead_the_bundle_and_leave_the_sampling_alone(monkeypatch):
    """A state that carries gradients puts them before the fresh ones in the
    QP, and changes nothing else: the same oracle calls on the same points,
    with a miss of D redrawn, and the same draws from the stream."""
    x = np.array([1.0, 0.5])
    kept = (np.array([3.0, -1.0]), np.array([-2.0, 4.0]))
    p = GsParams(on_nonsmooth_sample=NonsmoothPolicy.RESAMPLE)
    runs = []
    for carried in (kept, ()):
        oracle = _Logged([True, False, True, True, True])
        bundles = _stop_at_min_norm(monkeypatch)
        rng = Rng(31)
        with pytest.raises(_Bundled):
            step(oracle, GsState(k=4, x=x, eps=0.2, nu=0.1, kept=carried), p, rng)
        runs.append((oracle.calls, bundles[0], rng.ball_draws(2, 2)))
    (calls_on, bundle_on, next_on), (calls_off, bundle_off, next_off) = runs
    assert calls_on == calls_off
    assert [g.tobytes() for g in bundle_on] == [g.tobytes() for g in kept + tuple(bundle_off)]
    for a, b in zip(next_on, next_off):
        np.testing.assert_array_equal(a, b)


def _five_agent():
    cfg = json.loads((REPO / "configs" / "five_agent.json").read_text())
    return (build_problem_oracle(cfg["problem"]), build_params(cfg["params"]),
            np.array(cfg["x1"]), cfg["seed"])


def test_reuse_carries_only_a_null_line_search_steps_fresh_gradients(monkeypatch):
    """Over the five-agent run from its config: the QP after a NullLineSearch
    gets that step's m fresh gradients and then its own m fresh ones;
    after a Descent or a NullTolerance, its own m only.  Each step draws
    exactly m ball samples."""
    oracle, p, x1, seed = _five_agent()
    m = p.effective_m(oracle.dim)
    fresh, bundles, draws = [[]], [], [0]
    sample_gradients, ball_draws = oracle.sample_gradients, Rng.ball_draws

    def logged_gradients(points):
        got = sample_gradients(points)
        fresh[-1] += [g.tobytes() for g in got]
        return got

    def logged_min_norm(points):
        bundles.append([g.tobytes() for g in points])
        fresh.append([])
        draws.append(0)
        return min_norm_point(points)

    def logged_draws(rng, count, n):
        draws[-1] += count
        return ball_draws(rng, count, n)

    monkeypatch.setattr(oracle, "sample_gradients", logged_gradients)
    monkeypatch.setattr(driver, "min_norm_point", logged_min_norm)
    monkeypatch.setattr(Rng, "ball_draws", logged_draws)
    tr = run(oracle, p, x1, Rng(seed))
    kinds = [r.step_kind for r in tr.records]
    assert tr.termination == Termination.TOLERANCES_REACHED
    assert len(bundles) == len(kinds) and draws[:-1] == [m] * len(kinds)
    follows = set()
    for i, (rec, bundle) in enumerate(zip(tr.records, bundles)):
        assert bundle[-m:] == fresh[i] and len(fresh[i]) == m and rec.sample_count == m
        if i > 0 and kinds[i - 1] == StepKind.NULL_LINESEARCH:
            assert bundle[:-m] == bundles[i - 1][-m:]
            follows.add(kinds[i])
        else:
            assert len(bundle) == m
    assert follows == set(StepKind)  # each kind of step has followed one


# -- run ---------------------------------------------------------------------

def test_run_zero_iters_gives_initial_record():
    oracle = finite_max_oracle(abs_value_problem())
    tr = run(oracle, GsParams(max_iters=0), np.array([1.0]), Rng(11))
    assert tr.termination == Termination.MAX_ITERS
    assert len(tr.records) == 1
    np.testing.assert_array_equal(tr.records[0].x, [1.0])


def test_run_step_quantization():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams(max_iters=300)
    tr = run(oracle, p, np.array([1.0]), Rng(12))
    for r in tr.records:
        if r.t != 0.0:
            assert p.gamma * r.eps / 3.0 - 1e-15 <= r.t
            assert r.t <= p.t_init_factor * r.eps + 1e-15


def test_run_null_steps_preserve_iterate():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams(max_iters=300)
    tr = run(oracle, p, np.array([1.0]), Rng(13))
    xs = [r.x for r in tr.records] + [np.asarray(tr.final_x)]
    for r, x_next in zip(tr.records, xs[1:]):
        if r.step_kind != StepKind.DESCENT:
            np.testing.assert_array_equal(r.x, x_next)


def test_run_tolerances_nonincreasing():
    oracle = finite_max_oracle(abs_value_problem())
    tr = run(oracle, GsParams(max_iters=300), np.array([1.0]), Rng(14))
    eps = [r.eps for r in tr.records]
    nu = [r.nu for r in tr.records]
    assert all(b <= a for a, b in zip(eps, eps[1:]))
    assert all(b <= a for a, b in zip(nu, nu[1:]))


def test_run_deterministic_given_seed():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams(max_iters=150)
    a = run(oracle, p, np.array([1.0]), Rng(15))
    b = run(oracle, p, np.array([1.0]), Rng(15))
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.x, rb.x)
        assert ra.f_approx == rb.f_approx
        assert ra.t == rb.t and ra.g_norm == rb.g_norm


def test_run_tolerance_stopping():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams(max_iters=5000, eps_min=1e-3, nu_min=1e-3)
    tr = run(oracle, p, np.array([1.0]), Rng(16))
    assert tr.termination == Termination.TOLERANCES_REACHED
    assert tr.final_eps <= 1e-3 and tr.final_nu <= 1e-3


def test_run_rejects_nonfinite_start():
    """Both solvers refuse a NaN or infinite start by name, before the
    oracle sees it, on a finite max and on a coverage problem."""
    coverage = make_coverage_oracle(CoverageProblem(
        n_agents=2, bin_edges=(0.0, 2.0, 4.0), theta_lower=(0.0, 0.0),
        theta_upper=(0.45, 0.45)))
    for oracle, x1 in ((finite_max_oracle(abs_value_problem()), [1.0]),
                       (coverage, [1.0, 3.0])):
        for bad in (np.nan, np.inf, -np.inf):
            x = np.array(x1)
            x[0] = bad
            with pytest.raises(ValueError, match="x1 must be finite"):
                run(oracle, GsParams(), x, Rng(17))
            with pytest.raises(ValueError, match="x1 must be finite"):
                gradient_descent_baseline(oracle, GsParams(max_iters=3), x)


def test_run_rejects_misshapen_start():
    """Both solvers refuse an x1 whose shape is not (oracle.dim,), naming
    both shapes, before the oracle sees it."""
    oracle = finite_max_oracle(abs_value_problem())
    for bad in (np.array([1.0, 2.0]), np.array(1.0), np.array([[1.0]])):
        expected = re.escape(f"x1 has shape {bad.shape}, the problem needs shape (1,)")
        with pytest.raises(ValueError, match=expected):
            run(oracle, GsParams(), bad, Rng(17))
        with pytest.raises(ValueError, match=expected):
            gradient_descent_baseline(oracle, GsParams(max_iters=3), bad)


# The topmost mark wins: the oracle's own a*x overflow is ignored, and any
# other RuntimeWarning fails the test.
@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_gradients_end_with_a_termination():
    """|a| x with a = 1e308 or 1e200: the gradient norm overflows a plain
    np.linalg.norm, yet both solvers take unit directions and end with a
    termination reason rather than a traceback."""
    for a in (1e308, 1e200):
        oracle = finite_max_oracle(FiniteMaxProblem(pieces=(
            MaxPiece(a=(a,)), MaxPiece(a=(-a,)))))
        tr = run(oracle, GsParams(max_iters=200), np.array([3.0]), Rng(18))
        assert isinstance(tr.termination, Termination)
        assert any(r.step_kind == StepKind.DESCENT for r in tr.records)
        assert all(math.isfinite(r.g_norm) for r in tr.records)
        gd = gradient_descent_baseline(oracle, GsParams(max_iters=20), np.array([3.0]))
        assert isinstance(gd.termination, Termination)
        assert gd.records[0].g_norm == a


class _InfBelowHalf(FiniteMaxOracle):
    """|x|, but a bundle gradient is inf at a sample below 0.5."""

    def sample_gradients(self, points):
        return [g * math.inf if x[0] < 0.5 else g
                for x, g in zip(points, super().sample_gradients(points))]


class _NanAtOne(FiniteMaxOracle):
    """|x|, but f is NaN at x = 1; ``evals`` counts the evaluations of f."""

    evals = 0

    def objective(self, x):
        self.evals += 1
        return math.nan if np.asarray(x).tolist() == [1.0] else super().objective(x)


def test_numerical_failure_keeps_the_records_so_far():
    """A non-finite bundle gradient mid-run ends it as NumericalFailure with
    the records of the steps before it, as the same run without the
    failure made them; a NaN f at the start ends it with the one initial
    record."""
    p = GsParams(max_iters=100)
    tr = run(_InfBelowHalf(abs_value_problem()), p, np.array([1.0]), Rng(3))
    ref = run(FiniteMaxOracle(abs_value_problem()), p, np.array([1.0]), Rng(3))
    assert tr.termination == Termination.NUMERICAL_FAILURE
    assert 0 < len(tr.records) < len(ref.records)
    assert _replay(tr)[0] == _replay(ref)[0][:len(tr.records)]
    tr = run(_NanAtOne(abs_value_problem()), p, np.array([1.0]), Rng(3))
    assert tr.termination == Termination.NUMERICAL_FAILURE
    assert len(tr.records) == 1 and tr.records[0].sample_count == 0


class _AtTheLimit(ProblemOracle):
    """A 1-D objective with the constant gradient G = 3.34e13 and f(0) =
    F0, where a line search with eps_k = 0.05 and alpha = 1 - 2**-52 finds
    its first trial above f(0), and its second one, x = -t, exactly at its
    own limit f(0) - beta * t * G + c_k / 2."""

    dim = theta_dim = 1
    G, F0, ALPHA, EPS = 33398894835694.926, -0.7383592289135184 / 4, 1.0 - 2.0**-52, 0.05

    def in_D(self, x):
        return True

    def inner_max(self, x):
        return np.zeros(1)

    def grad_x_F(self, x, theta):
        return np.array([self.G])

    def eval_F(self, x, theta):
        p, G = GsParams(), self.G
        t = p.t_init_factor * self.EPS * p.gamma
        if x[0] == 0.0:
            return self.F0
        if x[0] != -t:
            return self.F0 + 1.0
        c_k = p.gamma * (1.0 - self.ALPHA) * p.beta * G * self.EPS / 3.0
        return self.F0 - p.beta * t * G + c_k / 2.0


def test_a_step_past_the_decrease_bound_ends_as_numerical_failure():
    """With alpha within rounding of 1, a trial at the line search's own
    limit can lie above f0 - alpha * beta * t * ||g|| by more than the
    1e-9 * (1 + |f0|) tolerance.  Two NullTolerance steps bring eps to
    0.05, and the third step finds such a trial: the run ends as
    NumericalFailure before it, with the two records and x, f and eps as
    they left them."""
    oracle = _AtTheLimit()
    p = GsParams(alpha=oracle.ALPHA, nu1=1e14, max_iters=10)
    t = p.t_init_factor * oracle.EPS * p.gamma
    limit = oracle.eval_F(np.array([-t]), None)
    bound = oracle.F0 - p.alpha * p.beta * t * oracle.G
    assert limit > bound + 1e-9 * (1.0 + abs(oracle.F0))
    tr = run(oracle, p, np.array([0.0]), Rng(3))
    assert tr.termination == Termination.NUMERICAL_FAILURE
    assert [r.step_kind for r in tr.records] == [StepKind.NULL_TOLERANCE] * 2
    assert (tr.final_x.tolist(), tr.final_f, tr.final_eps) == ([0.0], oracle.F0, oracle.EPS)


def test_a_nan_f_at_x_ends_the_line_search_before_its_trials():
    """The first step evaluates f at x once, after the bundle, and a NaN
    there ends the step before any line-search trial is paid for."""
    oracle = _NanAtOne(abs_value_problem())
    state = GsState(k=1, x=np.array([1.0]), eps=0.2, nu=0.1, f=None)
    with pytest.raises(NonFiniteError, match="f is NaN"):
        step(oracle, state, GsParams(), Rng(3))
    assert oracle.evals == 1


def test_tiny_gradients_end_with_a_termination():
    """|a| x with a = 3e-162: g.g underflows into the subnormals, whose
    square root has lost digits, yet both solvers take unit directions and
    end with a termination reason rather than a traceback."""
    oracle = finite_max_oracle(FiniteMaxProblem(pieces=(
        MaxPiece(a=(3e-162,)), MaxPiece(a=(-3e-162,)))))
    p = GsParams(nu1=1e-300, max_iters=50)
    tr = run(oracle, p, np.array([3.0]), Rng(1))
    assert isinstance(tr.termination, Termination)
    assert any(r.step_kind == StepKind.DESCENT for r in tr.records)
    assert driver._norm(np.array([3e-162])) == 3e-162
    gd = gradient_descent_baseline(oracle, p, np.array([3.0]))
    assert isinstance(gd.termination, Termination)
    assert gd.records[0].g_norm == 3e-162


def test_underflowed_radius_stalls_with_the_partial_trace():
    """f = x^2 / 2 from its minimizer: NullTolerance steps with mu = 0.1
    drive eps to 0.0 while nu = 0.1 * 0.9**323 is still above nu_min = 0.
    The run stops before the step that would sample a ball of radius 0,
    as Stalled, and keeps the trace so far."""
    oracle = finite_max_oracle(FiniteMaxProblem(pieces=(MaxPiece(a=(0.0,), Q=((1.0,),)),)))
    tr = run(oracle, GsParams(mu=0.1, vartheta=0.9, max_iters=2000), np.array([0.0]), Rng(1))
    assert tr.termination == Termination.STALLED
    assert tr.final_eps == 0.0 and tr.final_nu > 0.0
    assert len(tr.records) == 323
    assert all(r.eps > 0.0 for r in tr.records)
    assert all(r.step_kind == StepKind.NULL_TOLERANCE for r in tr.records)


def test_norm_keeps_in_range_bytes_and_scales_overflow():
    """In range, the norm has np.linalg.norm's bytes; past it, the scaled
    norm, without NumPy's overflow warning, since it is recovered from,
    also where a NaN entry comes before or after the large one."""
    gen = np.random.Generator(np.random.Philox(19))
    for _ in range(200):
        v = gen.standard_normal(int(gen.integers(1, 20))) * 10.0 ** gen.uniform(-100, 100)
        assert driver._norm(v) == float(np.linalg.norm(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert driver._norm(np.ldexp([3.0, 4.0], 700)) == math.ldexp(5.0, 700)
        assert driver._norm(np.array([-1e308])) == 1e308
        v = np.array([9.9e149, -9.9e149, 9.9e149])
        assert driver._norm(v) == float(np.linalg.norm(v))
        for v in ([math.nan, 1e200], [1e200, math.nan], [2.0, math.nan, -1e300]):
            assert math.isnan(driver._norm(np.array(v)))


def test_direction_is_a_unit_vector_for_every_finite_nonzero_g():
    """While ||g|| is a normal float, the direction is -g / ||g|| byte for
    byte; where it overflows to inf, or falls among the subnormals and
    rounds there, the scaled g still gives a unit vector, which the plain
    quotient does not (0 and 1.0138 in norm)."""
    gen = np.random.Generator(np.random.Philox(20))
    for _ in range(200):
        g = gen.standard_normal(int(gen.integers(1, 20))) * 10.0 ** gen.uniform(-150, 150)
        n = driver._norm(g)
        assert driver._direction(g, n).tobytes() == (-g / n).tobytes()
    for g in ([1.5e308, 1.5e308], [-1.5e308, 1.5e308, 5.0], [3e-323, 5e-324], [-5e-324]):
        g = np.array(g)
        n = driver._norm(g)
        assert not np.finfo(float).tiny <= n < math.inf
        d = driver._direction(g, n)
        assert abs(driver._norm(d) - 1.0) <= 1e-15
        assert np.array_equal(np.sign(d), -np.sign(g))


def test_run_rejects_dimension_0():
    """A problem of dimension 0 passes its own checks, but both solvers
    refuse it, by name, before the oracle sees a point."""
    oracle = finite_max_oracle(FiniteMaxProblem(pieces=(MaxPiece(a=()),)))
    assert oracle.dim == 0
    with pytest.raises(ValueError, match="dimension 0"):
        run(oracle, GsParams(), np.array([]), Rng(21))
    with pytest.raises(ValueError, match="dimension 0"):
        gradient_descent_baseline(oracle, GsParams(max_iters=3), np.array([]))


class _Walked(FiniteMaxOracle):
    """The finite max with the base per-point walk over a bundle."""

    sample_gradients = ProblemOracle.sample_gradients


def _replay(tr):
    return ([(r.k, r.x.tobytes(), repr(r.f_approx), r.eps, r.nu, repr(r.g_norm),
              r.t, r.step_kind, r.sample_count) for r in tr.records],
            tr.termination, tr.final_x.tobytes(), repr(tr.final_f))


def _random_finite_maxima(seed, count):
    """Seeded random finite maxima, 1 to 4 pieces in 1 to 4 dimensions,
    each piece quadratic with probability 1/2 and its coefficients scaled
    by 10**u, u in [-300, 300], each with a start and a run seed."""
    gen = np.random.Generator(np.random.Philox(seed))
    for _ in range(count):
        n = int(gen.integers(1, 5))
        pieces = []
        for _ in range(int(gen.integers(1, 5))):
            scale = 10.0 ** gen.uniform(-300, 300)
            Q = None
            if gen.random() < 0.5:
                B = gen.standard_normal((n, n)) * scale
                Q = tuple(map(tuple, B + B.T))
            pieces.append(MaxPiece(a=tuple(gen.standard_normal(n) * scale),
                                   b=float(gen.standard_normal() * scale), Q=Q))
        yield pieces, gen.standard_normal(n), int(gen.integers(2**31))


def test_random_finite_max_runs_end_with_a_termination():
    """_random_finite_maxima: 50 iterations under 'resample' end with a
    termination reason, and every record has the bytes of the same run
    with the bundles walked point by point."""
    p = GsParams(max_iters=50, on_nonsmooth_sample=NonsmoothPolicy.RESAMPLE)
    for pieces, x1, seed in _random_finite_maxima(23, 40):
        prob = FiniteMaxProblem(pieces=tuple(pieces))
        tr = run(FiniteMaxOracle(prob), p, x1, Rng(seed))
        assert isinstance(tr.termination, Termination)
        assert _replay(tr) == _replay(run(_Walked(prob), p, x1, Rng(seed)))


HUGE_Q = ([MaxPiece(a=(0.0,), Q=((1e308,),)), MaxPiece(a=(1.0,))], np.array([3.0]), 1)


def test_random_finite_max_configs_end_with_an_exit_code(tmp_path):
    """_random_finite_maxima as configs through the CLI: every run exits 0,
    2 or 3 and writes summary.json.  The fixed case, whose Q x overflows at
    the start (NumPy warns of it), exits 3 as NumericalFailure with its
    trace written."""
    codes = {}
    for i, (pieces, x1, seed) in enumerate([HUGE_Q] + list(_random_finite_maxima(29, 40))):
        problem = {"type": "finite_max", "pieces": [
            {"a": list(pc.a), "b": pc.b, "Q": None if pc.Q is None else [list(r) for r in pc.Q]}
            for pc in pieces]}
        out = tmp_path / str(i)
        cfg = {"problem": problem, "x1": x1.tolist(), "seed": seed, "output_dir": str(out),
               "params": {"max_iters": 50, "on_nonsmooth_sample": "resample"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        if i == 0:
            with pytest.warns(RuntimeWarning, match="overflow encountered in matmul"):
                code = run_experiment(str(path))
        else:
            code = run_experiment(str(path))
        assert code in (0, 2, 3), i
        summary = json.loads((out / "summary.json").read_text())
        codes[i] = code, summary["sampling"]["termination"]
        assert (out / "trace.csv").exists() and (out / "trace.json").exists()
    assert codes[0] == (3, "NumericalFailure")


# -- gradient_descent_baseline ----------------------------------------------

def test_gd_converges_on_smooth_quadratic():
    prob = FiniteMaxProblem(pieces=(MaxPiece(a=(0.0, 0.0),
                                             Q=((1.0, 0.0), (0.0, 1.0))),))
    oracle = finite_max_oracle(prob)
    # eps1 sets the step bounds; the floor gamma*eps1/3 limits the final
    # accuracy, so pick it small enough for the 1e-4 objective target.
    p = GsParams(max_iters=500, eps1=0.01)
    tr = gradient_descent_baseline(oracle, p, np.array([1.0, -1.0]))
    assert len(tr.records) <= 500
    assert tr.final_f <= 1e-4


def test_gd_immediate_stall_at_stationary_point():
    prob = FiniteMaxProblem(pieces=(MaxPiece(a=(0.0,),
                                             Q=((1.0,),)),))  # f = x^2/2
    oracle = finite_max_oracle(prob)
    tr = gradient_descent_baseline(oracle, GsParams(max_iters=100),
                                   np.array([0.0]))
    assert tr.termination == Termination.STALLED
    assert [r.step_kind for r in tr.records] == [StepKind.NULL_LINESEARCH]
    assert tr.records[0].t == 0.0


def test_gd_stalls_at_its_first_failed_line_search():
    """The two-agent baseline from its config descends, then stops as
    Stalled at its first failed line search: exactly one NullLineSearch
    record, the last, at the final x and f."""
    cfg = json.loads((REPO / "configs" / "two_agent.json").read_text())
    oracle = build_problem_oracle(cfg["problem"])
    tr = gradient_descent_baseline(oracle, build_params(cfg["params"]), np.array(cfg["x1"]))
    kinds = [r.step_kind for r in tr.records]
    assert tr.termination == Termination.STALLED
    assert kinds.count(StepKind.NULL_LINESEARCH) == 1
    assert kinds[-1] == StepKind.NULL_LINESEARCH and len(kinds) > 1
    assert tr.records[-1].x.tobytes() == tr.final_x.tobytes()
    assert tr.records[-1].f_approx == tr.final_f


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gd_stalls_at_a_gradient_that_is_not_finite():
    """Q x overflows to inf at x1 = 3, which gives no direction: the
    baseline's search fails there without a trial, and without NumPy's
    warning of inf / inf, as one Stalled record at x1."""
    counted = []

    class Counted(FiniteMaxOracle):
        def objective(self, x):
            counted.append(x)
            return super().objective(x)

    tr = gradient_descent_baseline(Counted(FiniteMaxProblem(pieces=tuple(HUGE_Q[0]))),
                                   GsParams(), HUGE_Q[1])
    assert tr.termination == Termination.STALLED
    assert [(r.step_kind, r.g_norm, r.t) for r in tr.records] == \
        [(StepKind.NULL_LINESEARCH, math.inf, 0.0)]
    assert len(counted) == 1 and tr.final_x.tobytes() == HUGE_Q[1].tobytes()


def test_gd_rejects_start_outside_D():
    oracle = finite_max_oracle(abs_value_problem())
    with pytest.raises(ValueError):
        gradient_descent_baseline(oracle, GsParams(), np.array([0.0]))
