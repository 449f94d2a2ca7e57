"""Sampling, line search, single steps, full runs, and the GD baseline."""

import math
import re
import warnings

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
from gradsamp.core import GsState
from gradsamp.driver import line_search, sample_ball, step
from gradsamp.testfns import FiniteMaxOracle

from oracles import abs_value_problem


def test_rng_repeatable():
    a = Rng(99)
    b = Rng(99)
    np.testing.assert_array_equal(a.gaussians(8), b.gaussians(8))
    assert a.uniform() == b.uniform()


def test_rng_rejects_a_seed_that_is_not_a_count():
    """A float or bool seed is not truncated or coerced, and a negative one
    is refused by name rather than by the bit generator."""
    for seed in (1.9, 1.0, True, -1, "3"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            Rng(seed)
    assert Rng(np.int64(5)).seed == 5
    np.testing.assert_array_equal(Rng(np.uint32(5)).gaussians(4), Rng(5).gaussians(4))


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
    out = line_search(oracle, x, d, float(np.linalg.norm(grad)), 0.01,
                      GsParams())
    assert out.accepted and out.trials == 1
    assert out.t == pytest.approx(GsParams().t_init_factor * 0.01)


def test_line_search_abs_value_hand_example():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams(beta=0.5, t_init_factor=1.0 / 3.0)
    eps_k = 0.9  # t_init = 0.3
    out = line_search(oracle, np.array([0.5]), np.array([-1.0]), 1.0, eps_k, p)
    assert out.accepted and out.t == pytest.approx(0.3)
    # Accepted because f(0.2) = 0.2 <= 0.5 - 0.5*0.3 + c_k/2 with c_k >= 0.


def test_line_search_ascent_direction_exhausts_trials():
    prob = FiniteMaxProblem(pieces=(MaxPiece(a=(1.0,)),))  # f(x) = x, smooth
    oracle = finite_max_oracle(prob)
    p = GsParams()
    eps_k = 0.2
    out = line_search(oracle, np.array([0.0]), np.array([1.0]), 1.0, eps_k, p)
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
        line_search(oracle, np.array([0.5]), np.array([-2.0]), 1.0, 0.1,
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
    exactly the m ball samples (n Gaussians, then one uniform, each)."""
    oracle = finite_max_oracle(FiniteMaxProblem(pieces=(
        MaxPiece(a=(1.0, 0.0, 0.0)), MaxPiece(a=(-1.0, 0.0, 0.0)))))
    p = GsParams()
    x = np.array([1.0, 0.5, -0.5])
    state = GsState(k=1, x=x, eps=0.2, nu=0.1)
    stepped = Rng(12)
    _, rec = step(oracle, state, p, stepped)
    m = p.effective_m(3)
    assert rec.step_kind == StepKind.DESCENT and rec.sample_count == m
    fresh = Rng(12)
    sample_ball(x, state.eps, m, fresh)
    np.testing.assert_array_equal(stepped.gaussians(3), fresh.gaussians(3))


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


def test_norm_keeps_in_range_bytes_and_scales_overflow():
    """In range, the norm has np.linalg.norm's bytes; past it, the scaled
    norm, without NumPy's overflow warning, since it is recovered from."""
    gen = np.random.Generator(np.random.Philox(19))
    for _ in range(200):
        v = gen.standard_normal(int(gen.integers(1, 20))) * 10.0 ** gen.uniform(-100, 100)
        assert driver._norm(v) == float(np.linalg.norm(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert driver._norm(np.ldexp([3.0, 4.0], 700)) == math.ldexp(5.0, 700)
        assert driver._norm(np.array([-1e308])) == 1e308


class _Walked(FiniteMaxOracle):
    """The finite max with the base per-point walk over a bundle."""

    sample_gradients = ProblemOracle.sample_gradients


def _replay(tr):
    return ([(r.k, r.x.tobytes(), repr(r.f_approx), r.eps, r.nu, repr(r.g_norm),
              r.t, r.step_kind, r.sample_count) for r in tr.records],
            tr.termination, tr.final_x.tobytes(), repr(tr.final_f))


def test_random_finite_max_runs_end_with_a_termination():
    """Seeded random finite maxima, 1 to 4 pieces in 1 to 4 dimensions,
    each piece quadratic with probability 1/2 and its coefficients scaled
    by 10**u, u in [-300, 300]: 50 iterations under 'resample' end with a
    termination reason, and every record has the bytes of the same run
    with the bundles walked point by point."""
    gen = np.random.Generator(np.random.Philox(23))
    p = GsParams(max_iters=50, on_nonsmooth_sample=NonsmoothPolicy.RESAMPLE)
    for _ in range(40):
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
        prob = FiniteMaxProblem(pieces=tuple(pieces))
        x1, seed = gen.standard_normal(n), int(gen.integers(2**31))
        tr = run(FiniteMaxOracle(prob), p, x1, Rng(seed))
        assert isinstance(tr.termination, Termination)
        assert _replay(tr) == _replay(run(_Walked(prob), p, x1, Rng(seed)))


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
    assert all(r.t == 0.0 for r in tr.records)


def test_gd_rejects_start_outside_D():
    oracle = finite_max_oracle(abs_value_problem())
    with pytest.raises(ValueError):
        gradient_descent_baseline(oracle, GsParams(), np.array([0.0]))
