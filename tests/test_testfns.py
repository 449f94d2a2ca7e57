"""Finite-max oracles and the recursive bump-construction stress objective."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gradsamp import (
    CantorStressProblem,
    FiniteMaxProblem,
    GsParams,
    MaxPiece,
    Rng,
    abs_value_problem,
    cantor_stress_oracle,
    finite_max_oracle,
    run,
)
from gradsamp.testfns import (
    FiniteMaxOracle,
    _argmax,
    bump,
    bump_d1,
    bump_d2,
    bump_derivative_bound,
)


# -- finite-max family -------------------------------------------------------

def test_abs_value_basics():
    oracle = finite_max_oracle(abs_value_problem())
    theta = oracle.inner_max(np.array([0.7]))
    assert theta[0] == 0.0  # piece x is active
    assert oracle.eval_F(np.array([0.7]), theta) == pytest.approx(0.7)
    np.testing.assert_allclose(oracle.grad_x_F(np.array([0.7]), theta), [1.0])


def test_quadratic_vs_affine_piece():
    prob = FiniteMaxProblem(pieces=(
        MaxPiece(a=(0.0,), b=-1.0, Q=((2.0,),)),  # x^2 - 1
        MaxPiece(a=(-1.0,), b=1.0),               # -x + 1
    ))
    oracle = finite_max_oracle(prob)
    x = np.array([2.0])
    theta = oracle.inner_max(x)
    assert theta[0] == 0.0
    assert oracle.eval_F(x, theta) == pytest.approx(3.0)
    np.testing.assert_allclose(oracle.grad_x_F(x, theta), [4.0])


def test_enumeration_matches_max_over_pieces():
    gen = np.random.Generator(np.random.Philox(31))
    prob = FiniteMaxProblem(pieces=(
        MaxPiece(a=(1.0, -2.0), b=0.3),
        MaxPiece(a=(-0.5, 0.5), b=-0.1, Q=((1.0, 0.0), (0.0, 2.0))),
        MaxPiece(a=(0.0, 1.0)),
    ))
    oracle = finite_max_oracle(prob)
    for _ in range(10_000):
        x = gen.uniform(-3.0, 3.0, size=2)
        theta = oracle.inner_max(x)
        vals = [oracle.eval_F(x, np.array([float(i)])) for i in range(3)]
        assert oracle.eval_F(x, theta) == max(vals)


def _quadratic_pieces():
    gen = np.random.Generator(np.random.Philox(91))
    pieces = []
    for _ in range(4):
        B = gen.standard_normal((3, 3))
        pieces.append(MaxPiece(a=tuple(gen.standard_normal(3)), b=float(gen.standard_normal()),
                               Q=tuple(tuple(row) for row in B @ B.T)))
    return FiniteMaxProblem(pieces=tuple(pieces)), gen


def _asked(oracle, x):
    theta = oracle.inner_max(x)
    return (oracle.in_D(x), theta.tobytes(), repr(oracle.eval_F(x, theta)),
            oracle.grad_x_F(x, theta).tobytes())


def test_each_piece_evaluated_once_per_bundle_sample_and_per_objective(monkeypatch):
    """The member values of the last point are kept: a bundle sample's
    in_D, inner_max and grad_x_F, and one objective, evaluate each piece
    once, and give what a fresh oracle gives."""
    prob, gen = _quadratic_pieces()
    oracle = finite_max_oracle(prob)
    cases = []
    for _ in range(3):
        s, y = gen.uniform(-2.0, 2.0, size=3), gen.uniform(-2.0, 2.0, size=3)
        cases.append((s, y, _asked(finite_max_oracle(prob), s),
                      finite_max_oracle(prob).objective(y)))
    evaluated = []
    value = FiniteMaxOracle._value

    def counted(self, x, i):
        evaluated.append(i)
        return value(self, x, i)

    monkeypatch.setattr(FiniteMaxOracle, "_value", counted)
    for s, y, asked, f in cases:
        in_d = oracle.in_D(s)
        theta = oracle.inner_max(s)
        grad = oracle.grad_x_F(s, theta)
        assert sorted(evaluated) == [0, 1, 2, 3]
        assert (in_d, theta.tobytes(), grad.tobytes()) == (asked[0], asked[1], asked[3])
        evaluated.clear()
        assert oracle.objective(y) == f
        assert sorted(evaluated) == [0, 1, 2, 3]
        evaluated.clear()


def test_member_memo_not_poisoned_by_in_place_change():
    prob, gen = _quadratic_pieces()
    oracle = finite_max_oracle(prob)
    x = gen.uniform(-2.0, 2.0, size=3)
    start = x.copy()
    before = _asked(oracle, x)
    x += 0.25
    assert _asked(oracle, x) == _asked(finite_max_oracle(prob), x) != before
    x[:] = start
    assert _asked(oracle, x) == before


def test_inner_max_index_matches_numpy_argmax():
    nan, inf = math.nan, math.inf
    for vals in ([1.0, 3.0, 3.0, 2.0], [-0.0, 0.0], [0.0, -0.0], [-inf, -inf],
                 [1.0, nan, 5.0, nan], [nan, 2.0], [inf, nan], [-1.0], [2.0, inf, inf]):
        assert _argmax(tuple(vals)) == int(np.argmax(vals)), vals


def test_in_D_tie_detection():
    oracle = finite_max_oracle(abs_value_problem())
    assert oracle.in_D(np.array([0.5]))
    assert not oracle.in_D(np.array([0.0]))  # both pieces tie, gradients differ


def test_solver_minimizes_abs_value():
    oracle = finite_max_oracle(abs_value_problem())
    p = GsParams(max_iters=2000, eps_min=1e-3, nu_min=1e-3)
    tr = run(oracle, p, np.array([1.0]), Rng(2))
    assert abs(float(np.asarray(tr.final_x)[0])) <= 0.01
    assert tr.final_nu <= 0.01


def test_problem_validation():
    with pytest.raises(ValueError):
        FiniteMaxProblem(pieces=())
    with pytest.raises(ValueError):
        FiniteMaxProblem(pieces=(MaxPiece(a=(1.0,)), MaxPiece(a=(1.0, 2.0))))
    with pytest.raises(ValueError):
        FiniteMaxProblem(pieces=(MaxPiece(a=(1.0, 0.0),
                                          Q=((1.0, 2.0), (3.0, 4.0))),))
    nan, inf = math.nan, math.inf
    for piece in (MaxPiece(a=(nan,)), MaxPiece(a=(1.0,), b=nan),
                  MaxPiece(a=(1.0,), b=-inf), MaxPiece(a=(0.0,), Q=((inf,),))):
        with pytest.raises(ValueError, match="finite"):
            FiniteMaxProblem(pieces=(MaxPiece(a=(1.0,)), piece))


# -- bump --------------------------------------------------------------------

def test_bump_properties():
    assert bump(np.array([0.0]))[0] == 0.0
    assert bump(np.array([1.0]))[0] == 0.0
    assert bump(np.array([-1.5]))[0] == 0.0
    # Odd symmetry and nonzero slope pi/e at the origin.
    u = np.linspace(-0.99, 0.99, 101)
    np.testing.assert_allclose(bump(u), -bump(-u), atol=1e-15)
    assert bump_d1(np.array([0.0]))[0] == pytest.approx(math.pi / math.e)


def test_bump_derivatives_match_finite_differences():
    u = np.linspace(-0.95, 0.95, 41)
    h = 1e-6
    fd1 = (bump(u + h) - bump(u - h)) / (2 * h)
    np.testing.assert_allclose(bump_d1(u), fd1, atol=1e-7)
    fd2 = (bump_d1(u + h) - bump_d1(u - h)) / (2 * h)
    np.testing.assert_allclose(bump_d2(u), fd2, atol=1e-5)


def test_bump_bound_dominates_samples():
    C = bump_derivative_bound()
    u = np.linspace(-1.0, 1.0, 50_001)
    assert np.max(np.abs(bump_d1(u))) <= C
    assert np.max(np.abs(bump_d2(u))) <= C


# -- stress construction -----------------------------------------------------

def test_interval_lengths_match_closed_forms():
    """Level-k removals have length 2^(-2(k+1)); the retained set after
    level k has measure 1/2 + 2^(-(k+1))."""
    oracle = cantor_stress_oracle(CantorStressProblem(depth=6))
    for k in range(1, 7):
        mids, delta, eps_k, intervals = oracle.level(k)
        assert 2.0 * delta == pytest.approx(2.0 ** (-2 * (k + 1)), rel=1e-15)
        assert len(mids) == 2 ** k
        retained = Fraction(0)
        for lo, hi in intervals:
            retained += Fraction(hi) - Fraction(lo)
        # Measure before the level-k removal, and after it.
        assert retained == Fraction(1, 2) + Fraction(1, 2 ** (k + 1))
        removed_here = 2 ** k * Fraction(1, 2 ** (2 * (k + 1)))
        assert retained - removed_here == (Fraction(1, 2)
                                           + Fraction(1, 2 ** (k + 2)))


def test_f_zero_outside_bumps():
    oracle = cantor_stress_oracle(CantorStressProblem(depth=4))
    # 0.5 is the midpoint of the level-0 removal, which carries no bump, so
    # every family member vanishes there.
    theta = oracle.inner_max(np.array([0.5]))
    assert oracle.eval_F(np.array([0.5]), theta) == 0.0
    np.testing.assert_array_equal(oracle.grad_x_F(np.array([0.5]), theta),
                                  [0.0])


def test_scaled_bump_bounds_per_level():
    oracle = cantor_stress_oracle(CantorStressProblem(depth=6))
    u = np.linspace(-1.0, 1.0, 20_001)
    for k in range(1, 7):
        _, delta, eps_k, _ = oracle.level(k)
        assert np.max(np.abs(eps_k * bump(u))) <= 1.0 / k
        assert np.max(np.abs(eps_k / delta * bump_d1(u))) <= 1.0 / k
        assert np.max(np.abs(eps_k / delta ** 2 * bump_d2(u))) <= 1.0 / k


def test_nondifferentiability_witness_at_midpoints():
    """One-sided difference quotients of f split by at least the family
    coefficient times the bump slope at each retained level-k midpoint."""
    depth = 5
    oracle = cantor_stress_oracle(CantorStressProblem(depth=depth))
    for k in range(2, depth + 1):
        mids, delta, eps_k, _ = oracle.level(k)
        x0 = mids[0]
        coef = 1.0 / ((k - 1) * k) ** 2  # larger of the two segment coefs
        h = delta * 1e-4

        def f(x):
            theta = oracle.inner_max(np.array([x]))
            return oracle.eval_F(np.array([x]), theta)

        right = (f(x0 + h) - f(x0)) / h
        left = (f(x0) - f(x0 - h)) / h
        witness = eps_k * abs(math.pi / math.e) / (2.0 * delta) * coef
        assert abs(right - left) >= witness


def test_bump_evaluated_once_per_point(monkeypatch):
    """Bumps of different levels are disjoint, so a point lies on at most
    one: its in_D, inner_max, eval_F and grad_x_F evaluate that bump and
    its slope once between them, and agree with a fresh oracle."""
    from gradsamp import testfns

    calls = {"bump": 0, "bump_d1": 0}

    def counted(name, fn):
        def wrapped(u):
            calls[name] += 1
            return fn(u)
        return wrapped

    prob = CantorStressProblem(depth=4)
    oracle = cantor_stress_oracle(prob)
    expected = []
    for k in (2, 4, 2):
        mids, delta, _, _ = oracle.level(k)
        x = np.array([mids[1] + delta / 3.0])
        fresh = cantor_stress_oracle(prob)
        theta = fresh.inner_max(x)
        expected.append((fresh.in_D(x), theta, fresh.eval_F(x, theta),
                         fresh.grad_x_F(x, theta)))
    monkeypatch.setattr(testfns, "bump", counted("bump", bump))
    monkeypatch.setattr(testfns, "bump_d1", counted("bump_d1", bump_d1))
    for n, k in enumerate((2, 4, 2), start=1):
        mids, delta, _, _ = oracle.level(k)
        x = np.array([mids[1] + delta / 3.0])
        in_d = oracle.in_D(x)
        theta = oracle.inner_max(x)
        got = (in_d, theta, oracle.eval_F(x, theta), oracle.grad_x_F(x, theta))
        assert calls == {"bump": n, "bump_d1": n}
        want = expected[n - 1]
        assert got[0] == want[0] and got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[3], want[3])


def test_stress_run_stays_bounded():
    oracle = cantor_stress_oracle(CantorStressProblem(depth=4))
    p = GsParams(max_iters=500)
    tr = run(oracle, p, np.array([0.5]), Rng(3))
    assert np.isfinite(tr.final_f)
    assert tr.final_nu <= p.nu1 * p.vartheta ** 5


def test_off_grid_family_index_rejected():
    """Value and gradient both refuse a family index that names no member:
    off the truncated grid, or not a piece index."""
    cases = [(cantor_stress_oracle(CantorStressProblem(depth=3)), (0.7,)),
             (finite_max_oracle(abs_value_problem()), (-1.0, 0.7, 2.0))]
    for oracle, bad in cases:
        for t in bad:
            x, theta = np.array([0.3]), np.array([t])
            with pytest.raises(ValueError):
                oracle.eval_F(x, theta)
            with pytest.raises(ValueError):
                oracle.grad_x_F(x, theta)


def test_depth_validation():
    with pytest.raises(ValueError):
        CantorStressProblem(depth=0)
    with pytest.raises(ValueError):
        CantorStressProblem(depth=13)
    for depth in (3.5, 3.0, True):
        with pytest.raises(ValueError):
            CantorStressProblem(depth=depth)
