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
    ProblemOracle,
    Rng,
    Termination,
    cantor_stress_oracle,
    finite_max_oracle,
    run,
)
from gradsamp.testfns import (
    BUMP_DERIVATIVE_BOUND,
    FiniteMaxOracle,
    _argmax,
    _first_max,
    bump,
    bump_d1,
)

from oracles import abs_value_problem, bump_d2, reference_piece


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
    """One objective, and one bundle sample's gradient, make one stacked
    pass over the pieces, and give what a fresh oracle's primitives give;
    the objective builds no gradient block.  A bundle's sample_gradients
    makes one pass over all its points."""
    prob, gen = _quadratic_pieces()
    oracle = finite_max_oracle(prob)
    cases = []
    for _ in range(3):
        s, y = gen.uniform(-2.0, 2.0, size=3), gen.uniform(-2.0, 2.0, size=3)
        cases.append((s, y, _asked(finite_max_oracle(prob), s),
                      _asked(finite_max_oracle(prob), y)[2]))
    evaluated, blocks = [], []
    pieces, block = FiniteMaxOracle._pieces, FiniteMaxOracle._block

    def counted(self, X):
        evaluated.append(len(X))
        return pieces(self, X)

    def counted_block(self, X):
        blocks.append(len(X))
        return block(self, X)

    monkeypatch.setattr(FiniteMaxOracle, "_pieces", counted)
    monkeypatch.setattr(FiniteMaxOracle, "_block", counted_block)
    for s, y, asked, f in cases:
        assert asked[0]
        assert [g.tobytes() for g in oracle.sample_gradients(s[None])] == [asked[3]]
        assert evaluated == blocks == [1]
        evaluated.clear()
        blocks.clear()
        assert repr(oracle.objective(y)) == f
        assert evaluated == [1] and blocks == []
        evaluated.clear()
    got = oracle.sample_gradients([s for s, _, _, _ in cases])
    assert evaluated == [3]
    assert [g.tobytes() for g in got] == [asked[3] for _, _, asked, _ in cases]


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


def test_nan_member_value_is_outside_D():
    """A point where some member value is NaN lies outside D, whichever
    member it is: in_D says so, a bundle stops before it, and a run from it
    ends at NonsmoothSampleStop, not in a traceback."""
    nan_piece = MaxPiece(a=(-1e308,), Q=((1e308,),))  # -inf + inf at x = 3
    for pieces in ((nan_piece, MaxPiece(a=(1.0,))), (MaxPiece(a=(1.0,)), nan_piece)):
        prob = FiniteMaxProblem(pieces=pieces)
        oracle = finite_max_oracle(prob)
        x = np.array([3.0])
        vals = oracle._block(x[None])[0][0]
        assert np.isnan(vals).tolist() == [p is nan_piece for p in pieces]
        assert vals[~np.isnan(vals)].tolist() == [3.0]
        assert not oracle.in_D(x)
        inside = np.array([1.0])
        assert oracle.in_D(inside)
        got = oracle.sample_gradients([inside, x, inside])
        assert [g.tolist() for g in got] == [[1.0]]
        tr = run(finite_max_oracle(prob), GsParams(), x, Rng(1))
        assert tr.termination == Termination.NONSMOOTH_SAMPLE_STOP


def _block_case(gen, kind):
    """A finite max with n in [1, 12] and a bundle of 1 to 20 points.

    Besides random pieces of the given kind ("affine", "quadratic" or
    "mixed", with b drawn from -0.0, 0.0 and N(0, 1)), it has a twin pair
    that ties everywhere with gradients equal under == (a zero coordinate
    of either sign, so an affine pair's gradients differ in bytes), and a
    kink pair c'x + t, -c'x + t
    that is maximal near 0 with unequal gradients.  The points are scaled
    by 10**u, u in [-2, 2] or, for about a third, in [-300, 300]; some are
    0 (a miss of D) and some have an infinite coordinate."""
    n = int(gen.integers(1, 13))
    pieces = []
    for _ in range(int(gen.integers(1, 5))):
        Q = None
        if kind == "quadratic" or (kind == "mixed" and gen.random() < 0.5):
            B = gen.standard_normal((n, n))
            Q = tuple(map(tuple, B + B.T))
        b = (-0.0, 0.0, float(gen.standard_normal()))[int(gen.integers(3))]
        pieces.append(MaxPiece(a=tuple(gen.standard_normal(n) * 10.0 ** gen.uniform(-3, 3)),
                               b=b, Q=Q))
    j, k = int(gen.integers(len(pieces))), int(gen.integers(n))
    for zero in (0.0, -0.0):
        a = list(pieces[j].a)
        a[k] = zero
        pieces.append(MaxPiece(a=tuple(a), b=pieces[j].b, Q=pieces[j].Q))
    del pieces[j]
    c, top = gen.standard_normal(n), max(p.b for p in pieces) + 1.0
    pieces += [MaxPiece(a=tuple(c), b=top), MaxPiece(a=tuple(-c), b=top)]
    pieces = [pieces[i] for i in gen.permutation(len(pieces))]
    points = []
    for _ in range(int(gen.integers(1, 21))):
        x = gen.standard_normal(n) * 10.0 ** gen.uniform(*(
            (-300, 300) if gen.random() < 0.3 else (-2, 2)))
        u = gen.random()
        if u < 0.05:
            x = np.zeros(n)
        elif u < 0.1:
            x[int(gen.integers(n))] = math.inf * gen.choice([-1.0, 1.0])
        points.append(x)
    return FiniteMaxProblem(pieces=tuple(pieces)), points


def _outcome(fn):
    try:
        return [g.tobytes() for g in fn()]
    except Exception as e:
        return type(e).__name__


def test_block_path_matches_per_point_path_bytewise():
    """One stacked pass gives every piece's value and gradient with the
    bytes of its own formula, and the bundle's gradients are those of the
    base walk (in_D, inner_max, grad_x_F point by point, stopping before
    the first miss of D): with affine, quadratic and mixed pieces, ties
    with equal and unequal gradients, and values at +-inf and NaN."""
    gen = np.random.Generator(np.random.Philox(47))
    seen = {"miss": 0, "nan": 0, "inf": 0, "twin": 0}
    with np.errstate(all="ignore"):
        for case in range(300):
            prob, points = _block_case(gen, ("affine", "quadratic", "mixed")[case % 3])
            oracle = finite_max_oracle(prob)
            vals, grads = oracle._block(np.array(points))
            for x, vrow, grow in zip(points, vals, grads):
                ref = [reference_piece(p, x) for p in prob.pieces]
                assert vrow.tobytes() == np.array([v for v, _ in ref]).tobytes()
                assert grow.tobytes() == np.array([g for _, g in ref]).tobytes()
            got = _outcome(lambda: oracle.sample_gradients(points))
            want = _outcome(lambda: ProblemOracle.sample_gradients(
                finite_max_oracle(prob), points))
            assert got == want
            seen["miss"] += isinstance(want, list) and len(want) < len(points)
            seen["nan"] += bool(np.isnan(vals).any())
            seen["inf"] += bool(np.isinf(vals).any())
            tied = vals == vals.max(axis=1, keepdims=True)
            seen["twin"] += bool((tied.sum(axis=1) > 1).any())
    assert min(seen.values()) >= 20, seen


def _first_max_general(vals, grads):
    # _first_max without its shortcut: every tied row's gradients are read.
    rows = np.arange(len(vals))
    first = vals.argmax(axis=1)
    out = grads[rows, first]
    tied = vals == vals[rows, first][:, None]
    extra = tied.sum(axis=1) - 1
    for r in np.flatnonzero(extra).tolist():
        if extra[r] < 0 or (grads[r, tied[r]] != out[r]).any():
            return out, r
    return out, len(vals)


def test_first_max_shortcut_matches_the_general_path_bytewise():
    """_first_max returns at once when every row has one maximal member,
    with the bytes and the count of the path that reads each tied row: on
    blocks of rows with one maximal member, a tie of equal gradients
    (among them 0.0 against -0.0), a tie of unequal gradients, and a NaN
    value, mixed in one block and alone."""
    gen = np.random.Generator(np.random.Philox(53))
    seen = {"shortcut": 0, "single": 0, "equal_tie": 0, "unequal_tie": 0, "nan": 0}
    for case in range(3000):
        R, M, n = (int(gen.integers(1, k)) for k in (8, 6, 4))
        vals = gen.integers(-2, 3, size=(R, M)).astype(float)
        if case % 4 == 0:  # mostly one maximal member per row
            vals += gen.standard_normal((R, M))
        elif case % 4 == 3:
            vals[gen.integers(R), gen.integers(M)] = math.nan
        grads = gen.choice([-0.0, 0.0, 1.0], size=(R, M, n))
        got, want = _first_max(vals, grads), _first_max_general(vals, grads)
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1], (vals, grads)
        for v, g in zip(vals, grads):
            tied = v == np.max(v)
            if np.isnan(v).any():
                seen["nan"] += 1
            elif tied.sum() == 1:
                seen["single"] += 1
            else:
                seen["equal_tie" if (g[tied] == g[tied][0]).all() else "unequal_tie"] += 1
        seen["shortcut"] += bool(np.count_nonzero(vals == np.max(vals, axis=1)[:, None]) == R
                                 and not np.isnan(vals).any())
    assert min(seen.values()) >= 300, seen


def test_value_methods_read_the_values_of_the_block():
    """objective, eval_F and inner_max read the values alone, with the
    bytes of the values in the full block of values and gradients: over
    the finite maxima of the block path test, with pieces with and
    without Q, ties, and rows whose entries overflow to inf or meet as
    NaN."""
    gen = np.random.Generator(np.random.Philox(59))
    seen = {"inf": 0, "nan": 0}
    for case in range(300):
        prob, points = _block_case(gen, ("affine", "quadratic", "mixed")[case % 3])
        oracle = finite_max_oracle(prob)
        X = np.array(points)
        vals = oracle._block(X)[0]
        assert oracle._values(X).tobytes() == vals.tobytes()
        for x, row in zip(points, vals):
            i = int(np.argmax(row))
            assert repr(oracle.objective(x)) == repr(float(row[i]))
            assert oracle.inner_max(x).tolist() == [float(i)]
            for t in range(len(prob.pieces)):
                assert repr(oracle.eval_F(x, [float(t)])) == repr(float(row[t]))
        seen["inf"] += bool(np.isinf(vals).any())
        seen["nan"] += bool(np.isnan(vals).any())
    assert min(seen.values()) >= 20, seen


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
    # Q within allclose of symmetric: at x = (300, -200), a + Qx reads
    # (400, -99.997) against the central difference (399.999, -99.9985).
    for Q in (((1.0, 2.0), (3.0, 4.0)), ((2.0, 1.0), (1.00001, 2.0))):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMaxProblem(pieces=(MaxPiece(a=(1.0, 0.0), Q=Q),))
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
    """The literal bound is the grid maximum of |bump'| and |bump''| that it
    was computed from, inflated by 1e-6: recomputed here, that maximum
    lies within 2e-6 below it, and a finer grid stays under it."""
    C = BUMP_DERIVATIVE_BOUND
    u = np.linspace(-1.0, 1.0, 400_001)
    grid_max = max(np.max(np.abs(bump_d1(u))), np.max(np.abs(bump_d2(u))))
    assert C / (1.0 + 2e-6) <= grid_max <= C
    u = np.linspace(-1.0, 1.0, 999_999)
    assert max(np.max(np.abs(bump_d1(u))), np.max(np.abs(bump_d2(u)))) <= C


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


def test_stress_block_path_matches_per_point_path_bytewise():
    """The stress oracle's stacked pass gives each member coef * g_k and
    coef * g_k' with the bytes of the scalar formula, and its bundles the
    gradients of the base walk, stopping before the same first miss of D:
    a bump's midpoint, where every member is 0 and the slopes differ."""
    gen = np.random.Generator(np.random.Philox(53))
    misses = 0
    for depth in (1, 3, 6):
        prob = CantorStressProblem(depth=depth)
        oracle = cantor_stress_oracle(prob)
        on_bumps = []
        for k in range(1, depth + 1):
            mids, delta, _, _ = oracle.level(k)
            on_bumps += [m + delta * u for m in mids for u in (0.0, -0.5, 1 / 3)]
        coefs = [0.0] + [1.0 / (k * j) ** 2 for k in range(1, depth + 1)
                         for j in (k + 1, k - 1) if j]
        levels = [0] + [k for k in range(1, depth + 1) for j in (k + 1, k - 1) if j]
        for _ in range(40):
            xs = [float(v) for v in gen.uniform(-0.1, 1.1, int(gen.integers(1, 8)))]
            xs += list(gen.choice(on_bumps, int(gen.integers(0, 5))))
            points = [np.array([v]) for v in gen.permutation(xs)]
            vals, grads = oracle._block(np.array(points))
            for p, vrow, grow in zip(points, vals, grads):
                g = [oracle._bump_sum(k, float(p[0])) for k in levels]
                assert vrow.tobytes() == np.array([c * gk[0] for c, gk in zip(coefs, g)]).tobytes()
                assert grow.tobytes() == np.array([[c * gk[1]] for c, gk in zip(coefs, g)]).tobytes()
            got = [g.tobytes() for g in oracle.sample_gradients(points)]
            want = [g.tobytes() for g in ProblemOracle.sample_gradients(
                cantor_stress_oracle(prob), points)]
            assert got == want
            misses += len(want) < len(points)
    assert misses >= 30


def test_bump_evaluated_once_per_point(monkeypatch):
    """Bumps of different levels are disjoint, so a point lies on at most
    one: its objective, and its gradient as a bundle sample, each evaluate
    that bump and its slope once, and agree with a fresh oracle's
    primitives."""
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
        assert fresh.in_D(x)
        expected.append((repr(fresh.eval_F(x, theta)), fresh.grad_x_F(x, theta).tobytes()))
    monkeypatch.setattr(testfns, "bump", counted("bump", bump))
    monkeypatch.setattr(testfns, "bump_d1", counted("bump_d1", bump_d1))
    for n, k in enumerate((2, 4, 2), start=1):
        mids, delta, _, _ = oracle.level(k)
        x = np.array([mids[1] + delta / 3.0])
        f = repr(oracle.objective(x))
        assert calls == {"bump": 2 * n - 1, "bump_d1": 2 * n - 1}
        rows = [g.tobytes() for g in oracle.sample_gradients(x[None])]
        assert calls == {"bump": 2 * n, "bump_d1": 2 * n}
        assert (f, rows) == (expected[n - 1][0], [expected[n - 1][1]])


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
