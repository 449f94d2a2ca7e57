"""Minimum-norm-point solver against closed forms and the lattice oracle."""

import re

import numpy as np
import pytest

from gradsamp import MinNormResult, min_norm_point
from gradsamp import minnorm
from gradsamp.minnorm import _TOL
from oracles import min_norm_bruteforce, reference_min_norm_point, reference_wolfe


def test_singleton_hull():
    res = min_norm_point([np.array([2.0, 0.0])])
    np.testing.assert_allclose(res.point, [2.0, 0.0])
    np.testing.assert_allclose(res.weights, [1.0])


def test_symmetric_pair():
    res = min_norm_point([np.array([1.0, 1.0]), np.array([-1.0, 1.0])])
    np.testing.assert_allclose(res.point, [0.0, 1.0], atol=1e-12)


def test_three_point_interior_face():
    # Known optimum (3, 0): the segment between (3,4) and (3,-4) is the
    # closest face; cross-checked by the lattice oracle below.
    pts = [np.array([3.0, 4.0]), np.array([3.0, -4.0]), np.array([5.0, 0.0])]
    res = min_norm_point(pts)
    np.testing.assert_allclose(res.point, [3.0, 0.0], atol=1e-9)
    brute = min_norm_bruteforce(pts, 1e-3)
    np.testing.assert_allclose(brute, [3.0, 0.0], atol=1e-2)


def test_collinear_segment_nearest_endpoint():
    res = min_norm_point([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
    np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-12)


def test_weights_certify_containment():
    gen = np.random.Generator(np.random.Philox(11))
    for _ in range(50):
        pts = gen.uniform(-5.0, 5.0, size=(4, 3))
        res = min_norm_point(list(pts))
        assert np.all(res.weights >= 0.0)
        assert abs(res.weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(res.weights @ pts, res.point, atol=1e-10)


def test_zero_in_hull_detected():
    pts = [np.array([1.0, 0.0]), np.array([-1.0, 0.5]), np.array([-1.0, -0.5])]
    res = min_norm_point(pts)
    scale = 1e-12 * (1.0 + max(np.linalg.norm(p) for p in pts))
    assert np.linalg.norm(res.point) <= scale * 10


def test_permutation_invariant_value():
    gen = np.random.Generator(np.random.Philox(12))
    pts = list(gen.uniform(-3.0, 3.0, size=(5, 2)))
    base = np.linalg.norm(min_norm_point(pts).point)
    for _ in range(5):
        perm = gen.permutation(5)
        v = np.linalg.norm(min_norm_point([pts[i] for i in perm]).point)
        assert abs(v - base) <= 1e-12


def test_duplicate_points_deduplicated():
    p = np.array([2.0, 1.0])
    res = min_norm_point([p, p.copy(), np.array([-2.0, 1.0])])
    np.testing.assert_allclose(res.point, [0.0, 1.0], atol=1e-12)
    # Weight flows to the first duplicate only.
    assert res.weights[1] == 0.0


def test_dedup_merges_exactly_the_bitwise_equal_rows():
    """A bundle's min-norm point, gap and iteration count are, byte for
    byte, those of its rows with every bitwise duplicate removed, and
    each weight goes to a row's first occurrence.  On bundles whose rows
    all differ in the first coordinate, so that the byte keys are
    skipped, and bundles that share a first coordinate, hold bitwise
    duplicates, or hold rows that differ only in a 0.0 against a -0.0
    first coordinate, which are equal as floats but stay two points."""
    gen = np.random.Generator(np.random.Philox(67))
    seen = {"shortcut": 0, "shared": 0, "merged": 0, "signed_zero": 0}
    for case in range(800):
        m, n = int(gen.integers(2, 9)), int(gen.integers(1, 6))
        P = gen.standard_normal((m, n))
        i, j = (int(v) for v in gen.choice(m, size=2, replace=False))
        kind = case % 4
        if kind == 1:
            P[j, 0] = P[i, 0]
        elif kind == 2:
            P[j] = P[i]
        elif kind == 3:
            P[j] = P[i]
            P[i, 0], P[j, 0] = 0.0, -0.0
        first = {}
        for r, row in enumerate(P):
            first.setdefault(row.tobytes(), r)
        idx = list(first.values())
        res, ref = min_norm_point(P), min_norm_point(P[idx])
        assert not res.capped and not ref.capped
        assert res.point.tobytes() == ref.point.tobytes(), P
        assert repr(res.gap) == repr(ref.gap) and res.iterations == ref.iterations
        want = np.zeros(m)
        want[idx] = ref.weights
        assert res.weights.tobytes() == want.tobytes(), P
        distinct = len(set(P[:, 0].tolist())) == m
        seen["shortcut"] += distinct
        seen["shared"] += not distinct and len(idx) == m
        seen["merged"] += len(idx) < m
        seen["signed_zero"] += kind == 3 and len(idx) == m
    assert min(seen.values()) >= 150, seen


def test_wolfe_certificate_holds():
    gen = np.random.Generator(np.random.Philox(13))
    for _ in range(30):
        pts = gen.uniform(-10.0, 10.0, size=(5, 3))
        res = min_norm_point(list(pts))
        g = res.point
        gsq = float(g @ g)
        for p in pts:
            assert float(g @ (p - g)) >= -1e-10 * (1.0 + gsq)


def test_one_long_point_still_certifies():
    """With one point 1e4 times longer than the rest, the rounding of the
    weights times that point can miss the Wolfe test: it did on 36 of these
    300 seeded bundles before the refinement step, and does on at most a
    few after it.  Every result keeps simplex weights that give its point."""
    missed = 0
    for seed in range(300):
        pts = np.random.Generator(np.random.Philox(seed)).standard_normal((4, 3))
        pts[0] *= 1e4
        res = min_norm_point(list(pts))
        g = res.point
        missed += res.gap > _TOL * (1.0 + float(g @ g))
        assert np.all(res.weights >= 0.0) and abs(res.weights.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(res.weights @ pts, g, rtol=0.0, atol=1e-9)
    assert missed <= 8


def test_empty_and_nonfinite_rejected():
    with pytest.raises(ValueError):
        min_norm_point([])
    with pytest.raises(ValueError):
        min_norm_point([np.array([np.nan, 0.0])])
    # Rows of two lengths, and a bare vector, have no common dimension.
    with pytest.raises(ValueError):
        min_norm_point([[1.0, 0.0], [1.0]])
    with pytest.raises(ValueError, match="common dimension"):
        min_norm_point(np.array([1.0, 0.0]))


def test_result_reports_iterations():
    res = min_norm_point([np.array([1.0, 1.0]), np.array([-1.0, 1.0])])
    assert isinstance(res, MinNormResult)
    assert res.iterations >= 1
    assert not res.capped


def test_bruteforce_symmetric_pairs():
    out = min_norm_bruteforce([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 1e-3)
    np.testing.assert_allclose(out, [0.5, 0.5], atol=2e-3)
    out = min_norm_bruteforce([np.array([1.0, 0.0]), np.array([-1.0, 0.0])], 1e-3)
    np.testing.assert_allclose(out, [0.0, 0.0], atol=2e-3)


def test_bruteforce_input_validation():
    pts = [np.array([1.0, 0.0])] * 7
    with pytest.raises(ValueError):
        min_norm_bruteforce(pts, 1e-3)
    with pytest.raises(ValueError):
        min_norm_bruteforce(pts[:2], 0.5)
    with pytest.raises(ValueError):
        min_norm_bruteforce([], 1e-3)


def test_bruteforce_refinement_matches_exhaustive():
    """The windowed multiscale path (large lattices) agrees with the
    exhaustive path run at a coarser, feasible resolution."""
    gen = np.random.Generator(np.random.Philox(14))
    for _ in range(10):
        pts = list(gen.uniform(-4.0, 4.0, size=(4, 2)))
        fine = np.linalg.norm(min_norm_bruteforce(pts, 1e-3))    # refined
        coarse = np.linalg.norm(min_norm_bruteforce(pts, 0.05))  # exhaustive
        exact = np.linalg.norm(min_norm_point(pts).point)
        assert fine <= coarse + 1e-9
        assert fine >= exact - 1e-12


def test_scale_guard_solves_extreme_bundles():
    """Bundles with coordinates far outside [1e-100, 1e100] are solved at a
    power-of-two scale, so the Gram matrix neither overflows nor
    underflows, and the point comes back in the caller's units."""
    for s in (1e160, 1e300, 1e-200):
        res = min_norm_point([np.array([s, 0.0]), np.array([0.0, s])])
        np.testing.assert_allclose(res.point, [s / 2, s / 2], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], rtol=1e-12)


def test_scale_guard_is_exact():
    """Scaling by a power of two commutes with the solve: the point scales
    by 2**k and the gap, a squared quantity, by 2**(2k), bit for bit."""
    pts = [np.array([0.5, 0.25, -0.125]), np.array([-0.375, 0.5, 0.0625]),
           np.array([0.125, -0.25, 0.5])]
    base = min_norm_point(pts)
    big = min_norm_point([np.ldexp(p, 400) for p in pts])
    np.testing.assert_array_equal(big.point, np.ldexp(base.point, 400))
    np.testing.assert_array_equal(big.weights, base.weights)
    assert big.gap == np.ldexp(base.gap, 800)
    assert big.iterations == base.iterations


def test_largest_magnitude_reads_both_signs(monkeypatch):
    """The finite check and the scale guard take the largest magnitude from
    the largest and the negated smallest coordinate: a NaN anywhere, +inf
    and -inf raise NonFiniteError; a bundle whose largest magnitude is
    negative is scaled as its negation is; an all-zero bundle takes no
    shift."""
    for bad in (np.nan, np.inf, -np.inf):
        for at in np.ndindex(2, 2):
            P = np.array([[1e300, -2.0], [-1e300, 3.0]])
            P[at] = bad
            with pytest.raises(minnorm.NonFiniteError):
                min_norm_point(P)
    for s in (1e160, 1e300, 1e-200):
        res = min_norm_point([np.array([-s, 0.0]), np.array([0.0, -s])])
        np.testing.assert_allclose(res.point, [-s / 2, -s / 2], rtol=1e-12, atol=0.0)

    shifts, ldexp = [], np.ldexp

    def recorded(a, e):
        shifts.append(e)
        return ldexp(a, e)

    monkeypatch.setattr(np, "ldexp", recorded)
    res = min_norm_point(np.zeros((3, 2)))
    assert res.point.tolist() == [0.0, 0.0] and res.gap == 0.0
    assert shifts in ([], [0])


def test_wolfe_converts_only_the_rows_of_points_that_enter(monkeypatch):
    """_wolfe turns a row of the Gram matrix into Python floats only when
    its point enters the active set, and only once, besides the diagonal;
    it never converts the whole m x m matrix.  Seen through an ndarray
    subclass that records every tolist() of memory inside G, on a seeded
    bundle of 402 points in 400 dimensions, the size of an N = 400
    coverage bundle, where some points leave the active set and enter it
    again."""
    gen = np.random.Generator(np.random.Philox(414))
    Q = gen.normal(size=(402, 400)) + 0.3
    G = Q @ Q.T
    m = len(G)
    converted = []

    class Counting(np.ndarray):
        def tolist(self):
            if np.shares_memory(self, counted):
                offset = self.__array_interface__["data"][0] - start
                converted.append((self.shape, self.strides, offset))
            return super().tolist()

    counted = G.view(Counting)
    start = counted.__array_interface__["data"][0]
    history = []
    extend = minnorm._extend_factor

    def recording(L, z, Gl, active):
        history.append(list(active))
        return extend(L, z, Gl, active)

    monkeypatch.setattr(minnorm, "_extend_factor", recording)
    active, lam, it, capped = minnorm._wolfe(counted, 64 * m)
    # The same answer as on the plain array.
    assert (active, lam, it, capped) == minnorm._wolfe(G, 64 * m)
    entered = set().union(*history)
    returned = [p for p in entered if re.search(
        "10+1", "".join("1" if p in a else "0" for a in history))]
    assert not capped and returned
    diagonal = [c for c in converted if c[1] == ((m + 1) * G.itemsize,)]
    rows = [c for c in converted if c[1] == (G.itemsize,)]
    assert len(diagonal) == 1 and len(diagonal) + len(rows) == len(converted)
    assert all(shape == (m,) and offset % (m * G.itemsize) == 0
               for shape, _, offset in rows)
    row_ids = [offset // (m * G.itemsize) for _, _, offset in rows]
    assert len(set(row_ids)) == len(row_ids) and set(row_ids) <= entered


def test_qp_matches_the_reference_byte_for_byte(monkeypatch):
    """min_norm_point gives, bit for bit, the point, weights, gap, iteration
    count and cap flag of the reference QP, which takes each major cycle's
    dots from one product with G and every product through ``@``.  On
    seeded bundles of every m from 1 to 30 and every n from 1 to 12, with
    bitwise-duplicate rows, +-0.0 coordinates, scales of 1e-120, 1e120 and
    1e300 that take the rescale path, and four points in 3-D with one
    scaled by 1e4, which take the refinement step."""
    gen = np.random.Generator(np.random.Philox(3141))
    lstsq, refined = np.linalg.lstsq, []

    def counting(*args, **kwargs):
        refined.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)

    def check(P):
        """Point and weights byte for byte, and the whole result by repr,
        which spells the gap exactly, the iteration count and cap flag."""
        refined_before = len(refined)
        res = min_norm_point(P)
        took_refinement = len(refined) > refined_before
        ref = reference_min_norm_point(P)
        assert res.point.tobytes() == ref.point.tobytes(), P
        assert res.weights.tobytes() == ref.weights.tobytes(), P
        assert res.point.shape == ref.point.shape and res.weights.shape == ref.weights.shape
        assert repr(res) == repr(ref), P
        return res, took_refinement

    seen = {"several_cycles": 0, "duplicates": 0, "zeros": 0, "rescaled": 0, "refined": 0}
    pairs = [(m, n) for m in range(1, 31) for n in range(1, 13)]
    for case, (m, n) in enumerate(pairs * 4):
        kind = case // len(pairs)
        P = gen.standard_normal((m, n)) + gen.uniform(-1.0, 1.0, n)
        if kind == 1 and m > 1:
            idx = gen.integers(0, m, m)
            P = P[np.sort(idx)]
            seen["duplicates"] += len(set(map(bytes, P))) < m
        elif kind == 2:
            P[gen.random((m, n)) < 0.4] = 0.0
            P[gen.random((m, n)) < 0.3] *= -1.0
            seen["zeros"] += bool(np.any((P == 0.0) & np.signbit(P)))
        elif kind == 3:
            P = P * (1e-120, 1e120, 1e300)[case % 3]
            seen["rescaled"] += 1
        res, took = check(P)
        seen["several_cycles"] += res.iterations > 2
        seen["refined"] += took
    for _ in range(600):
        P = gen.standard_normal((4, 3))
        P[int(gen.integers(4))] *= 1e4
        seen["refined"] += check(P)[1]
    # Start points alone, and a start whose coordinates are signed zeros.
    for P in ([[0.5], [-0.0]], [[-0.0], [0.5]], [[0.0, -0.0], [-0.0, 0.0]],
              [[-0.0, 1.0], [0.5, -0.0], [-0.0, -0.25]], [[1.0, 2.0]], [[-0.0]]):
        check(np.array(P))
    assert min(seen.values()) >= 50, seen


def test_first_cycle_signed_zeros_in_the_start_row_move_nothing():
    """_wolfe's first cycle reads its dots from the start point's Gram row,
    which may differ from the product G[:, [a]] @ [1.0] in the sign of a
    zero.  On seeded Gram matrices whose zero entries are -0.0, in the
    start row among others, it returns what the reference returns."""
    gen = np.random.Generator(np.random.Philox(2718))
    flipped = 0
    for _ in range(400):
        m, n = int(gen.integers(2, 12)), int(gen.integers(1, 6))
        P = gen.standard_normal((m, n))
        P[gen.random((m, n)) < 0.6] = 0.0
        G = P @ P.T
        G[G == 0.0] = -0.0
        np.fill_diagonal(G, np.abs(G.diagonal()))  # sums of squares
        start = G.diagonal().tolist()
        start = start.index(min(start))
        flipped += bool(np.any(np.signbit(G[start]) & (G[start] == 0.0)))
        assert repr(minnorm._wolfe(G, 64 * m)) == repr(reference_wolfe(G, 64 * m))
    assert flipped >= 100, flipped


def test_wolfe_state_at_every_cap_matches_the_reference():
    """Capped after each of its major cycles in turn, _wolfe returns the
    reference's active set, weights, cycle count and cap flag, weights
    compared by repr.  So every cycle's state is pinned, and so is the
    cap path, which no full solve reaches."""
    gen = np.random.Generator(np.random.Philox(1618))
    capped = 0
    for case in range(300):
        m, n = 1 + case % 30, 1 + case // 30
        Q = gen.standard_normal((m, n)) + gen.uniform(-1.0, 1.0, n)
        G = Q.dot(Q.T)
        *_, cycles, full_cap = minnorm._wolfe(G, 64 * m)
        assert not full_cap
        for cap in range(1, cycles + 1):
            res, ref = minnorm._wolfe(G, cap), reference_wolfe(G, cap)
            assert repr(res) == repr(ref), (Q, cap)
            capped += res[3]
    assert capped >= 500, capped
