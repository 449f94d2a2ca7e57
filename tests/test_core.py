"""Parameter validation and shared-contract checks."""

import math
import sys
import threading
import time
from types import ModuleType

import numpy as np
import pytest

from gradsamp import (
    CantorStressProblem,
    FiniteMaxProblem,
    GsParams,
    MaxPiece,
    NonsmoothPolicy,
    ParamError,
    Rng,
    cantor_stress_oracle,
    finite_max_oracle,
    make_coverage_oracle,
    run,
    validate_params,
)
from gradsamp import coverage, testfns
from gradsamp.core import GsState
from gradsamp.coverage import CoverageProblem
import gradsamp


def test_defaults_valid_for_small_dims():
    for n in (1, 2, 5):
        validate_params(GsParams(), n)


def test_m_equal_n_plus_one_ok():
    validate_params(GsParams(alpha=0.5, beta=0.5, gamma=0.5, m=4), 3)


def test_m_below_n_plus_one_rejected():
    with pytest.raises(ParamError, match="m < n\\+1"):
        validate_params(GsParams(m=3), 3)


def test_mu_at_one_rejected():
    with pytest.raises(ParamError, match="mu not in \\(0,1\\)"):
        validate_params(GsParams(mu=1.0), 2)


def test_multiple_violations_all_reported():
    with pytest.raises(ParamError) as exc:
        validate_params(GsParams(alpha=0.0, beta=2.0, m=1), 2)
    msg = str(exc.value)
    assert "alpha" in msg and "beta" in msg and "m < n+1" in msg
    with pytest.raises(ParamError) as exc:
        validate_params(GsParams(eps1=math.inf, nu1=math.nan, eps_min=math.nan), 2)
    msg = str(exc.value)
    assert "eps1" in msg and "nu1" in msg and "eps_min" in msg
    for value in (math.nan, math.inf):
        with pytest.raises(ParamError, match="nu_min"):
            validate_params(GsParams(nu_min=value), 2)


def test_non_integer_counts_rejected():
    for field, value in (("m", 3.5), ("max_iters", 20.0), ("max_iters", True)):
        with pytest.raises(ParamError, match=f"{field} not an integer"):
            validate_params(GsParams(**{field: value}), 2)


def test_t_init_factor_floor():
    with pytest.raises(ParamError, match="t_init_factor"):
        validate_params(GsParams(gamma=0.9, t_init_factor=0.2), 2)


def test_effective_m_defaults_to_n_plus_two():
    p = GsParams()
    assert p.effective_m(4) == 6
    assert GsParams(m=9).effective_m(4) == 9


def test_snapshot_round_trips_policy_as_string():
    snap = GsParams(on_nonsmooth_sample=NonsmoothPolicy.RESAMPLE).snapshot()
    assert snap["on_nonsmooth_sample"] == "resample"


def test_param_fields_are_pinned():
    """The parameter surface is the solver's: no field for an inner-oracle
    accuracy schedule, which exact oracles would ignore."""
    assert set(GsParams().snapshot()) == {
        "alpha", "beta", "gamma", "eps1", "nu1", "mu", "vartheta", "m",
        "t_init_factor", "max_iters", "eps_min", "nu_min", "on_nonsmooth_sample",
    }


def _two_agent_oracle():
    prob = CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                           theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45))
    return make_coverage_oracle(prob)


def test_tolerance_coupling_shares_one_exponent():
    """eps and nu are always discounted together: eps/eps1 = mu^a and
    nu/nu1 = vartheta^a with the same integer a at every iteration."""
    oracle = _two_agent_oracle()
    p = GsParams(max_iters=400)
    tr = run(oracle, p, np.array([0.3, 3.3]), Rng(5))
    for r in tr.records:
        a_eps = math.log(r.eps / p.eps1) / math.log(p.mu)
        a_nu = math.log(r.nu / p.nu1) / math.log(p.vartheta)
        assert a_eps == pytest.approx(a_nu, abs=1e-9)
        assert a_eps == pytest.approx(round(a_eps), abs=1e-9)
        assert round(a_eps) >= 0


def test_oracle_purity_double_call():
    oracle = _two_agent_oracle()
    x = np.array([0.7, 3.1])
    theta = np.array([0.3, 0.2])
    assert oracle.eval_F(x, theta) == oracle.eval_F(x, theta)
    np.testing.assert_array_equal(oracle.grad_x_F(x, theta),
                                  oracle.grad_x_F(x, theta))


def _concurrency_case(family):
    """(oracle factory, a few distinct points in D, and the (owner, name) of
    the function that evaluates a point) for one oracle family."""
    gen = np.random.Generator(np.random.Philox(61))
    if family == "finite_max":
        prob = FiniteMaxProblem(pieces=tuple(
            MaxPiece(a=tuple(gen.standard_normal(3)), b=float(gen.standard_normal()),
                     Q=((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.5)))
            for _ in range(5)))
        return (lambda: finite_max_oracle(prob),
                [gen.uniform(-2.0, 2.0, size=3) for _ in range(3)],
                (testfns.FiniteMaxOracle, "_block"))
    if family == "cantor":
        prob = CantorStressProblem(depth=4)
        levels = cantor_stress_oracle(prob)
        points = []
        for k in (2, 3, 4):  # on a bump of each level, so every level is asked
            mids, delta, _, _ = levels.level(k)
            points.append(np.array([mids[1] + delta / 3.0]))
        return (lambda: cantor_stress_oracle(prob), points,
                (testfns.CantorStressOracle, "_block"))
    prob = CoverageProblem(n_agents=6, bin_edges=tuple(float(v) for v in range(9)),
                           theta_lower=(0.05,) * 8, theta_upper=(0.3,) * 8,
                           penalty_enabled=True)
    return (lambda: make_coverage_oracle(prob),
            [gen.uniform(-0.5, 8.5, size=6) for _ in range(3)],
            (coverage, "_partition"))


def _answers(oracle, x):
    theta = oracle.inner_max(x)
    return (oracle.in_D(x), theta.tobytes(), repr(oracle.eval_F(x, theta)),
            oracle.grad_x_F(x, theta).tobytes(), repr(oracle.objective(x)))


@pytest.mark.parametrize("family", ["finite_max", "cantor", "coverage"])
def test_oracle_memos_safe_to_call_concurrently(family, monkeypatch):
    """The contract allows concurrent calls: threads that share one
    oracle, each on its own point, get exactly what a fresh oracle gives.
    The function that evaluates a point sleeps briefly before it returns,
    so the threads switch mid-evaluation and not only where the
    interpreter happens to."""
    make, points, (owner, name) = _concurrency_case(family)
    want = [_answers(make(), x) for x in points]
    fill = getattr(owner, name)

    def yielding(*args):
        got = fill(*args)
        time.sleep(1e-5)
        return got

    monkeypatch.setattr(owner, name, yielding)
    shared = make()
    wrong = []

    def ask(x, expected):
        try:
            for _ in range(100):
                got = _answers(shared, x)
                if got != expected:
                    wrong.append(got)
        except Exception as e:  # a thread's exception would only warn
            wrong.append(repr(e))

    threads = [threading.Thread(target=ask, args=case) for case in zip(points, want)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert all(a[0] for a in want)
    assert wrong == []


def _override_case(family):
    """(oracle, points) for one oracle family: seeded points in D, points
    off D and, for coverage, points far out, with |x| of 1e154 and more."""
    gen = np.random.Generator(np.random.Philox(67))
    if family.startswith("coverage"):
        # coverage_block is wide enough for one point to take the block path.
        N, K = (40, 80) if family == "coverage_block" else (6, 8)
        prob = CoverageProblem(n_agents=N, bin_edges=tuple(float(v) for v in range(K + 1)),
                               theta_lower=(0.5 / K,) * K, theta_upper=(2.0 / K,) * K,
                               penalty_enabled=family != "coverage_no_penalty")
        points = [gen.uniform(-0.5, K + 0.5, size=N) for _ in range(4)]
        on_edge, coincide, mid_on_edge = (points[i].copy() for i in range(3))
        on_edge[1] = 3.0
        coincide[2] = coincide[0]
        mid_on_edge[:2] = 1.25, 2.75  # sorted neighbours by construction
        mid_on_edge[2:] = np.sort(gen.uniform(3.5, K + 0.5, size=N - 2))
        far = [gen.uniform(-1.0, 1.0, size=N) * scale for scale in (1e154, 3e154, 1e200)]
        return make_coverage_oracle(prob), points + [on_edge, coincide, mid_on_edge] + far
    if family == "finite_max":
        # Pieces 0 and 4 are equal, and pieces 0 and 1 tie where
        # 2 x_0 + 1.5 x_1 = 0, with unequal gradients.
        prob = FiniteMaxProblem(pieces=(
            MaxPiece(a=(1.0, 2.0, 0.0)), MaxPiece(a=(-1.0, 0.5, 0.0)),
            MaxPiece(a=(0.0, 0.0, 1.0), b=-50.0, Q=((1.0, 0.0, 0.0), (0.0, 2.0, 0.0),
                                                   (0.0, 0.0, 0.5))),
            MaxPiece(a=(0.5, 0.5, 0.5), b=-20.0), MaxPiece(a=(1.0, 2.0, 0.0))))
        points = [gen.uniform(-2.0, 2.0, size=3) for _ in range(6)]
        points += [gen.uniform(-1.0, 1.0, size=3) * 1e100 for _ in range(2)]
        points += [np.array([0.75 * s, -s, float(gen.uniform(-1.0, 1.0))]) for s in (1.0, 2.0, 4.0)]
        return finite_max_oracle(prob), points
    oracle = cantor_stress_oracle(CantorStressProblem(depth=4))
    points = [np.array([v]) for v in gen.uniform(-0.1, 1.1, size=6)]
    for k in (1, 2, 4):
        mids, delta, _, _ = oracle.level(k)
        points += [np.array([mids[0] + delta / 3.0]), np.array([mids[-1]])]
    return oracle, points + [np.array([1e300])]


@pytest.mark.parametrize("family", ["coverage", "coverage_no_penalty", "coverage_block",
                                    "finite_max", "cantor"])
def test_overrides_agree_with_the_primitives(family):
    """Each shipped oracle's objective and sample_gradients give the bytes
    of the base definitions from its primitives: f(x) = eval_F(x,
    inner_max(x)), no row exactly when x is outside D, and otherwise the
    row grad_x_F(x, inner_max(x))."""
    oracle, points = _override_case(family)
    outside = 0
    for x in points:
        theta = oracle.inner_max(x)
        assert repr(oracle.objective(x)) == repr(oracle.eval_F(x, theta))
        rows = oracle.sample_gradients(x[None])
        assert len(rows) == int(oracle.in_D(x))
        if len(rows):
            assert np.asarray(rows[0]).tobytes() == oracle.grad_x_F(x, theta).tobytes()
        outside += len(rows) == 0
    assert 3 <= outside <= len(points) - 4


def test_trace_iteration_numbers_strictly_increasing():
    oracle = _two_agent_oracle()
    tr = run(oracle, GsParams(max_iters=50), np.array([0.3, 3.3]), Rng(3))
    ks = [r.k for r in tr.records]
    assert ks == list(range(1, len(ks) + 1))


def test_state_fields():
    s = GsState(k=3, x=np.array([1.0]), eps=0.1, nu=0.05)
    assert s.k == 3 and s.eps == 0.1 and s.nu == 0.05


def test_public_api_exports_no_submodules():
    assert not [n for n in gradsamp.__all__
                if isinstance(getattr(gradsamp, n), ModuleType)]
    assert len(gradsamp.__all__) == 24


def test_public_api_is_pinned():
    """The package namespace is the solver and the oracle contract; helpers
    that only tests use are imported from their modules."""
    assert set(gradsamp.__all__) == {
        "CantorStressProblem", "CoverageProblem", "FiniteMaxProblem",
        "GsParams", "IterationRecord", "MaxPiece",
        "MinNormResult", "NonsmoothPolicy", "NonsmoothSampleError", "ParamError",
        "ProblemOracle", "Rng", "StepKind", "Termination", "Trace",
        "cantor_stress_oracle", "finite_max_oracle",
        "gradient_descent_baseline", "inner_lp_max",
        "make_coverage_oracle", "min_norm_point", "penalty", "run",
        "validate_params",
    }
