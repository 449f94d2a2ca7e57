"""What the solvers pay the oracle: f at an iterate is never evaluated twice.

Every value of f costs one inner maximization, so the sampling run
evaluates f at x1 once and then carries the value its line search
accepted; the GD baseline does the same.  The solvers ask only for
``objective`` and ``sample_gradients``, so the counting oracles below count
those two, the points f is asked at, and the bundle rows asked for.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gradsamp import (
    FiniteMaxProblem, GsParams, MaxPiece, Rng, Termination, gradient_descent_baseline, run,
)
import gradsamp.cli
import gradsamp.driver
from gradsamp.cli import build_problem_oracle
from gradsamp.testfns import FiniteMaxOracle

import test_golden

REPO = Path(__file__).resolve().parents[1]


class _Counting:
    """Counts the calls by method and the rows asked of
    ``sample_gradients``; ``at`` counts f by point."""

    def __init__(self, prob):
        super().__init__(prob)
        self.calls = Counter()
        self.at = Counter()

    def sample_gradients(self, points):
        self.calls["sample_gradients"] += 1
        self.calls["rows"] += len(points)
        return super().sample_gradients(points)

    def objective(self, x):
        self.calls["objective"] += 1
        self.at[np.asarray(x, dtype=float).tobytes()] += 1
        return super().objective(x)


def _counting(config):
    """A config's oracle (a small coverage problem or a finite max) made
    counting, with the config's parameters, x1 and seed."""
    cfg = json.loads((REPO / "configs" / f"{config}.json").read_text())
    base = build_problem_oracle(cfg["problem"])
    oracle = type(f"Counting{type(base).__name__}", (_Counting, type(base)), {})(base.prob)
    return oracle, GsParams(**cfg["params"]), np.array(cfg["x1"], dtype=float), cfg["seed"]


def _spy(monkeypatch, oracle):
    """Line-search trials summed, and the oracle's counts after each step."""
    trials, after_step = [], []
    line_search, step = gradsamp.driver.line_search, gradsamp.driver.step

    def counted_line_search(*args):
        out = line_search(*args)
        trials.append(out.trials)
        return out

    def counted_step(*args):
        out = step(*args)
        after_step.append(Counter(oracle.calls))
        return out

    monkeypatch.setattr(gradsamp.driver, "line_search", counted_line_search)
    monkeypatch.setattr(gradsamp.driver, "step", counted_step)
    return trials, after_step


@pytest.mark.parametrize("config", ["two_agent", "abs_value"])
def test_a_run_evaluates_f_at_each_iterate_once(config, monkeypatch):
    oracle, p, x1, seed = _counting(config)
    trials, after_step = _spy(monkeypatch, oracle)
    tr = run(oracle, p, x1, Rng(seed))
    assert tr.termination == Termination.TOLERANCES_REACHED
    draws = sum(r.sample_count for r in tr.records)
    c = oracle.calls
    assert oracle.at[x1.tobytes()] == 1
    assert c["objective"] == sum(trials) + 1
    assert c["rows"] == draws  # no sample missed D, so none was asked twice
    assert set(c) == {"objective", "sample_gradients", "rows"}
    assert after_step[-1] == c  # the final x and f cost nothing more


def test_null_steps_at_x1_do_not_evaluate_f_again(monkeypatch):
    """|x| from its minimizer: the first steps are NullTolerance steps at
    x1, and they carry the one value of f there."""
    oracle, p, _, seed = _counting("abs_value")
    x1 = np.array([0.0])
    p.max_iters = 6
    trials, _ = _spy(monkeypatch, oracle)
    tr = run(oracle, p, x1, Rng(seed))
    assert tr.records[0].step_kind.value == "NullTolerance"
    assert sum(np.array_equal(r.x, x1) for r in tr.records) >= 2
    assert oracle.at[x1.tobytes()] == 1
    assert oracle.calls["objective"] == sum(trials) + 1


def _leaves_D_at_once():
    """A finite max whose first piece is -inf + inf, NaN, past x = 1.797:
    f(1) = 1, and the first step's ball of radius 2 about x1 = 1 draws a
    sample there with seed 1."""
    prob = FiniteMaxProblem(pieces=(MaxPiece(a=(-1e308,), Q=((1e308,),)), MaxPiece(a=(1.0,))))
    oracle = type("CountingFiniteMaxOracle", (_Counting, FiniteMaxOracle), {})(prob)
    return oracle, GsParams(eps1=2.0), np.array([1.0]), 1


@pytest.mark.parametrize("case", ["max_iters_0", "sample_outside_D"])
def test_a_run_with_no_step_evaluates_f_at_x1_once(case):
    """A run that ends before any step returns, at max_iters 0 or at a
    first step whose sample leaves D, makes one objective call, at x1, on
    entry, and its one record and its final f hold that value."""
    if case == "max_iters_0":
        oracle, p, x1, seed = _counting("two_agent")
        p.max_iters = 0
        termination = Termination.MAX_ITERS
    else:
        oracle, p, x1, seed = _leaves_D_at_once()
        termination = Termination.NONSMOOTH_SAMPLE_STOP
    tr = run(oracle, p, x1, Rng(seed))
    assert tr.termination == termination
    assert len(tr.records) == 1 and tr.records[0].sample_count == 0
    assert oracle.calls["objective"] == oracle.at[x1.tobytes()] == 1
    f = type(oracle)(oracle.prob).objective(x1)
    assert repr(tr.records[0].f_approx) == repr(tr.final_f) == repr(f)


@pytest.mark.parametrize("config", ["two_agent", "abs_value"])
def test_gd_baseline_evaluates_f_at_x1_only(config, monkeypatch):
    """One objective call of its own, at x1; every later f is an accepted
    trial's, and each iterate's gradient, x1's included, is one row asked
    of sample_gradients."""
    oracle, p, x1, _ = _counting(config)
    p.max_iters = 300
    trials = []
    line_search = gradsamp.driver.line_search

    def counted_line_search(*args, **kwargs):
        out = line_search(*args, **kwargs)
        trials.append(out.trials)
        return out

    monkeypatch.setattr(gradsamp.driver, "line_search", counted_line_search)
    gd = gradient_descent_baseline(oracle, p, x1)
    assert gd.termination in (Termination.STALLED, Termination.MAX_ITERS)
    c = oracle.calls
    assert oracle.at[x1.tobytes()] == 1
    assert c["objective"] == sum(trials) + 1  # no final f
    assert c["sample_gradients"] == c["rows"] == len(gd.records)
    assert set(c) == {"objective", "sample_gradients", "rows"}


def test_carried_values_are_fresh_evaluations(monkeypatch, tmp_path):
    """In every golden case, each record's f and the final f equal f at
    that x from a fresh oracle, bit for bit, for the sampling run and the
    GD baseline alike: a carried value is never stale."""
    runs = []

    def capture(solver):
        def captured(oracle, *args):
            trace = solver(oracle, *args)
            runs.append((oracle, trace))
            return trace
        return captured

    monkeypatch.setattr(test_golden, "run", capture(run))
    monkeypatch.setattr(gradsamp.cli, "run", capture(run))
    monkeypatch.setattr(gradsamp.cli, "gradient_descent_baseline",
                        capture(gradient_descent_baseline))
    for name, case in test_golden.CASES.items():
        assert case(tmp_path / name) == test_golden.GOLDEN[name]
    assert len(runs) == len(test_golden.CASES) + 1  # two_agent runs the GD baseline

    for oracle, trace in runs:
        fresh = type(oracle)(oracle.prob)
        pairs = [(r.x, r.f_approx) for r in trace.records] + [(trace.final_x, trace.final_f)]
        for x, f in pairs:
            assert float(f).hex() == float(fresh.objective(x)).hex()


class _PrimitivesRaise:
    """An oracle whose four primitives raise, so a solver that reaches past
    ``objective`` and ``sample_gradients`` fails."""

    def _refuse(self, *args):
        raise AssertionError("the solver called a primitive")

    in_D = inner_max = grad_x_F = eval_F = _refuse


def _replay(tr):
    return ([(r.k, r.x.tobytes(), repr(r.f_approx), repr(r.eps), repr(r.nu),
              repr(r.g_norm), repr(r.t), r.step_kind, r.sample_count) for r in tr.records],
            tr.termination, tr.final_x.tobytes(), repr(tr.final_f))


def _attributes(oracle):
    # Each attribute's object, and an array's bytes as they are now.
    return {k: (v, v.tobytes() if isinstance(v, np.ndarray) else None)
            for k, v in vars(oracle).items()}


def _same_attributes(oracle, before):
    after = vars(oracle)
    return after.keys() == before.keys() and all(
        after[k] is v and (b is None or v.tobytes() == b) for k, (v, b) in before.items())


@pytest.mark.parametrize("config", sorted(p.stem for p in (REPO / "configs").glob("*.json")))
def test_solvers_ask_only_objective_and_sample_gradients(config, monkeypatch, tmp_path):
    """With every primitive raising, run(), the GD baseline (where the
    config runs it) and the CLI give the bytes of the plain oracle, and no
    run leaves state on the oracle."""
    cfg = json.loads((REPO / "configs" / f"{config}.json").read_text())
    plain = build_problem_oracle(cfg["problem"])
    strict = type("Strict", (_PrimitivesRaise, type(plain)), {})(plain.prob)
    p, x1 = GsParams(**cfg["params"]), np.array(cfg["x1"], dtype=float)
    before = _attributes(strict)
    assert _replay(run(strict, p, x1, Rng(cfg["seed"]))) == \
        _replay(run(plain, p, x1, Rng(cfg["seed"])))
    if cfg.get("run_baseline_gd"):
        assert _replay(gradient_descent_baseline(strict, p, x1)) == \
            _replay(gradient_descent_baseline(plain, p, x1))
    assert _same_attributes(strict, before)

    outputs = {}
    for name, oracle in (("plain", plain), ("strict", strict)):
        monkeypatch.setattr(gradsamp.cli, "build_problem_oracle", lambda _: oracle)
        out = tmp_path / name
        assert gradsamp.cli.run_experiment(REPO / "configs" / f"{config}.json",
                                           out_dir=str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        for block in ("sampling", "baseline_gd"):
            summary.get(block, {}).pop("wall_time_s", None)
        outputs[name] = (summary, sorted((f.name, f.read_bytes())
                                         for f in out.glob("*.csv")))
    assert outputs["strict"] == outputs["plain"]
    assert _same_attributes(strict, before)
