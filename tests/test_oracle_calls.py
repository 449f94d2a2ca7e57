"""What the solvers pay the oracle: f at an iterate is never evaluated twice.

Every value of f costs one inner maximization, so the sampling run
evaluates f at x1 once and then carries the value its line search
accepted; the GD baseline does the same.  The counting oracles below walk
a bundle point by point through the contract methods, so every
``inner_max``, ``eval_F`` and ``in_D`` call is seen.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gradsamp import ProblemOracle, Rng, Termination, gradient_descent_baseline, run
import gradsamp.cli
import gradsamp.driver
from gradsamp.cli import build_params, build_problem_oracle

import test_golden

REPO = Path(__file__).resolve().parents[1]


class _Counting:
    """Counts the contract calls by method; ``at`` counts f by point."""

    sample_gradients = ProblemOracle.sample_gradients  # one call per method and point

    def __init__(self, prob):
        super().__init__(prob)
        self.calls = Counter()
        self.at = Counter()

    def inner_max(self, x):
        self.calls["inner_max"] += 1
        return super().inner_max(x)

    def eval_F(self, x, theta):
        self.calls["eval_F"] += 1
        return super().eval_F(x, theta)

    def grad_x_F(self, x, theta):
        self.calls["grad_x_F"] += 1
        return super().grad_x_F(x, theta)

    def in_D(self, x):
        self.calls["in_D"] += 1
        return super().in_D(x)

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
    return oracle, build_params(cfg["params"]), np.array(cfg["x1"], dtype=float), cfg["seed"]


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
    assert c["inner_max"] == draws + sum(trials) + 1
    assert c["objective"] == sum(trials) + 1 and c["eval_F"] == c["objective"]
    assert c["in_D"] == c["grad_x_F"] == draws
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


@pytest.mark.parametrize("config", ["two_agent", "abs_value"])
def test_gd_baseline_evaluates_f_at_x1_only(config):
    """One eval_F of its own, at x1; every later f is an accepted trial's,
    and x1 is tested for D once."""
    oracle, p, x1, _ = _counting(config)
    p.max_iters = 300
    gd = gradient_descent_baseline(oracle, p, x1)
    assert gd.termination in (Termination.STALLED, Termination.MAX_ITERS)
    c = oracle.calls
    assert c["eval_F"] - c["objective"] == 1
    assert c["inner_max"] == len(gd.records) + c["objective"]  # no final f
    assert c["in_D"] == len(gd.records)
    assert oracle.at[x1.tobytes()] == 0


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
