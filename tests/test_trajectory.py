"""The trajectory checker of tests/trajectory.py: it passes a run's own
trace.json and summary.json, and flags each rule broken in a doctored
copy of them."""

import json

import pytest

from gradsamp.cli import run_experiment

from trajectory import check_trace


@pytest.fixture(scope="module")
def abs_run(tmp_path_factory):
    """|x| from x1 = 1 to tolerance: 34 steps of all three kinds, ending
    as TolerancesReached.  Returns the parsed trace.json and summary.json."""
    d = tmp_path_factory.mktemp("abs")
    cfg = {"problem": {"type": "finite_max", "pieces": [{"a": [1.0]}, {"a": [-1.0]}]},
           "params": {"max_iters": 2000, "eps_min": 0.001, "nu_min": 0.001},
           "x1": [1.0], "seed": 1, "output_dir": str(d / "out")}
    (d / "c.json").write_text(json.dumps(cfg))
    assert run_experiment(str(d / "c.json")) == 0
    return (json.loads((d / "out" / "trace.json").read_text()),
            json.loads((d / "out" / "summary.json").read_text()))


def _check(tmp_path, trace, summary):
    (tmp_path / "t.json").write_text(json.dumps(trace))
    (tmp_path / "s.json").write_text(json.dumps(summary))
    return check_trace(tmp_path / "t.json", tmp_path / "s.json")


def test_a_run_keeps_every_rule(abs_run, tmp_path):
    trace, summary = abs_run
    kinds = [r["step_kind"] for r in trace["records"]]
    assert {"Descent", "NullLineSearch", "NullTolerance"} <= set(kinds)
    assert summary["sampling"]["termination"] == "TolerancesReached"
    assert _check(tmp_path, trace, summary) == []


def _first(trace, kind):
    return next(i for i, r in enumerate(trace["records"]) if r["step_kind"] == kind)


def _no_eps_discount(trace, summary):
    # A driver that keeps eps at a NullTolerance step: every later eps stays.
    i = _first(trace, "NullTolerance")
    for r in trace["records"][i + 1:]:
        r["eps"] = trace["records"][i]["eps"]


def _short_step(trace, summary):
    # A line search with no floor: a Descent step below gamma eps / 3.
    r = trace["records"][0]
    r["t"] = trace["params"]["gamma"] * r["eps"] / 3.0 / 2.0
    trace["records"][1]["x"] = [r["x"][0] - r["t"]]


def _no_decrease(trace, summary):
    trace["records"][1]["f"] = trace["records"][0]["f"]


def _moving_null_step(trace, summary):
    i = _first(trace, "NullLineSearch")
    trace["records"][i + 1]["x"] = [trace["records"][i]["x"][0] + 1e-3]


def _k_gap(trace, summary):
    trace["records"][3]["k"] = 5


def _sample_count(trace, summary):
    trace["records"][2]["sample_count"] = 2


def _early_end(trace, summary):
    # A run that says MaxIters while it stopped at its floors.
    trace["termination"] = summary["sampling"]["termination"] = "MaxIters"


@pytest.mark.parametrize("doctor, expected", [
    (_no_eps_discount, "eps, nu became"),
    (_short_step, "outside [gamma eps / 3"),
    (_no_decrease, "breaks the decrease bound"),
    (_moving_null_step, "x or f moved"),
    (_k_gap, "has another k"),
    (_sample_count, "sample_count=2 for m=3"),
    (_early_end, "run: MaxIters at eps, nu"),
])
def test_a_doctored_trace_breaks_its_rule(abs_run, tmp_path, doctor, expected):
    trace, summary = json.loads(json.dumps(abs_run))
    doctor(trace, summary)
    errs = _check(tmp_path, trace, summary)
    assert any(expected in e for e in errs), errs
