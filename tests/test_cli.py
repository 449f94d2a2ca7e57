"""Config-driven runner: exit codes, artifacts, CSV schema, plot data."""

import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from gradsamp import (CoverageProblem, GsParams, IterationRecord, StepKind, Termination,
                      Trace)
from gradsamp import cli
from gradsamp.cli import emit_plot_data, main, run_experiment
from gradsamp.driver import gradient_descent_baseline, run
from gradsamp.testfns import finite_max_oracle

from oracles import abs_value_problem, reference_trace_csv, reference_trace_json

REPO = Path(__file__).resolve().parents[1]


def _minimal_config(out_dir, **overrides):
    cfg = {
        "problem": {"type": "finite_max",
                    "pieces": [{"a": [1.0]}, {"a": [-1.0]}]},
        "params": {"max_iters": 40},
        "x1": [1.0],
        "seed": 5,
        "output_dir": str(out_dir),
        "formats": ["csv", "json"],
    }
    cfg.update(overrides)
    return cfg


def _shipped(name, out_dir):
    """A shipped config, writing to out_dir, with no GD baseline."""
    cfg = json.loads((REPO / "configs" / name).read_text())
    cfg.update(output_dir=str(out_dir), run_baseline_gd=False)
    return cfg


def _write(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _minimal_config(out))
    assert run_experiment(str(cfg)) == 0
    assert (out / "trace.csv").exists()
    assert (out / "trace.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["sampling"]["iterations"] == 40
    assert summary["sampling"]["termination"] == "MaxIters"


def test_csv_schema():
    # Reuse a fresh run to inspect the header and row shape.
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "out"
        cfg_path = Path(d) / "c.json"
        cfg_path.write_text(json.dumps(_minimal_config(out)))
        assert run_experiment(str(cfg_path)) == 0
        lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,x_0,f,eps,nu,g_norm,t,step_kind"
    assert len(lines) == 41  # header + 40 records
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[-1] in ("Descent", "NullTolerance", "NullLineSearch")
    float(first[1])  # coordinates serialize as parseable decimals


def test_missing_config_exits_1(capsys):
    assert run_experiment("/nonexistent/config.json") == 1
    assert "config error" in capsys.readouterr().err


def test_output_path_that_cannot_be_made_exits_1(tmp_path, capsys, monkeypatch):
    """An --out that is an existing file, or lies under one, and a plot-data
    output under a file each end in one error line and exit 1, with nothing
    run and the file left as it was."""
    blocker = tmp_path / "F"
    blocker.write_text("keep\n")
    config = _write(tmp_path, _minimal_config(tmp_path / "unused"))
    runs = []
    monkeypatch.setattr(cli, "run", lambda *a, **k: runs.append(a))
    for out in (blocker, blocker / "sub"):
        assert main(["run", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot create output directory")
    assert runs == []
    monkeypatch.undo()
    good = tmp_path / "good"
    assert main(["run", str(config), "--out", str(good)]) == 0
    capsys.readouterr()
    assert main(["plot-data", str(good / "trace.csv"), str(blocker / "plot.txt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write")
    assert blocker.read_text() == "keep\n"
    assert not (tmp_path / "unused").exists()


def test_malformed_json_exits_1_with_location(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"problem": ')
    assert run_experiment(str(p)) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "bad.json:1:" in err


def test_bad_params_exit_1(tmp_path, capsys):
    nan, inf = float("nan"), float("inf")  # JSON NaN / Infinity
    out = tmp_path / "out"
    cases = []
    for field, value in (("alpha", 2.0), ("m", 3.5), ("max_iters", 20.0),
                         ("eps_min", nan), ("nu_min", nan), ("eps1", inf)):
        cfg = _minimal_config(out)
        cfg["params"][field] = value
        cases.append((cfg, field))
    cases.append((_minimal_config(out, x1=[nan]), "x1"))
    # Counts and flags are checked, never truncated or coerced.
    cases.append((_minimal_config(out, run_baseline_gd="false"), "run_baseline_gd"))
    # The GD baseline's start is tested for D before any output is written.
    cases.append((_minimal_config(out, run_baseline_gd=True, x1=[0.0]), "smooth set D"))
    cases.append((_minimal_config(out, formats="csv"), "formats must be a list"))
    for seed in (inf, 1.9, -1):
        cases.append((_minimal_config(out, seed=seed), "seed"))
    for depth in (inf, 3.7):
        cases.append((_minimal_config(out, problem={"type": "cantor", "depth": depth}),
                      "depth"))
    # A JSON string where a number belongs is an error, not a float() of it.
    for field, value in (("n_agents", 2.9), ("penalty_enabled", "false"),
                         ("total_mass", "2"), ("penalty_weight", "1")):
        cfg = _shipped("two_agent.json", out)
        cfg["problem"][field] = value
        cases.append((cfg, field))
    for piece, expected in (({"a": [nan]}, "finite"), ({"a": [1.0], "b": "3"}, "'b'"),
                            # A Q within allclose of symmetric: a + Qx would not
                            # be the gradient of the piece.
                            ({"a": [0.0, 0.0], "Q": [[2.0, 1.0], [1.00001, 2.0]]},
                             "symmetric"),
                            (5, "problem.pieces must be an object"),
                            ([1.0], "problem.pieces must be an object")):
        cfg = _minimal_config(out)
        cfg["problem"]["pieces"][0] = piece
        cases.append((cfg, expected))
    cases.append((_minimal_config(out, params={"alpha": "0.1"}), "'alpha'"))
    cfg = _shipped("two_agent.json", out)
    cfg["problem"]["bin_edges"] = [0.0, nan, 4.0]
    cases.append((cfg, "bin_edges"))
    # Each entry of a list of numbers, and of each row of Q, is checked as
    # a float field is: a string or a bool is an error, not a float() of it.
    for piece, key in (({"a": [True]}, "'a'"), ({"a": ["1"]}, "'a'"),
                       ({"a": [1.0], "Q": [[True]]}, "'Q'")):
        cfg = _minimal_config(out)
        cfg["problem"]["pieces"][0] = piece
        cases.append((cfg, key))
    for field, value in (("bin_edges", [0.0, "2.0", 4.0]), ("theta_upper", [True, 0.45])):
        cfg = _shipped("two_agent.json", out)
        cfg["problem"][field] = value
        cases.append((cfg, f"'{field}'"))
    for x1 in (["1.0"], [True]):
        cases.append((_minimal_config(out, x1=x1), "x1 must be a list of numbers"))
    for params in ([], "abc", 5, None):
        cases.append((_minimal_config(out, params=params), "params must be an object"))
    for field in ("problem", "x1", "output_dir"):
        cfg = _minimal_config(out)
        del cfg[field]
        cases.append((cfg, f"missing field '{field}' in config"))
    cfg = _minimal_config(out)
    cfg["problem"]["pieces"][1] = {"b": 1.0}
    cases.append((cfg, "missing field 'a' in problem.pieces"))
    cases.append((_minimal_config(out, formats=["csv", "xml"]), "unknown formats: ['xml']"))
    cases.append((_minimal_config(out, params={"max_iters": -1}), "max_iters negative"))
    cfg = _shipped("two_agent.json", out)
    cfg["problem"]["theta_lower"] = cfg["problem"]["theta_lower"][:-1]
    cases.append((cfg, "theta bounds must have one entry per bin"))
    for cfg, expected in cases:
        assert run_experiment(str(_write(tmp_path, cfg))) == 1
        assert expected in capsys.readouterr().err
        assert not out.exists()


def test_unknown_param_field_exit_1(tmp_path, capsys):
    """A key that names no field, at any level of the config, is an error
    that names it, never a field left at its default: a misspelt
    penalty_enabled would run five_agent without its hinge term."""
    out = tmp_path / "out"
    cases = []
    for field in ("stepsize", "delta1", "delta_decay", "on_nonsmooth_sample"):
        cfg = _minimal_config(out)
        cfg["params"][field] = 0.1
        cases.append((cfg, f"unknown params field '{field}'"))
    cfg = _shipped("five_agent.json", out)
    cfg["problem"]["penalty_enabeld"] = cfg["problem"].pop("penalty_enabled")
    cases.append((cfg, "unknown problem field 'penalty_enabeld'"))
    cfg = _shipped("two_agent.json", out)
    cfg["problem"]["totalmass"] = 2.0
    cases.append((cfg, "unknown problem field 'totalmass'"))
    cfg = _minimal_config(out, Seed=7)
    del cfg["seed"]
    cases.append((cfg, "unknown config field 'Seed'"))
    cfg = _minimal_config(out)
    cfg["problem"]["pieces"][0] = {"a": [1.0], "q": [[2.0]]}
    cases.append((cfg, "unknown problem.pieces field 'q'"))
    cases.append((_minimal_config(out, problem={"type": "cantor", "depth": 3, "Depth": 4}),
                  "unknown problem field 'Depth'"))
    for cfg, expected in cases:
        assert run_experiment(str(_write(tmp_path, cfg))) == 1
        assert expected in capsys.readouterr().err
        assert not out.exists()


def test_dimension_mismatch_exit_1(tmp_path, capsys):
    cfg = _minimal_config(tmp_path / "out", x1=[1.0, 2.0])
    assert run_experiment(str(_write(tmp_path, cfg))) == 1
    assert "dimension" in capsys.readouterr().err


def test_dimension_0_exit_1_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _minimal_config(out, x1=[])
    cfg["problem"]["pieces"] = [{"a": []}]
    assert run_experiment(str(_write(tmp_path, cfg))) == 1
    assert "dimension 0" in capsys.readouterr().err
    assert not out.exists()


def test_gradient_norm_past_float_range_ends_with_a_termination(tmp_path):
    """||g|| of a = (1.5e308, 1.5e308) overflows to inf, yet the scaled
    gradient gives a unit direction and finite terms for the line search's
    test: the run and the baseline take only Descent steps, down to
    f = -inf, end with a termination reason, and write every artifact."""
    out = tmp_path / "out"
    cfg = _minimal_config(out, x1=[0.0, 0.0], run_baseline_gd=True)
    cfg["problem"]["pieces"] = [{"a": [1.5e308, 1.5e308]}]
    cfg["params"]["max_iters"] = 30
    assert run_experiment(str(_write(tmp_path, cfg))) == 0
    assert (out / "trace.json").exists()
    for name in ("trace.csv", "baseline_trace.csv"):
        rows = [r.split(",") for r in (out / name).read_text().splitlines()[1:]]
        assert [r[-1] for r in rows] == ["Descent"] * 30, name
        assert rows[-1][3] == "-inf", name  # k, x_0, x_1, f, ...
    summary = json.loads((out / "summary.json").read_text())
    for block in ("sampling", "baseline_gd"):
        Termination(summary[block]["termination"])


def test_bin_masses_past_float_range_run_to_an_exit_code(tmp_path):
    """Coverage bins about 1e308 wide with upper densities of 1: the upper
    masses sum past the float range.  The problem builds without NumPy's
    overflow warning, an error in this suite, and the run ends as
    NumericalFailure (f is NaN at x1) with every artifact written."""
    out = tmp_path / "out"
    cfg = _minimal_config(out, x1=[-1.0, 3.0], run_baseline_gd=True)
    cfg["problem"] = {"type": "coverage", "n_agents": 2,
                      "bin_edges": [-1.5e308, 0.0, 1e308, 1.5e308],
                      "theta_lower": [1e-309] * 3, "theta_upper": [1.0] * 3}
    assert run_experiment(str(_write(tmp_path, cfg))) == 3
    for name in ("trace.csv", "trace.json", "baseline_trace.csv"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sampling"]["termination"] == "NumericalFailure"


def test_infinite_cost_on_a_zero_density_runs_to_an_exit_code(tmp_path):
    """Bins about 1e308 wide with theta_lower 0 and theta_upper 1e-308: c is
    (inf, inf, NaN) at x1 and the LP puts theta = 0 in some bins, so c @
    theta meets inf * 0.  The run, with warnings as errors, ends as
    NumericalFailure (f is NaN at x1) with its summary and trace written."""
    out = tmp_path / "out"
    cfg = _minimal_config(out, x1=[-1.0, 3.0])
    cfg["problem"] = {"type": "coverage", "n_agents": 2,
                      "bin_edges": [-1.5e308, 0.0, 1e308, 1.5e308],
                      "theta_lower": [0.0] * 3, "theta_upper": [1e-308] * 3}
    assert run_experiment(str(_write(tmp_path, cfg))) == 3
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sampling"]["termination"] == "NumericalFailure"


def test_a_sample_outside_D_exits_2_with_its_artifacts(tmp_path):
    """A finite max whose first piece is -inf + inf, NaN, at x1 = 3: x1 lies
    outside D, so the first step's bundle stops there and the run, with
    warnings as errors, ends as NonsmoothSampleStop with every artifact
    written."""
    out = tmp_path / "out"
    cfg = _minimal_config(out, x1=[3.0])
    cfg["problem"]["pieces"] = [{"a": [-1e308], "Q": [[1e308]]}, {"a": [1.0]}]
    assert run_experiment(str(_write(tmp_path, cfg))) == 2
    assert (out / "trace.csv").exists() and (out / "trace.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sampling"]["termination"] == "NonsmoothSampleStop"


def test_unknown_problem_type_exit_1(tmp_path):
    cfg = _minimal_config(tmp_path / "out")
    cfg["problem"] = {"type": "mystery"}
    assert run_experiment(str(_write(tmp_path, cfg))) == 1


def test_seed_and_max_iters_overrides(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = _write(tmp_path, _minimal_config(out_a))
    assert run_experiment(str(cfg), seed=99, max_iters=7) == 0
    sa = json.loads((out_a / "summary.json").read_text())
    assert sa["seed"] == 99 and sa["sampling"]["iterations"] == 7
    assert run_experiment(str(cfg), out_dir=str(out_b), max_iters=7) == 0
    assert (out_b / "summary.json").exists()


def test_baseline_block_written(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _minimal_config(out, run_baseline_gd=True))
    assert run_experiment(str(cfg)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "baseline_gd" in summary
    assert "f_gap_gd_minus_sampling" in summary["comparison"]
    assert (out / "baseline_trace.csv").exists()
    # At max_iters 0 the baseline has no records, yet its header still has
    # one x_i column per coordinate.
    assert run_experiment(str(cfg), max_iters=0) == 0
    assert (out / "baseline_trace.csv").read_text() == "k,x_0,f,eps,nu,g_norm,t,step_kind\n"


def test_shipped_configs_parse_and_run(tmp_path, monkeypatch):
    """Each shipped config builds the problem that Python builds from its
    values, runs, and its trace files have the bytes of the reference
    writers on the traces the run made."""
    traces = []

    def keep(solver):
        def kept(*args):
            traces.append(solver(*args))
            return traces[-1]
        return kept

    monkeypatch.setattr(cli, "run", keep(run))
    monkeypatch.setattr(cli, "gradient_descent_baseline", keep(gradient_descent_baseline))
    # Each config's problem, as built in Python from the same values.
    problems = {
        "two_agent.json": CoverageProblem(n_agents=2, bin_edges=(0.0, 2.0, 4.0),
                                          theta_lower=(0.0, 0.0), theta_upper=(0.45, 0.45)),
        "five_agent.json": CoverageProblem(
            n_agents=5, bin_edges=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
            theta_lower=(0.02, 0.05, 0.1, 0.03, 0.08, 0.02),
            theta_upper=(0.3, 0.25, 0.35, 0.2, 0.3, 0.25), penalty_enabled=True),
        "abs_value.json": abs_value_problem(),
    }
    for name, prob in problems.items():
        cfg = json.loads((REPO / "configs" / name).read_text())
        assert cli.build_problem_oracle(cfg["problem"]).prob == prob, name
        out = tmp_path / name
        traces.clear()
        code = run_experiment(str(REPO / "configs" / name),
                              out_dir=str(out), max_iters=30)
        assert code == 0, name
        formats = json.loads((REPO / "configs" / name).read_text())["formats"]
        assert (out / "trace.csv").read_bytes() == reference_trace_csv(traces[0]).encode()
        if "json" in formats:
            assert (out / "trace.json").read_bytes() == reference_trace_json(traces[0]).encode()
        assert len(traces) == (2 if name == "two_agent.json" else 1)
        if len(traces) == 2:
            baseline = reference_trace_csv(traces[1]).encode()
            assert (out / "baseline_trace.csv").read_bytes() == baseline


def _record(k, x, f, eps, nu, g_norm, t):
    return IterationRecord(k=k, x=np.asarray(x, dtype=float), f_approx=f, eps=eps, nu=nu,
                           g_norm=g_norm, t=t, step_kind=StepKind.DESCENT,
                           sample_count=k + 2, wall_time_us=17 * k)


def test_trace_writers_match_the_reference_writers_bytewise(tmp_path):
    """The direct writers give the bytes of one f"{v:.17g}" per CSV value
    and of json.dumps(payload, indent=1): on NaN, both infinities, -0.0,
    the smallest subnormal, 1e308 and 0.1 in every float field, for n = 1
    and n = 50; on int and NumPy values where a run can hold them (an int
    eps1 or t_init_factor in a config, a NumPy f from an oracle); on a
    record with no coordinates; and on a baseline trace with no records."""
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]
    gen = np.random.Generator(np.random.Philox(23))
    traces = []
    for n in (1, 50):
        records = []
        for k, v in enumerate(specials, start=1):
            x = gen.normal(size=n) * 10.0 ** gen.integers(-300, 300, size=n)
            x[k % n] = v
            records.append(_record(k, x, *[specials[(k + j) % 7] for j in range(5)]))
        records.append(_record(8, gen.normal(size=n), np.float64(-2.5), 1, 0.1, 3.0, 1))
        traces.append(Trace(records=records, params_snapshot=GsParams(m=3).snapshot(),
                            seed=11, termination=Termination.NUMERICAL_FAILURE,
                            final_x=records[-1].x, final_f=math.nan,
                            final_eps=0.1, final_nu=0.05))
    # A dimension-0 finite max.
    traces.append(Trace(records=[_record(1, [], *specials[:5])], params_snapshot={},
                        seed=0, termination=Termination.MAX_ITERS, final_x=np.empty(0),
                        final_f=math.nan, final_eps=math.nan, final_nu=math.nan))
    traces.append(gradient_descent_baseline(finite_max_oracle(abs_value_problem()),
                                            GsParams(max_iters=0), np.array([1.0])))
    assert not traces[-1].records
    for tr in traces:
        cli.write_trace_csv(tr, tmp_path / "t.csv")
        cli.write_trace_json(tr, tmp_path / "t.json")
        assert (tmp_path / "t.csv").read_bytes() == reference_trace_csv(tr).encode()
        assert (tmp_path / "t.json").read_bytes() == reference_trace_json(tr).encode()
    assert (tmp_path / "t.csv").read_text() == "k,x_0,f,eps,nu,g_norm,t,step_kind\n"


def _without_timings(trace_json: Path) -> dict:
    payload = json.loads(trace_json.read_text())
    for r in payload["records"]:
        del r["wall_time_us"]
    return payload


def test_byte_identical_reruns(tmp_path):
    """trace.csv is byte-identical across reruns; trace.json is identical
    but for the per-iteration wall times, the one nondeterministic field."""
    cfg = _write(tmp_path, _minimal_config(tmp_path / "ignored"))
    a, b = tmp_path / "ra", tmp_path / "rb"
    assert run_experiment(str(cfg), out_dir=str(a)) == 0
    assert run_experiment(str(cfg), out_dir=str(b)) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert _without_timings(a / "trace.json") == _without_timings(b / "trace.json")


def test_trace_json_exports_wall_time_us(tmp_path):
    out = tmp_path / "out"
    assert run_experiment(str(_write(tmp_path, _minimal_config(out)))) == 0
    records = json.loads((out / "trace.json").read_text())["records"]
    assert len(records) == 40
    for r in records:
        t = r["wall_time_us"]
        assert type(t) is int and t >= 0
    assert "wall_time_us" not in (out / "trace.csv").read_text()


# -- plot data ---------------------------------------------------------------

def test_plot_data_round_trip(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _minimal_config(out))
    assert run_experiment(str(cfg)) == 0
    dat = tmp_path / "trace.dat"
    assert emit_plot_data(out / "trace.csv", dat) == 0
    lines = dat.read_text().splitlines()
    src = (out / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("# iter")
    assert len(lines) == len(src)
    # Row fields come through verbatim (same decimal serialization).
    src_row = src[1].split(",")
    dat_row = lines[1].split(" ")
    assert dat_row[0] == src_row[0]          # k
    assert dat_row[1] == src_row[1]          # x_0
    assert dat_row[2] == src_row[2]          # f


def test_plot_data_byte_stable(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _minimal_config(out))
    assert run_experiment(str(cfg)) == 0
    d1, d2 = tmp_path / "a.dat", tmp_path / "b.dat"
    assert emit_plot_data(out / "trace.csv", d1) == 0
    assert emit_plot_data(out / "trace.csv", d2) == 0
    assert d1.read_bytes() == d2.read_bytes()


def test_plot_data_header_only_input(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("k,x_0,f,eps,nu,g_norm,t,step_kind\n")
    dat = tmp_path / "empty.dat"
    assert emit_plot_data(src, dat) == 0
    assert dat.read_text().splitlines() == ["# iter x_0 f g_norm eps nu"]


def test_plot_data_malformed_inputs(tmp_path, capsys):
    assert emit_plot_data(tmp_path / "missing.csv", tmp_path / "o.dat") == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trace\n1,2\n")
    assert emit_plot_data(bad, tmp_path / "o.dat") == 1
    empty = tmp_path / "zero.csv"
    empty.write_text("")
    assert emit_plot_data(empty, tmp_path / "o.dat") == 1
    long_row = tmp_path / "long.csv"
    long_row.write_text("k,x_0,f,eps,nu,g_norm,t,step_kind\n"
                        "1,0.5,0.5,0.1,0.1,1,0.1,Descent,extra\n")
    capsys.readouterr()
    assert emit_plot_data(long_row, tmp_path / "o.dat") == 1
    assert "malformed trace row" in capsys.readouterr().err
    assert not (tmp_path / "o.dat").exists()


# -- argparse entry point ----------------------------------------------------

def test_main_run_subcommand(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _minimal_config(out))
    assert main(["run", str(cfg), "--max-iters", "5"]) == 0
    assert main(["plot-data", str(out / "trace.csv"),
                 str(tmp_path / "t.dat")]) == 0


def test_main_ignores_a_gradsamp_log_variable(tmp_path, monkeypatch):
    """The CLI reads no environment: a GRADSAMP_LOG of any value leaves the
    run's exit code as it is.  The root logger has no handler here, as in
    a plain shell, and not pytest's own."""
    monkeypatch.setenv("GRADSAMP_LOG", "verbose")
    monkeypatch.setattr(logging.root, "handlers", [])
    cfg = _write(tmp_path, _minimal_config(tmp_path / "out"))
    assert main(["run", str(cfg)]) == 0


_HUGE = (1e308, -1e308, 1e154, -1e154)


def _fuzz_problem(gen, family):
    """A seeded problem of one family and a start for it, now and then of
    dimension 0, with entries at +-1e308 or +-1e154."""
    def huge_or(v):
        return float(gen.choice(_HUGE)) if gen.random() < 0.15 else float(v)

    if family == "coverage":
        n, K = int(gen.integers(0, 5)), int(gen.integers(1, 6))
        edges = np.cumsum(gen.uniform(0.2, 1.0, size=K + 1)) - 1.0
        span = edges[-1] - edges[0]
        lower = gen.uniform(0.0, 0.5, size=K) / span
        problem = {"type": "coverage", "n_agents": n, "bin_edges": edges.tolist(),
                   "theta_lower": lower.tolist(),
                   "theta_upper": (lower + gen.uniform(1.0, 3.0, size=K) / span).tolist(),
                   "penalty_enabled": bool(gen.random() < 0.5)}
        x1 = gen.uniform(edges[0] - 0.5, edges[-1] + 0.5, size=n)
        if n and gen.random() < 0.2:  # an agent on a bin edge, outside D
            x1[0] = edges[int(gen.integers(0, K + 1))]
    elif family == "finite_max":
        n = int(gen.integers(0, 4))
        pieces = []
        for _ in range(int(gen.integers(1, 4))):
            piece = {"a": [huge_or(v) for v in gen.standard_normal(n)],
                     "b": huge_or(gen.standard_normal())}
            if gen.random() < 0.5:
                B = gen.standard_normal((n, n))
                piece["Q"] = (B + B.T).tolist()
            pieces.append(piece)
        problem = {"type": "finite_max", "pieces": pieces}
        x1 = gen.uniform(-2.0, 2.0, size=n)
    else:
        problem = {"type": "cantor", "depth": int(gen.integers(0, 14))}
        x1 = gen.uniform(-0.2, 1.2, size=1)
    return problem, [huge_or(v) for v in x1]


def _fuzz_valid(cfg):
    """Whether the CLI should accept cfg, judged from the problem's own
    constructor and primitives: a problem of dimension 1 or more, and x1 in
    D where the GD baseline runs."""
    try:
        oracle = cli.build_problem_oracle(cfg["problem"])
    except ValueError:
        return False
    x1 = np.array(cfg["x1"], dtype=float)
    if oracle.dim < 1 or not 0.0 < cfg["params"].get("alpha", 0.1) < 1.0:
        return False
    return not cfg["run_baseline_gd"] or oracle.in_D(x1)


def test_random_configs_of_every_family_exit_with_their_code(tmp_path, capsys):
    """Seeded configs of the coverage, finite-max and Cantor families:
    every valid one exits 0, 2 or 3 with summary.json and its traces
    written, and every invalid one exits 1 and writes nothing."""
    gen = np.random.Generator(np.random.Philox(41))
    outcomes = set()
    for i in range(90):
        problem, x1 = _fuzz_problem(gen, ("coverage", "finite_max", "cantor")[i % 3])
        params = {"max_iters": 25}
        gen.choice(["stop", "resample"])  # keeps the stream of the seeded configs
        if gen.random() < 0.05:
            params["alpha"] = 1.5
        out = tmp_path / str(i)
        cfg = {"problem": problem, "params": params, "x1": x1, "seed": int(gen.integers(0, 100)),
               "output_dir": str(out), "run_baseline_gd": bool(gen.random() < 0.5)}
        code = run_experiment(str(_write(tmp_path, cfg)))
        if _fuzz_valid(cfg):
            assert code in (0, 2, 3), (i, capsys.readouterr().err)
            summary = json.loads((out / "summary.json").read_text())
            assert ("baseline_gd" in summary) == cfg["run_baseline_gd"]
            for name in ("trace.csv", "trace.json") + ("baseline_trace.csv",) * cfg["run_baseline_gd"]:
                assert (out / name).exists(), (i, name)
        else:
            assert code == 1, i
            assert not out.exists(), i
        outcomes.add(code)
    assert outcomes >= {0, 1}
