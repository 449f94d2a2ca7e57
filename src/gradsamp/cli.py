"""Experiment runner: config in, trace/summary artifacts out.

A single JSON config fully determines a run (problem, parameters, start,
seed), so regression tests can diff configs and outputs.  Its params,
problem (by "type") and finite-max pieces each build a dataclass, which
converts and checks the values: an unknown key is a config error, and an
omitted field takes the dataclass's default.  trace.csv writes each float
as %.17g and trace.json, one json.dumps line, as its repr; both
round-trip doubles exactly.  trace.csv holds no timings, so identical
runs write it byte for byte the same.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from .core import GsParams, ParamError, Termination, Trace, validate_params
from .coverage import CoverageProblem, make_coverage_oracle
from .driver import Rng, _start_point, gradient_descent_baseline, run
from .testfns import (
    CantorStressProblem,
    FiniteMaxProblem,
    MaxPiece,
    cantor_stress_oracle,
    finite_max_oracle,
)

class ConfigError(ValueError):
    pass


# The keys of a config's top level, each read by run_experiment.
_CONFIG_KEYS = ("problem", "params", "x1", "seed", "output_dir", "run_baseline_gd", "formats")
_PROBLEMS = {"coverage": (CoverageProblem, make_coverage_oracle),
             "finite_max": (FiniteMaxProblem, finite_max_oracle),
             "cantor": (CantorStressProblem, cantor_stress_oracle)}


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing field '{key}' in {where}")
    return d[key]


def _check_keys(obj, names, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object of named fields: {obj!r}")
    for key in obj:
        if key not in names:
            raise ConfigError(f"unknown {where} field '{key}'")


# The float-typed fields of the dataclasses a config builds: how deep
# their numbers lie in JSON lists, and what the field must be.
_NUMERIC = {"float": (0, "a number"),
            "Tuple[float, ...]": (1, "a list of numbers"),
            "Optional[Tuple[Tuple[float, ...], ...]]": (2, "a list of lists of numbers")}


def _numbers(val, depth: int) -> bool:
    # A JSON number at depth 0 (not true or false), else a list of depth - 1 values.
    if depth == 0:
        return type(val) in (int, float)
    return type(val) is list and all(_numbers(v, depth - 1) for v in val)


def _build(cls, obj, where: str):
    """cls(**obj), for a JSON object that names only fields of the dataclass
    cls, every one without a default, and JSON numbers in each float-typed
    one, or null where its default is None."""
    fields = dataclasses.fields(cls)
    _check_keys(obj, [f.name for f in fields], where)
    for f in fields:
        if f.name not in obj:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"missing field '{f.name}' in {where}")
        elif f.type in _NUMERIC:
            val, (depth, kind) = obj[f.name], _NUMERIC[f.type]
            if not (_numbers(val, depth) or (val is None and f.default is None)):
                raise ConfigError(f"{where} field '{f.name}' must be {kind}: {val!r}")
    return cls(**obj)


def build_problem_oracle(problem: dict):
    kind = _require(problem, "type", "problem")
    if kind not in _PROBLEMS:
        raise ConfigError(f"unknown problem type: {kind!r}")
    cls, make_oracle = _PROBLEMS[kind]
    fields = {key: val for key, val in problem.items() if key != "type"}
    if cls is FiniteMaxProblem and "pieces" in fields:
        fields["pieces"] = [_build(MaxPiece, p, "problem.pieces") for p in fields["pieces"]]
    return make_oracle(_build(cls, fields, "problem"))


def write_trace_csv(trace: Trace, path: Path) -> None:
    """trace.csv: one row per record, each from one %-format string, with
    every float as %.17g, which round-trips doubles."""
    n = len(trace.final_x)
    header = ["k"] + [f"x_{i}" for i in range(n)] + [
        "f", "eps", "nu", "g_norm", "t", "step_kind"]
    row = "%s," + "%.17g," * (n + 5) + "%s\n"
    path.write_text(",".join(header) + "\n" + "".join([
        row % (r.k, *r.x, r.f_approx, r.eps, r.nu, r.g_norm, r.t, r.step_kind.value)
        for r in trace.records]))


def write_trace_json(trace: Trace, path: Path) -> None:
    """trace.json: seed, termination, params and one object per record,
    as one json.dumps line.  Each float is its repr, NaN and the
    infinities as json spells them."""
    path.write_text(json.dumps({
        "seed": trace.seed,
        "termination": trace.termination.value,
        "params": trace.params_snapshot,
        "records": [{"k": r.k, "x": np.asarray(r.x, dtype=float).tolist(),
                     "f": r.f_approx, "eps": r.eps, "nu": r.nu, "g_norm": r.g_norm,
                     "t": r.t, "step_kind": r.step_kind.value,
                     "sample_count": r.sample_count, "wall_time_us": r.wall_time_us}
                    for r in trace.records]}))


def _summary_block(trace: Trace, wall_s: float) -> dict:
    return {
        "final_x": [float(v) for v in np.asarray(trace.final_x)],
        "final_f": trace.final_f,
        "eps_final": trace.final_eps,
        "nu_final": trace.final_nu,
        "iterations": len(trace.records),
        "termination": trace.termination.value,
        "wall_time_s": wall_s,
    }


def run_experiment(config_path, out_dir: Optional[str] = None,
                   seed: Optional[int] = None,
                   max_iters: Optional[int] = None) -> int:
    """Execute one configured run; returns the process exit code.

    0 on completion, 2 when sampling stopped on a nonsmooth point, 3 when
    it ended at a NaN f or a non-finite bundle gradient (the artifacts are
    written either way), 1 on any config error or an output directory that
    cannot be created (diagnostics on stderr)."""
    try:
        raw = Path(config_path).read_text()
    except OSError as e:
        print(f"config error: cannot read {config_path}: {e}", file=sys.stderr)
        return 1
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        print(f"config error: {config_path}:{e.lineno}:{e.colno}: {e.msg}",
              file=sys.stderr)
        return 1
    try:
        _check_keys(cfg, _CONFIG_KEYS, "config")
        oracle = build_problem_oracle(_require(cfg, "problem", "config"))
        params = _build(GsParams, cfg.get("params", {}), "params")
        if max_iters is not None:
            params.max_iters = max_iters
        x1 = _require(cfg, "x1", "config")
        if not _numbers(x1, 1):
            raise ConfigError(f"x1 must be a list of numbers: {x1!r}")
        x1 = _start_point(oracle, x1)
        rng = Rng(cfg.get("seed", 0) if seed is None else seed)
        validate_params(params, oracle.dim)
        out = Path(out_dir if out_dir is not None
                   else _require(cfg, "output_dir", "config"))
        run_gd = cfg.get("run_baseline_gd", False)
        if not isinstance(run_gd, bool):
            raise ConfigError(f"run_baseline_gd must be a bool: {run_gd!r}")
        if run_gd and len(oracle.sample_gradients(x1[None])) == 0:
            raise ConfigError("x1 must lie in the smooth set D when "
                              "run_baseline_gd is true")
        formats = cfg.get("formats", ["csv", "json"])
        if not (isinstance(formats, list) and all(isinstance(f, str) for f in formats)):
            raise ConfigError(f"formats must be a list of strings: {formats!r}")
        formats = set(formats)
        if not formats <= {"csv", "json"}:
            raise ConfigError(f"unknown formats: {sorted(formats - {'csv', 'json'})}")
    except (ConfigError, ParamError, ValueError, TypeError, OverflowError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory {out}: {e}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    trace = run(oracle, params, x1, rng)
    wall = time.perf_counter() - t0
    if "csv" in formats:
        write_trace_csv(trace, out / "trace.csv")
    if "json" in formats:
        write_trace_json(trace, out / "trace.json")

    summary = {"seed": rng.seed, "sampling": _summary_block(trace, wall)}
    if run_gd:
        t0 = time.perf_counter()
        gd = gradient_descent_baseline(oracle, params, x1)
        wall_gd = time.perf_counter() - t0
        write_trace_csv(gd, out / "baseline_trace.csv")
        summary["baseline_gd"] = _summary_block(gd, wall_gd)
        summary["comparison"] = {
            "f_gap_gd_minus_sampling": gd.final_f - trace.final_f,
            "gd_stalled": gd.termination == Termination.STALLED,
        }
    (out / "summary.json").write_text(json.dumps(summary, indent=1))

    if trace.termination == Termination.NONSMOOTH_SAMPLE_STOP:
        return 2
    if trace.termination == Termination.NUMERICAL_FAILURE:
        return 3
    return 0


def emit_plot_data(trace_path, out_path) -> int:
    """Convert a trace CSV into a whitespace-separated plot-ready file
    (iteration, coordinates, f, ||g||, eps, nu).  Byte-stable."""
    try:
        text = Path(trace_path).read_text()
    except OSError as e:
        print(f"error: cannot read {trace_path}: {e}", file=sys.stderr)
        return 1
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        print(f"error: empty trace file {trace_path}", file=sys.stderr)
        return 1
    header = lines[0].split(",")
    try:
        coord_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
        k_col = header.index("k")
        f_col = header.index("f")
        g_col = header.index("g_norm")
        e_col = header.index("eps")
        n_col = header.index("nu")
    except ValueError:
        print(f"error: malformed trace header in {trace_path}", file=sys.stderr)
        return 1
    out_lines = ["# iter " + " ".join(header[i] for i in coord_cols)
                 + " f g_norm eps nu"]
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            print(f"error: malformed trace row in {trace_path}", file=sys.stderr)
            return 1
        out_lines.append(" ".join([parts[k_col]]
                                  + [parts[i] for i in coord_cols]
                                  + [parts[f_col], parts[g_col],
                                     parts[e_col], parts[n_col]]))
    try:
        Path(out_path).write_text("\n".join(out_lines) + "\n")
    except OSError as e:
        print(f"error: cannot write {out_path}: {e}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradsamp",
        description="Gradient-sampling experiments for min-max objectives")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")
    p_run.add_argument("--max-iters", type=int, default=None,
                       help="override iteration cap")

    p_plot = sub.add_parser("plot-data",
                            help="convert a trace CSV into plot-ready columns")
    p_plot.add_argument("trace")
    p_plot.add_argument("out")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args.config, out_dir=args.out, seed=args.seed,
                              max_iters=args.max_iters)
    return emit_plot_data(args.trace, args.out)


if __name__ == "__main__":
    sys.exit(main())
