"""Experiment runner: config in, trace/summary artifacts out.

A single JSON config fully determines a run (problem, parameters, start,
seed).  ``_build`` turns its top level, params, problem (by "type")
and finite-max pieces into dataclasses, each field checked against its
annotation: a float is a JSON number (not true or false), an int a JSON
integer, a bool true or false, a Tuple[T, ...] a list of T, an Optional
may be null, and a dataclass an object of its fields.  An unknown key is
a config error, an omitted field takes its default, and no value is
converted.  --out fills output_dir before the build; --seed and
--max-iters override after it.  trace.csv writes each float as %.17g and
trace.json, one json.dumps line, as its repr: both round-trip doubles,
and trace.csv, which holds no timings, is byte-stable across reruns.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .core import GsParams, ParamError, Termination, Trace, validate_params
from .coverage import CoverageProblem, make_coverage_oracle
from .driver import Rng, _start_point, gradient_descent_baseline, run
from .testfns import (CantorStressProblem, FiniteMaxProblem, cantor_stress_oracle,
                      finite_max_oracle)

class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class _Config:
    """A config's top level; run_experiment checks what needs the oracle."""

    problem: dict
    x1: Tuple[float, ...]
    output_dir: str
    params: GsParams = dataclasses.field(default_factory=GsParams)
    seed: int = 0
    run_baseline_gd: bool = False
    formats: Tuple[str, ...] = ("csv", "json")


_PROBLEMS = {"coverage": (CoverageProblem, make_coverage_oracle),
             "finite_max": (FiniteMaxProblem, finite_max_oracle),
             "cantor": (CantorStressProblem, cantor_stress_oracle)}
_SHAPES = {float: ("a number", "numbers"), int: ("an integer", "integers"),
           bool: ("true or false", "booleans"), str: ("a string", "strings"),
           dict: ("an object", "objects")}
_MISFIT = object()
_hints = functools.cache(get_type_hints)  # a dataclass's resolved field annotations


def _shape(tp, many: bool = False) -> str:
    """Annotation tp's JSON value in words, from _SHAPES; KeyError if _typed has none."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union and args[1:] == (type(None),):
        return _shape(args[0], many) + " or null"
    if origin is tuple and args[1:] == (Ellipsis,):
        return ("lists of " if many else "a list of ") + _shape(args[0], True)
    return _SHAPES[dict if dataclasses.is_dataclass(tp) else tp][many]


def _typed(tp, val, where: str):
    """val, its dataclasses built at where, if of tp's JSON value; else _MISFIT."""
    if tp is float:  # first, as the most frequent: a list of numbers checks each
        return val if type(val) in (int, float) else _MISFIT
    if dataclasses.is_dataclass(tp):
        return _build(tp, val, where)
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and type(val) is list:
        items = [_typed(args[0], v, where) for v in val]
        return _MISFIT if any(v is _MISFIT for v in items) else items
    if origin is Union:  # Optional[T]
        return None if val is None else _typed(args[0], val, where)
    return val if type(val) is tp else _MISFIT  # and so a tuple's non-list fails


def _build(cls, obj, where: str):
    """cls(**obj), for a JSON object at where that names only fields of the
    dataclass cls, every one without a default, each of its JSON value."""
    if type(obj) is not dict:
        raise ConfigError(f"{where} must be an object of named fields: {obj!r}")
    hints = _hints(cls)
    for key in obj:
        if key not in hints:
            raise ConfigError(f"unknown {where} field '{key}'")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in obj:  # a top-level key is its own place, a deeper one a path
            kwargs[f.name] = _typed(hints[f.name], obj[f.name],
                                    f.name if where == "config" else f"{where}.{f.name}")
            if kwargs[f.name] is _MISFIT:
                raise ConfigError(f"{where} field '{f.name}' must be "
                                  f"{_shape(hints[f.name])}: {obj[f.name]!r}")
        elif f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing field '{f.name}' in {where}")
    return cls(**kwargs)


def build_problem_oracle(problem: dict):
    """The oracle of a config's problem: "type" names its dataclass, and
    every other key is a field of that dataclass."""
    kind = problem.get("type")
    if type(kind) is not str or kind not in _PROBLEMS:
        raise ConfigError(f"problem field 'type' must be one of {sorted(_PROBLEMS)}: {kind!r}")
    cls, make_oracle = _PROBLEMS[kind]
    fields = {key: val for key, val in problem.items() if key != "type"}
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
        cfg = json.loads(Path(config_path).read_text())
    except OSError as e:
        print(f"config error: cannot read {config_path}: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"config error: {config_path}:{e.lineno}:{e.colno}: {e.msg}", file=sys.stderr)
        return 1
    try:
        if out_dir is not None and type(cfg) is dict:
            cfg["output_dir"] = out_dir
        config = _build(_Config, cfg, "config")
        oracle = build_problem_oracle(config.problem)
        if max_iters is not None:
            config.params.max_iters = max_iters
        x1 = _start_point(oracle, config.x1)
        rng = Rng(config.seed if seed is None else seed)
        validate_params(config.params, oracle.dim)
        if config.run_baseline_gd and len(oracle.sample_gradients(x1[None])) == 0:
            raise ConfigError("x1 must lie in the smooth set D when run_baseline_gd is true")
        formats = set(config.formats)
        if not formats <= {"csv", "json"}:
            raise ConfigError(f"unknown formats: {sorted(formats - {'csv', 'json'})}")
        out = Path(config.output_dir)
    except (ConfigError, ParamError, ValueError, TypeError, OverflowError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory {out}: {e}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    trace = run(oracle, config.params, x1, rng)
    wall = time.perf_counter() - t0
    if "csv" in formats:
        write_trace_csv(trace, out / "trace.csv")
    if "json" in formats:
        write_trace_json(trace, out / "trace.json")

    summary = {"seed": rng.seed, "sampling": _summary_block(trace, wall)}
    if config.run_baseline_gd:
        t0 = time.perf_counter()
        gd = gradient_descent_baseline(oracle, config.params, x1)
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
    coords = [i for i, h in enumerate(header) if h.startswith("x_")]
    try:
        cols = [header.index("k"), *coords, *map(header.index, ("f", "g_norm", "eps", "nu"))]
    except ValueError:
        print(f"error: malformed trace header in {trace_path}", file=sys.stderr)
        return 1
    out_lines = ["# iter " + " ".join(header[i] for i in coords) + " f g_norm eps nu"]
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            print(f"error: malformed trace row in {trace_path}", file=sys.stderr)
            return 1
        out_lines.append(" ".join(parts[i] for i in cols))
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
