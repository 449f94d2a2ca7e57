"""Experiment runner: config in, trace/summary artifacts out.

A single JSON config fully determines a run (problem, parameters, start,
seed), so regression tests can diff configs and outputs.  Traces are
serialized with 17 significant digits, which round-trips doubles exactly
and makes identical runs byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from .core import (GsParams, IterationRecord, ParamError, Termination, Trace,
                   validate_params)
from .coverage import CoverageProblem, make_coverage_oracle
from .driver import Rng, _start_point, gradient_descent_baseline, run
from .testfns import (
    CantorStressProblem,
    FiniteMaxProblem,
    MaxPiece,
    cantor_stress_oracle,
    finite_max_oracle,
)

log = logging.getLogger("gradsamp")


class ConfigError(ValueError):
    pass


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing field '{key}' in {where}")
    return d[key]


def build_problem_oracle(problem: dict):
    kind = _require(problem, "type", "problem")
    if kind == "coverage":
        prob = CoverageProblem(
            n_agents=_require(problem, "n_agents", "problem"),
            bin_edges=tuple(_require(problem, "bin_edges", "problem")),
            theta_lower=tuple(_require(problem, "theta_lower", "problem")),
            theta_upper=tuple(_require(problem, "theta_upper", "problem")),
            total_mass=float(problem.get("total_mass", 1.0)),
            penalty_enabled=problem.get("penalty_enabled", False),
            penalty_weight=float(problem.get("penalty_weight", 1.0)),
        )
        return make_coverage_oracle(prob)
    if kind == "finite_max":
        pieces = []
        for p in _require(problem, "pieces", "problem"):
            pieces.append(MaxPiece(
                a=tuple(_require(p, "a", "problem.pieces")),
                b=float(p.get("b", 0.0)),
                Q=None if p.get("Q") is None else tuple(tuple(row) for row in p["Q"]),
            ))
        return finite_max_oracle(FiniteMaxProblem(pieces=tuple(pieces)))
    if kind == "cantor":
        return cantor_stress_oracle(
            CantorStressProblem(depth=_require(problem, "depth", "problem")))
    raise ConfigError(f"unknown problem type: {kind!r}")


def build_params(d: dict) -> GsParams:
    p = GsParams()
    allowed = set(p.snapshot().keys())
    for key, val in d.items():
        if key not in allowed:
            raise ConfigError(f"unknown params field '{key}'")
        setattr(p, key, val)
    return p


def write_trace_csv(trace: Trace, path: Path) -> None:
    """trace.csv: one row per record, each from one %-format string, with
    every float as %.17g, which round-trips doubles."""
    n = len(trace.records[0].x) if trace.records else 0
    header = ["k"] + [f"x_{i}" for i in range(n)] + [
        "f", "eps", "nu", "g_norm", "t", "step_kind"]
    row = "%s," + "%.17g," * (n + 5) + "%s\n"
    path.write_text(",".join(header) + "\n" + "".join([
        row % (r.k, *r.x, r.f_approx, r.eps, r.nu, r.g_norm, r.t, r.step_kind.value)
        for r in trace.records]))


# json's spelling of the floats whose repr is not JSON.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(v) -> str:
    """json.dumps(v) for a number v: a float's repr, as json writes it,
    with NaN and the infinities spelled as json spells them."""
    if type(v) is float:
        s = repr(v)
        return _JSON_NONFINITE.get(s, s)
    return json.dumps(v)


# One record as json.dumps(..., indent=1) lays it out inside the list.
_RECORD_JSON = ('  {\n   "k": %d,\n   "x": %s,\n   "f": %s,\n   "eps": %s,\n'
                '   "nu": %s,\n   "g_norm": %s,\n   "t": %s,\n   "step_kind": "%s",\n'
                '   "sample_count": %d,\n   "wall_time_us": %d\n  }')


def _record_json(r: IterationRecord) -> str:
    x = [_json_number(v) for v in np.asarray(r.x, dtype=float).tolist()]
    return _RECORD_JSON % (
        r.k, "[\n    " + ",\n    ".join(x) + "\n   ]" if x else "[]",
        _json_number(r.f_approx), _json_number(r.eps), _json_number(r.nu),
        _json_number(r.g_norm), _json_number(r.t), r.step_kind.value,
        r.sample_count, r.wall_time_us)


def write_trace_json(trace: Trace, path: Path) -> None:
    """trace.json, byte for byte as json.dumps(payload, indent=1) writes it.

    With indent set, CPython's json.dumps runs its pure-Python encoder, so
    only the header (seed, termination, params) goes through it, and each
    record is one %-format string with JSON's text for every number."""
    head = json.dumps({"seed": trace.seed, "termination": trace.termination.value,
                       "params": trace.params_snapshot}, indent=1)
    records = ",\n".join([_record_json(r) for r in trace.records])
    # head ends with "\n}", which closes the payload after the records.
    path.write_text(head[:-2] + ',\n "records": '
                    + ("[\n" + records + "\n ]" if records else "[]") + "\n}")


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
    written either way), 1 on any config error (diagnostics on stderr)."""
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
        oracle = build_problem_oracle(_require(cfg, "problem", "config"))
        params = build_params(cfg.get("params", {}))
        if max_iters is not None:
            params.max_iters = max_iters
        x1 = _start_point(oracle, _require(cfg, "x1", "config"))
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

    out.mkdir(parents=True, exist_ok=True)
    log.info("running experiment: %s -> %s", config_path, out)
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
    Path(out_path).write_text("\n".join(out_lines) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("GRADSAMP_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
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
