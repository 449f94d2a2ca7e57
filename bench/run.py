"""Benchmark of the gradsamp solver: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload maxquad --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn, each for
``--seconds``, and prefixes each metric with its workload's name.

One process, one thread and one caller: each workload is a fixed,
seed-determined batch of solves, run in a closed loop (the next solve
starts when the previous one returns) for ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics, measured untraced; with
``--trace 1`` it alternates untraced and traced passes over the batch and
prints the per-layer metrics.  Every solve is checked; the last line of
output is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up child processes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("shipped_configs", "coverage_n50", "maxquad")
SETUP_REPEATS = 5

# Machine-speed calibration.  On a shared box the same process can run
# 1.5-1.9x slower for tens of seconds at a time, in the solver and in any
# other Python code alike, so no estimator over one run's own repeats can
# remove it.  A fixed kernel that shares no code with gradsamp is timed
# right before and right after each timed call, and the call's time is
# scaled by CAL_REF_S over the mean of the two kernel times.  Reported
# times are thus at the machine speed where the kernel takes CAL_REF_S;
# the end-to-end run also prints the median factor and the unscaled rate.
CAL_REF_S = 0.010  # kernel time, uncontended, on the 2-core reference box
CAL_LOOPS = 1500
SWEEP_SIZES = ((5, 6), (20, 40), (50, 100), (100, 200))
SWEEP_BUDGET = 3

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](Path(sys.argv[4]), int(sys.argv[5]), Path(sys.argv[6]))
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or all three in turn in this process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def setup_seconds(workload: str, seed: int, scratch: Path) -> list:
    """Import gradsamp and build the workload's inputs in fresh processes;
    each child's own timing, scaled to the reference machine speed."""
    timer = Calibrated()
    times = []
    for _ in range(SETUP_REPEATS):
        _, out = timer(
            subprocess.run,
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), workload,
             str(ROOT), str(seed), str(scratch)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) * timer.factors[-1])
    return times


def calibration() -> float:
    """Seconds taken by a fixed mix of Python calls and small numpy ops."""
    import numpy as np
    t0 = time.perf_counter()
    a = np.linspace(-1.0, 1.0, 120).reshape(12, 10)
    x = np.linspace(0.5, -0.5, 10)
    acc = 0.0
    for _ in range(CAL_LOOPS):
        v = a @ x
        j = int(np.argmin(v))
        acc += float(np.linalg.norm(v)) + max(v.tolist())
        x = 0.999 * x + 0.001 * a[j]
    return time.perf_counter() - t0


class Calibrated:
    """Times calls between two kernel runs; see CAL_REF_S."""

    def __init__(self):
        self.last = calibration()
        self.factors = []

    def __call__(self, fn, *args, **kwargs):
        """(scaled seconds, result) of ``fn(*args, **kwargs)``."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = calibration()
        factor = CAL_REF_S / ((self.last + after) / 2.0)
        self.last = after
        self.factors.append(factor)
        return raw * factor, result


class Tally:
    """Attempted, failed and stalled solves, and each solve's first outcome.

    A later run of a solve must reproduce its first trajectory bit for bit,
    traced or not; a difference counts as a failure.  Only solves that
    passed their check, and did not stall, are run again.
    """

    def __init__(self, solves):
        self.solves = solves
        self.first = [None] * len(solves)
        self.bad = set()
        self.stalled = set()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, k, outcome):
        self.attempted += 1
        first = self.first[k]
        if outcome.error is None and first is not None and outcome.digest != first.digest:
            outcome.error = f"{self.solves[k].label}: trajectory differs from its first run"
        if outcome.error is not None:
            self.failed += 1
            self.errors.append(outcome.error)
            self.bad.add(k)
        elif first is None:
            self.first[k] = outcome
            if outcome.stalled:
                self.stalled.add(k)
        return outcome

    def usable(self):
        return [k for k in range(len(self.solves))
                if k not in self.bad and k not in self.stalled]


def run_solve(solve, tracer=None, timer=None):
    """Run and check one solve; returns (scaled seconds, Outcome).

    The seconds come from the ``Calibrated`` timer; they are 0 without one,
    or when the solve raises.
    """
    from workloads import Outcome
    fn, args = (tracer.solve, (solve.run, tracer)) if tracer is not None else (solve.run, ())
    try:
        seconds, raw = timer(fn, *args) if timer is not None else (0.0, fn(*args))
        return seconds, solve.check(raw)
    except Exception:  # a failed solve is counted and the run goes on
        return 0.0, Outcome(error=f"{solve.label}:\n{traceback.format_exc()}")


def run_pass(tally, timer, tracer=None) -> float:
    """Run every usable solve once; returns the summed scaled seconds."""
    total = 0.0
    for k in tally.usable():
        seconds, outcome = run_solve(tally.solves[k], tracer, timer)
        tally.add(k, outcome)
        total += seconds
    return total


def traced_pass(tally, timer):
    from tracer import Tracer
    tr = Tracer()
    with tr.installed():
        seconds = run_pass(tally, timer, tr)
    return seconds, tr


def end_to_end(tally, seconds):
    """Untraced closed loop for ``seconds``, then one traced pass for counts.

    Each solve's time is the median over its repeats, so solves_per_s and
    iters_per_s weigh every solve of the batch once.
    """
    solves = tally.solves
    tally.add(0, run_solve(solves[0])[1])  # warm-up: first-call costs are not timed
    timer = Calibrated()
    times = [[] for _ in solves]
    start = time.perf_counter()
    first_pass = True
    while first_pass or time.perf_counter() - start < seconds:
        for k in tally.usable():
            if not first_pass and time.perf_counter() - start >= seconds:
                break
            dt, outcome = run_solve(solves[k], timer=timer)
            if tally.add(k, outcome).error is None:
                times[k].append(dt)
        first_pass = False
        if not tally.usable():
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, tr = traced_pass(tally, None)

    ok = [k for k in tally.usable() if times[k]]
    med = sum(statistics.median(times[k]) for k in ok)
    iters = [tally.first[k].iters for k in ok]
    calls, _, _ = tr.aggregate()
    metrics = {
        "iters_per_s": ratio(sum(iters), med),
        "solves_per_s": ratio(len(ok), med),
        "iters_per_solve": statistics.median(iters) if ok else 0.0,
        "oracle_calls_per_iter": ratio(sum(v for k, v in calls.items() if ".oracle." in k),
                                       calls["driver.step"]),
        "peak_rss_mb": peak_rss_mb,
    }
    gaps = [tally.first[k].gap for k in ok if tally.first[k].gap is not None]
    factor = statistics.median(timer.factors) if timer.factors else 1.0
    notes = {
        "machine speed factor": f"{factor:.4g} (median over {len(timer.factors)} calls; "
                                f"unscaled iters_per_s about {ratio(sum(iters), med) * factor:.6g})",
        "timed solves": sum(len(times[k]) for k in ok),
        "repeats per solve": f"{min(len(times[k]) for k in ok)}-{max(len(times[k]) for k in ok)}"
                             if ok else "0",
        "final_gap": f"{max(gaps):.6g} (max over {len(gaps)} solves of final f - reference)"
                     if gaps else "n/a (no reference; f decrease and descent are checked)",
    }
    return metrics, notes, tr


DRIVER_SPANS = ("sample_ball", "build_bundle", "line_search", "step",
                "gradient_descent_baseline")
STEP_KINDS = ("Descent", "NullLineSearch", "NullTolerance")
COVERAGE_FUNCTIONS = ("coverage_c_vector", "coverage_c_jacobian", "in_D_coverage",
                      "inner_lp_max")
CLI_SPANS = ("run_experiment", "write_trace_csv", "write_trace_json")


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, self_s):
    """Per-layer metrics of one traced pass; ``self_s`` maps span name to
    self seconds per pass (the median over the traced passes)."""
    from tracer import ORACLE_METHODS, SOLVE_SPAN
    calls, _, incl_s = tr.aggregate()
    c = tr.counters
    m = {}
    for name in DRIVER_SPANS:
        m[f"driver.{name}.self_s"] = self_s.get(f"driver.{name}", 0.0)
    m["driver.line_search.trials_per_call"] = ratio(c["line_search.trials"],
                                                    calls["driver.line_search"])
    m["driver.line_search.accept_ratio"] = ratio(c["line_search.accepted"],
                                                 calls["driver.line_search"])
    m["driver.draws_per_sample"] = ratio(c["draws"], c["bundle_points"])
    for kind in STEP_KINDS:
        m[f"driver.steps.{kind}"] = c[f"steps.{kind}"]
    mn = calls["minnorm.min_norm_point"]
    m["minnorm.min_norm_point.calls"] = mn
    m["minnorm.min_norm_point.self_s"] = self_s.get("minnorm.min_norm_point", 0.0)
    m["minnorm.wolfe_iters_per_call"] = ratio(c["minnorm.iterations"], mn)
    m["minnorm.points_per_call"] = ratio(c["minnorm.points"], mn)
    m["minnorm.capped"] = c["minnorm.capped"]
    oracle_names = set()
    for family in ("coverage", "testfns"):
        for method in ORACLE_METHODS:
            name = f"{family}.oracle.{method}"
            oracle_names.add(name)
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for fn in COVERAGE_FUNCTIONS:
        m[f"coverage.{fn}.calls"] = calls[f"coverage.{fn}"]
        m[f"coverage.{fn}.self_s"] = self_s.get(f"coverage.{fn}", 0.0)
    sampling_calls = tr.calls_under(oracle_names, "driver.step", "driver.line_search")
    m["oracle.calls_per_sample"] = ratio(sampling_calls, c["bundle_points"])
    lip = sum(v for k, v in incl_s.items() if ".oracle.lip_" in k)
    m["oracle.lip_share"] = ratio(lip, incl_s.get(SOLVE_SPAN, 0.0))
    for name in CLI_SPANS:
        m[f"cli.{name}.self_s"] = self_s.get(f"cli.{name}", 0.0)
    m["cli.trace_bytes"] = ratio(c["trace_bytes"], calls["cli.run_experiment"])
    return m


def per_layer(tally, seconds):
    """Alternate untraced and traced passes for ``seconds``.  Self times
    are scaled to the reference machine speed by the traced pass's mean
    calibration factor."""
    tally.add(0, run_solve(tally.solves[0])[1])
    timer = Calibrated()
    plain, traced, selfs, absent = [], [], [], set()
    first = None  # only the first traced pass keeps its spans
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(tally, timer))
        n = len(timer.factors)
        pass_seconds, tr = traced_pass(tally, timer)
        traced.append(pass_seconds)
        factor = statistics.mean(timer.factors[n:]) if timer.factors[n:] else 1.0
        selfs.append({k: v * factor for k, v in tr.aggregate()[1].items()})
        absent |= tr.absent
        first = first or tr
        if not tally.usable():
            break
    names = set().union(*selfs)
    self_s = {n: statistics.median(s.get(n, 0.0) for s in selfs) for n in names}
    metrics = layer_metrics(first, self_s)
    plain_s = statistics.median(plain)
    metrics["trace.overhead_frac"] = statistics.median(traced) / plain_s - 1.0 if plain_s else 0.0
    notes = {"passes": f"{len(plain)} untraced, {len(traced)} traced",
             "absent": ", ".join(sorted(absent)) or "none"}
    return metrics, notes, first


LAYERS = ("driver", "minnorm", "coverage", "testfns", "cli")


def scaling_sweep(seed):
    """Fixed-budget coverage solves over (N, K): ms per iteration, untraced,
    and each layer's share of self time in a traced repeat.  Not gated."""
    import numpy as np
    import workloads
    from tracer import SOLVE_SPAN
    rows = []
    timer = Calibrated()
    gen = np.random.default_rng(seed)
    for n_agents, n_bins in SWEEP_SIZES:
        solve = workloads.coverage_solves(n_agents, n_bins, 1, SWEEP_BUDGET, gen)[0]
        tally = Tally([solve])
        dt = run_pass(tally, timer)
        _, tr = traced_pass(tally, None)
        _, self_s, incl_s = tr.aggregate()
        total = incl_s.get(SOLVE_SPAN, 0.0)
        shares = {layer: ratio(sum(v for k, v in self_s.items()
                                   if k.split(".", 1)[0] == layer), total)
                  for layer in LAYERS}
        rows.append({"N": n_agents, "K": n_bins,
                     "ms_per_iter": 1000.0 * dt / SWEEP_BUDGET,
                     "shares": {k: round(v, 4) for k, v in shares.items() if v},
                     "failed": tally.failed})
    return rows


def run_workload(name, args, units) -> dict:
    """Measure one workload, print its report and return its result object."""
    import workloads
    load_start = loadavg()
    env = environment()
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        setups = setup_seconds(name, args.seed, scratch)
        solves = workloads.WORKLOADS[name](ROOT, args.seed, scratch)
        tally = Tally(solves)
        if args.trace:
            metrics, notes, tr = per_layer(tally, args.seconds)
            if name == "coverage_n50":
                notes["sweep"] = scaling_sweep(args.seed)
        else:
            metrics, notes, tr = end_to_end(tally, args.seconds)
            metrics["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    notes["stalled"] = (f"{len(tally.stalled)} of {len(solves)} solves ended at MaxIters "
                        "in a NullLineSearch stall; not in the metrics")
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} do not "
                         "match BENCHMARK.json")

    # One hash over the batch: step kinds and iterates of every solve.
    digest = hashlib.sha256("".join(o.digest if o is not None else "failed"
                                    for o in tally.first).encode()).hexdigest()
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "loadavg_start": load_start,
        "loadavg_end": loadavg(), "setup_s_samples": setups, "batch": len(solves),
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors[:5],
        "digest": digest, "notes": notes, "metrics": metrics,
    }
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tr.write(OUT_DIR / f"spans-{stem}.csv")

    print(f"env python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"nproc={env['nproc']} loadavg_start={load_start} loadavg_end={record['loadavg_end']}")
    print(f"workload {name} seed={args.seed} batch={len(solves)} solves")
    for key, value in notes.items():
        if key == "sweep":
            for row in value:
                print(f"sweep N={row['N']} K={row['K']} ms_per_iter={row['ms_per_iter']:.2f} "
                      f"shares={row['shares']}")
        else:
            print(f"note {key}: {value}")
    for metric in units:
        print(f"{metric} {metrics[metric]:.6g} {units[metric]}")
    print(f"failed_frac {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1):.4g}")
    print(f"digest {name} seed={args.seed} sha256={digest}")
    for err in tally.errors[:3]:
        print(f"failure: {err}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gradsamp" / "__init__.py").is_file():
        print(f"error: no gradsamp sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {d["name"]: d["unit"] for d in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import gradsamp
    if not Path(gradsamp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported gradsamp from {gradsamp.__file__}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, units) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
