"""Workload inputs, solves and correctness checks for the gradsamp benchmark.

Every input is generated from the benchmark's ``--seed``; the library only
sees the generated problems, starts and run seeds.  A workload is a fixed
batch of solves.  ``Solve.run`` is the timed library call and
``Solve.check`` turns its result into an ``Outcome`` outside the timed
region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

import gradsamp.cli
import gradsamp.driver
from gradsamp import (
    CoverageProblem,
    FiniteMaxProblem,
    GsParams,
    MaxPiece,
    Rng,
    finite_max_oracle,
    make_coverage_oracle,
)

# Reference values the solves are checked against: (final f, |gap| tolerance).
# five_agent has no closed form; its value was recorded over 256 seeded runs,
# which all ended within 1.4e-4 of it.  abs_value stops once the radius
# eps_min / mu = 2e-3 sees both signs, so |x| = f is only below 2e-3.
SHIPPED_REFERENCE = {
    "two_agent": (1.0, 1e-4),
    "five_agent": (0.60738, 3e-4),
    "abs_value": (0.0, 2e-3),
}
TWO_AGENT_MINIMIZER = (1.0, 3.0)
TWO_AGENT_X_TOL = 0.05
MAXQUAD_FSTAR = -0.8414083
MAXQUAD_TOL = 1e-4
# A solve that should reach the tolerances but ends at MaxIters with this
# many trailing NullLineSearch steps is reported as stalled, not failed.
STALL_STEPS = 200

SHIPPED_SEEDS_PER_CONFIG = 24
MAXQUAD_STARTS = 16
# Six instances of five iterations each: the per-iteration cost differs by
# a few percent between instances, and shorter solves let the calibration
# follow the machine speed more closely.
COVERAGE_SOLVES = 6
COVERAGE_BUDGET = 5


@dataclass
class Outcome:
    """What one solve produced, after its check."""

    iters: int = 0                 # sampling-solver outer iterations
    digest: str = ""               # sha256 of step kinds and iterates
    gap: Optional[float] = None    # final f minus the reference, if one exists
    error: Optional[str] = None    # why the solve failed; None if it passed
    stalled: bool = False          # ended at MaxIters in a NullLineSearch stall


def trace_digest(kinds: Sequence[str], xs, final_x) -> str:
    """sha256 of the step-kind sequence and the iterates at 17 digits."""
    h = hashlib.sha256()
    for kind, x in zip(kinds, xs):
        h.update((kind + "," + ",".join(f"{float(v):.17g}" for v in x) + "\n").encode())
    h.update(("final," + ",".join(f"{float(v):.17g}" for v in final_x)).encode())
    return h.hexdigest()


def _kind(step_kind) -> str:
    return str(getattr(step_kind, "value", step_kind))


class DirectSolve:
    """One ``gradsamp.driver.run`` call on a problem built in memory."""

    def __init__(self, label, oracle, params, x1, run_seed, termination,
                 reference=None, tol=0.0):
        self.label = label
        self.oracle = oracle
        self.params = params
        self.x1 = x1
        self.run_seed = run_seed
        self.termination = termination
        self.reference = reference
        self.tol = tol

    def run(self, tracer=None):
        oracle = tracer.proxy(self.oracle) if tracer is not None else self.oracle
        # Looked up at call time, so a traced pass sees the wrapped function.
        return gradsamp.driver.run(oracle, self.params, self.x1, Rng(self.run_seed))

    def check(self, trace) -> Outcome:
        records = trace.records
        kinds = [_kind(r.step_kind) for r in records]
        out = Outcome(iters=len(records),
                      digest=trace_digest(kinds, [r.x for r in records], trace.final_x))
        term = _kind(trace.termination)
        tail = kinds[-STALL_STEPS:]
        if (term == "MaxIters" and self.termination == "TolerancesReached"
                and len(tail) == STALL_STEPS and set(tail) == {"NullLineSearch"}):
            out.stalled = True
        elif term != self.termination:
            out.error = f"{self.label}: termination {term}, expected {self.termination}"
        elif self.reference is not None:
            out.gap = float(trace.final_f) - self.reference
            if not abs(out.gap) <= self.tol:
                out.error = f"{self.label}: final f misses reference by {out.gap:.3g}"
        elif not (len(records) == self.params.max_iters
                  and trace.final_f < records[0].f_approx):
            out.error = f"{self.label}: f did not decrease over the budget"
        return out


class ConfigSolve:
    """One ``gradsamp.cli.run_experiment`` call on a shipped config."""

    def __init__(self, name, config, out_dir, run_seed):
        self.label = f"{name}/seed{run_seed}"
        self.name = name
        self.config = config
        self.out_dir = out_dir
        self.run_seed = run_seed

    def run(self, tracer=None):
        return gradsamp.cli.run_experiment(str(self.config), out_dir=str(self.out_dir),
                                           seed=self.run_seed)

    def check(self, exit_code) -> Outcome:
        if exit_code != 0:
            return Outcome(error=f"{self.label}: exit code {exit_code}")
        summary = json.loads((self.out_dir / "summary.json").read_text())
        samp = summary["sampling"]
        kinds, xs = _read_trace_csv(self.out_dir / "trace.csv")
        if (self.out_dir / "baseline_trace.csv").exists():
            gd_kinds, gd_xs = _read_trace_csv(self.out_dir / "baseline_trace.csv")
            kinds, xs = kinds + gd_kinds, xs + gd_xs
        out = Outcome(iters=int(samp["iterations"]),
                      digest=trace_digest(kinds, xs, samp["final_x"]))
        f_ref, tol = SHIPPED_REFERENCE[self.name]
        out.gap = float(samp["final_f"]) - f_ref
        if samp["termination"] != "TolerancesReached":
            out.error = f"{self.label}: termination {samp['termination']}"
        elif not abs(out.gap) <= tol:
            out.error = f"{self.label}: final f misses reference by {out.gap:.3g}"
        elif self.name == "two_agent":
            dist = math.dist(samp["final_x"], TWO_AGENT_MINIMIZER)
            gd = summary["baseline_gd"]
            if dist > TWO_AGENT_X_TOL:
                out.error = f"{self.label}: final x is {dist:.3g} from (1, 3)"
            elif gd["termination"] != "Stalled" or gd["final_f"] < samp["final_f"]:
                out.error = f"{self.label}: GD baseline did not stall above the solver"
        return out


def _read_trace_csv(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    xcols = [i for i, h in enumerate(header) if h.startswith("x_")]
    kcol = header.index("step_kind")
    return ([r[kcol] for r in rows[1:]],
            [[float(r[i]) for i in xcols] for r in rows[1:]])


def shipped_configs(root: Path, seed: int, scratch: Path) -> List[ConfigSolve]:
    """The three shipped configs, each under several seeded run seeds."""
    gen = np.random.default_rng(seed)
    solves = []
    for name in SHIPPED_REFERENCE:
        config = root / "configs" / f"{name}.json"
        if not config.is_file():
            raise FileNotFoundError(config)
        for run_seed in gen.integers(0, 2**31, SHIPPED_SEEDS_PER_CONFIG):
            solves.append(ConfigSolve(name, config, scratch / f"{name}-{run_seed}",
                                      int(run_seed)))
    return solves


def coverage_instance(n_agents: int, n_bins: int, gen: np.random.Generator):
    """Seeded coverage problem on [0, n_bins] with unit bins, penalty on."""
    prob = CoverageProblem(
        n_agents=n_agents,
        bin_edges=tuple(float(e) for e in range(n_bins + 1)),
        theta_lower=tuple(gen.uniform(0.0, 0.5, n_bins) / n_bins),
        theta_upper=tuple(gen.uniform(1.5, 3.0, n_bins) / n_bins),
        penalty_enabled=True, penalty_weight=1.0)
    return make_coverage_oracle(prob)


def coverage_solves(n_agents: int, n_bins: int, count: int, budget: int,
                    gen: np.random.Generator) -> List[DirectSolve]:
    """Fixed-budget solves, each on its own seeded problem and start; a
    solve ends at MaxIters."""
    params = GsParams(m=n_agents + 2, max_iters=budget)
    return [DirectSolve(f"coverage N={n_agents} K={n_bins} instance {i}",
                        coverage_instance(n_agents, n_bins, gen), params,
                        np.sort(gen.uniform(-0.05 * n_bins, 1.05 * n_bins, n_agents)),
                        int(gen.integers(0, 2**31)), "MaxIters")
            for i in range(count)]


def coverage_n50(root: Path, seed: int, scratch: Path) -> List[DirectSolve]:
    return coverage_solves(50, 100, COVERAGE_SOLVES, COVERAGE_BUDGET,
                           np.random.default_rng(seed))


def maxquad_problem() -> FiniteMaxProblem:
    """MAXQUAD of Lemarechal & Mifflin (1978): n = 10, five quadratic pieces."""
    n = 10
    pieces = []
    for k in range(1, 6):
        A = np.zeros((n, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                A[i - 1, j - 1] = A[j - 1, i - 1] = (
                    math.exp(i / j) * math.cos(i * j) * math.sin(k))
        for i in range(1, n + 1):
            # The diagonal is still zero here, so the row sum is over j != i.
            A[i - 1, i - 1] = i / 10 * abs(math.sin(k)) + float(np.abs(A[i - 1]).sum())
        b = [math.exp(i / k) * math.sin(i * k) for i in range(1, n + 1)]
        pieces.append(MaxPiece(a=tuple(-v for v in b),
                               Q=tuple(tuple(row) for row in 2.0 * A)))
    return FiniteMaxProblem(pieces=tuple(pieces))


def maxquad(root: Path, seed: int, scratch: Path) -> List[DirectSolve]:
    """Seeded starts in [-1, 1]^10, each run to TolerancesReached.

    nu1 = 10 because the gradient norms are O(10-100): with the default
    nu1 = 0.1 nearly every iteration is a NullLineSearch and the solve
    does not converge in 4000 iterations.  Even with nu1 = 10 a few starts
    stall in NullLineSearch for good; converging solves take at most ~350
    iterations, so max_iters = 1000 bounds the cost of a stall.
    """
    gen = np.random.default_rng(seed)
    oracle = finite_max_oracle(maxquad_problem())
    params = GsParams(m=12, nu1=10.0, eps_min=1e-3, nu_min=1e-3, max_iters=1000)
    return [DirectSolve(f"maxquad start {i}", oracle, params, gen.uniform(-1.0, 1.0, 10),
                        int(gen.integers(0, 2**31)), "TolerancesReached",
                        MAXQUAD_FSTAR, MAXQUAD_TOL)
            for i in range(MAXQUAD_STARTS)]


WORKLOADS = {
    "shipped_configs": shipped_configs,
    "coverage_n50": coverage_n50,
    "maxquad": maxquad,
}
