"""Outside-in span tracer for gradsamp.

The library is not changed.  While a ``Tracer`` is installed it replaces
the module attributes that gradsamp looks up at call time with timing
wrappers, and the benchmark hands the solver a ``ProblemOracle`` proxy
whose methods are wrapped the same way.  Each span records its name,
start, end, parent span and solve id; spans stay in memory until the run
writes them out.  A name that a later version of the library no longer
has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

from gradsamp import ProblemOracle

ORACLE_METHODS = ("in_D", "inner_max", "grad_x_F", "eval_F", "lip_F_theta",
                  "lip_gradF_theta")

# (module, attribute, span name).  The cli module holds its own references
# to driver functions, so those are wrapped there too, under the same name.
PATCHES = (
    ("gradsamp.driver", "run", "driver.run"),
    ("gradsamp.driver", "step", "driver.step"),
    ("gradsamp.driver", "sample_ball", "driver.sample_ball"),
    ("gradsamp.driver", "build_bundle", "driver.build_bundle"),
    ("gradsamp.driver", "min_norm_point", "minnorm.min_norm_point"),
    ("gradsamp.driver", "line_search", "driver.line_search"),
    ("gradsamp.driver", "random_unit_direction", "driver.random_unit_direction"),
    ("gradsamp.coverage", "coverage_c_vector", "coverage.coverage_c_vector"),
    ("gradsamp.coverage", "coverage_c_jacobian", "coverage.coverage_c_jacobian"),
    ("gradsamp.coverage", "coverage_grad_x", "coverage.coverage_grad_x"),
    ("gradsamp.coverage", "in_D_coverage", "coverage.in_D_coverage"),
    ("gradsamp.coverage", "inner_lp_max", "coverage.inner_lp_max"),
    ("gradsamp.coverage", "penalty", "coverage.penalty"),
    ("gradsamp.cli", "run_experiment", "cli.run_experiment"),
    ("gradsamp.cli", "run", "driver.run"),
    ("gradsamp.cli", "gradient_descent_baseline", "driver.gradient_descent_baseline"),
    ("gradsamp.cli", "write_trace_csv", "cli.write_trace_csv"),
    ("gradsamp.cli", "write_trace_json", "cli.write_trace_json"),
)
SOLVE_SPAN = "bench.solve"


class Tracer:
    """Spans and counters of one traced pass over a workload's solves."""

    def __init__(self):
        # Five int64 per span, to keep ~600k spans per pass small:
        # name id, start ns, end ns, parent span index (-1 at a root), solve id.
        self.data = array("q")
        self.names = []
        self.counters = Counter()
        self.absent = set()
        self._stack = []
        self._solve_id = 0

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording one span per call; ``on_result`` sees the result."""
        data, stack = self.data, self._stack
        clock = time.perf_counter_ns
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(data)
            data.extend((name_id, clock(), 0, stack[-1] if stack else -1, self._solve_id))
            stack.append(idx // 5)
            try:
                result = fn(*args, **kwargs)
            finally:
                data[idx + 2] = clock()
                stack.pop()
            if on_result is not None:
                try:
                    on_result(args, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    self.absent.add(f"{name} result fields")
            return result
        return traced

    def solve(self, fn, *args):
        """Run one solve under a root span with a fresh solve id."""
        self._solve_id += 1
        return self.wrap(fn, SOLVE_SPAN)(*args)

    def proxy(self, oracle):
        return OracleProxy(oracle, self)

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into the library for the duration of the block."""
        saved = []
        hooks = {"driver.step": self._on_step,
                 "minnorm.min_norm_point": self._on_min_norm,
                 "driver.line_search": self._on_line_search,
                 "cli.write_trace_csv": self._on_trace_write,
                 "cli.write_trace_json": self._on_trace_write}
        try:
            for mod_name, attr, name in PATCHES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.absent.add(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, name, hooks.get(name)))
            cli = importlib.import_module("gradsamp.cli")
            build = getattr(cli, "build_problem_oracle", None)
            if build is None:
                self.absent.add("gradsamp.cli.build_problem_oracle")
            else:
                saved.append((cli, "build_problem_oracle", build))
                cli.build_problem_oracle = lambda *a, **k: self.proxy(build(*a, **k))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # Result hooks read fields of the library's result types; a field a
    # later version drops makes the hook fail, which is reported as absent.
    def _on_step(self, args, result):
        _, state, params, _ = args
        _, rec = result
        self.counters[f"steps.{rec.step_kind.value}"] += 1
        self.counters["draws"] += rec.sample_count
        self.counters["bundle_points"] += params.effective_m(len(state.x))

    def _on_min_norm(self, args, result):
        self.counters["minnorm.points"] += len(args[0])
        self.counters["minnorm.iterations"] += result.iterations
        self.counters["minnorm.capped"] += bool(result.capped)

    def _on_line_search(self, args, result):
        self.counters["line_search.trials"] += result.trials
        self.counters["line_search.accepted"] += bool(result.accepted)

    def _on_trace_write(self, args, result):
        self.counters["trace_bytes"] += Path(args[1]).stat().st_size

    def spans(self):
        """(name, start ns, end ns, parent index, solve id) of each span."""
        d = self.data
        for i in range(0, len(d), 5):
            yield self.names[d[i]], d[i + 1], d[i + 2], d[i + 3], d[i + 4]

    def aggregate(self):
        """Per span name: calls, self seconds and inclusive seconds.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap, as the solver runs on
        one thread.
        """
        child_ns = [0] * (len(self.data) // 5)
        for _, start, end, parent, _ in self.spans():
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns, incl_ns = Counter(), Counter(), Counter()
        for (name, start, end, _, _), child in zip(self.spans(), child_ns):
            calls[name] += 1
            self_ns[name] += end - start - child
            incl_ns[name] += end - start
        return (calls, {k: v / 1e9 for k, v in self_ns.items()},
                {k: v / 1e9 for k, v in incl_ns.items()})

    def calls_under(self, names, phase, skip):
        """Calls of spans in ``names`` that run inside a ``phase`` span,
        not counting those inside a ``skip`` span within it."""
        d = self.data
        count = 0
        for name, _, _, parent, _ in self.spans():
            if name not in names:
                continue
            while parent >= 0:
                pname, parent = self.names[d[5 * parent]], d[5 * parent + 3]
                if pname == skip:
                    break
                if pname == phase:
                    count += 1
                    break
        return count

    def write(self, path: Path):
        with path.open("w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,solve\n")
            for i, (name, start, end, parent, solve) in enumerate(self.spans()):
                fh.write(f"{i},{name},{start},{end},{parent},{solve}\n")


class OracleProxy(ProblemOracle):
    """A ``ProblemOracle`` whose contract methods record spans named
    ``<family>.oracle.<method>``, the family being the oracle's module."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        family = type(inner).__module__.rsplit(".", 1)[-1]
        self.dim = inner.dim
        self.theta_dim = inner.theta_dim
        self.exact_inner = inner.exact_inner
        for method in ORACLE_METHODS:
            fn = getattr(inner, method, None)
            if fn is None:
                tracer.absent.add(f"{type(inner).__name__}.{method}")
            else:
                setattr(self, method, tracer.wrap(fn, f"{family}.oracle.{method}"))
        # The base objective calls inner_max and eval_F through this proxy,
        # so they are counted; an overriding objective is forwarded whole.
        if type(inner).objective is not ProblemOracle.objective:
            self.objective = tracer.wrap(inner.objective, f"{family}.oracle.objective")

    def __getattr__(self, name):
        return getattr(self.__dict__["_inner"], name)
