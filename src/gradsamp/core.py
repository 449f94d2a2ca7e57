"""Shared contracts for the gradient-sampling solver.

The objective is a pointwise maximum f(x) = max_theta F(x, theta) that is
only accessible through an exact inner-maximization routine returning a
maximizer.  This module holds the oracle contract, the algorithm
parameters and per-iteration state, and the trace telemetry types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np


class ParamError(ValueError):
    """Algorithm parameters violate their constraints."""


class NonsmoothSampleError(RuntimeError):
    """A sampled point left the smooth set D."""


class ProblemOracle:
    """Behavioral contract for min-max objectives f(x) = max_theta F(x, theta).

    Concrete problems subclass this and provide:

    - ``dim``: dimension n of the decision variable.
    - ``theta_dim``: dimension d of the inner parameter.
    - ``eval_F(x, theta)``: value of F.
    - ``grad_x_F(x, theta)``: gradient of F in x; defined only on the open
      full-measure set D.
    - ``inner_max(x)``: an exact maximizer of theta -> F(x, theta).
    - ``in_D(x)``: membership in D.

    The solver asks for ``dim``, ``objective(x)`` and
    ``sample_gradients(points)`` only.  The defaults build both from the
    methods above, and an oracle may override either with a faster
    evaluation that returns the same bytes, as every shipped oracle does:
    ``objective`` evaluates its point once, and ``sample_gradients``
    evaluates a bundle in NumPy blocks (coverage, for a large bundle) or
    in one stacked pass over all its points and members (finite max and
    stress).

    All methods must be pure (identical inputs give identical outputs) and
    safe to call concurrently.
    """

    dim: int
    theta_dim: int
    # The contract is exact; the flag is kept for bench/tracer.py's
    # OracleProxy, which copies it from the oracle it wraps.
    exact_inner: bool = True

    def eval_F(self, x: np.ndarray, theta: np.ndarray) -> float:
        raise NotImplementedError

    def grad_x_F(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inner_max(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def in_D(self, x: np.ndarray) -> bool:
        raise NotImplementedError

    def sample_gradients(self, points: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
        """grad_x_F(p, inner_max(p)) for the points at the front of
        ``points`` (a sequence of points or the rows of an (m, n) array)
        that lie in D, stopping before the first point outside D.

        The result may be a (k, n) array or a list of k rows; the solver
        accepts either, and may keep it for its next step, so no later
        call may write into it.  The result is shorter than ``points`` exactly
        when a point misses D, and the solver reads that as the stop: a
        step that gets fewer than m rows ends its run as
        NonsmoothSampleStop.
        """
        out = []
        for p in points:
            if not self.in_D(p):
                break
            out.append(np.asarray(self.grad_x_F(p, self.inner_max(p)), dtype=float))
        return out

    def objective(self, x: np.ndarray) -> float:
        """f(x) = F(x, inner_max(x))."""
        x = np.asarray(x, dtype=float)
        return self.eval_F(x, self.inner_max(x))


class StepKind(str, Enum):
    DESCENT = "Descent"
    NULL_TOLERANCE = "NullTolerance"
    NULL_LINESEARCH = "NullLineSearch"


class Termination(str, Enum):
    MAX_ITERS = "MaxIters"
    TOLERANCES_REACHED = "TolerancesReached"
    NONSMOOTH_SAMPLE_STOP = "NonsmoothSampleStop"
    # Stalled: a line search of the GD baseline failed, or a sampling run's
    # radius underflowed to 0.  LeftDomain: the GD baseline left D.
    STALLED = "Stalled"
    LEFT_DOMAIN = "LeftDomain"
    # A sampling run met a NaN f at x1 (a carried f is never NaN), or a
    # non-finite gradient in its bundle.
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass
class GsParams:
    """Hyperparameters of the sampling-based descent driver.

    ``m`` may be left as None, in which case it resolves to n + 2 for the
    problem dimension at hand (the minimum admissible value is n + 1).
    """

    alpha: float = 0.1
    beta: float = 0.5
    gamma: float = 0.5
    eps1: float = 0.2
    nu1: float = 0.1
    mu: float = 0.5
    vartheta: float = 0.5
    m: Optional[int] = None
    t_init_factor: float = 1.0 / 3.0
    max_iters: int = 1000
    eps_min: float = 0.0
    nu_min: float = 0.0

    def effective_m(self, n: int) -> int:
        return self.m if self.m is not None else n + 2

    def snapshot(self) -> dict:
        return asdict(self)


def _is_count(v) -> bool:
    # A Python or NumPy integer; bool is an int subclass but not a count.
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def validate_params(p: GsParams, n: int) -> None:
    """Check every parameter constraint for problem dimension n.

    Raises ParamError with the full list of violations.
    """
    errs: List[str] = []
    for name in ("alpha", "beta", "gamma", "mu", "vartheta"):
        v = getattr(p, name)
        if not (0.0 < v < 1.0):
            errs.append(f"{name} not in (0,1): {v}")
    for name in ("eps1", "nu1", "t_init_factor"):
        v = getattr(p, name)
        if not (0.0 < v < math.inf):
            errs.append(f"{name} not positive and finite: {v}")
    if p.m is not None and not _is_count(p.m):
        errs.append(f"m not an integer: {p.m!r}")
    elif p.effective_m(n) < n + 1:
        errs.append(f"m < n+1 (m={p.effective_m(n)}, n={n})")
    if p.t_init_factor < p.gamma / 3.0:
        errs.append(
            f"t_init_factor below gamma/3: {p.t_init_factor} < {p.gamma / 3.0}"
        )
    if not _is_count(p.max_iters):
        errs.append(f"max_iters not an integer: {p.max_iters!r}")
    elif p.max_iters < 0:
        errs.append(f"max_iters negative: {p.max_iters}")
    if not (0.0 <= p.eps_min < math.inf and 0.0 <= p.nu_min < math.inf):
        errs.append("eps_min/nu_min must be nonnegative and finite")
    if errs:
        raise ParamError("; ".join(errs))


@dataclass
class GsState:
    """Per-iteration state: iterate, sampling radius and norm tolerance.

    The two tolerances are always discounted together, so eps/eps1 = mu**a
    and nu/nu1 = vartheta**a share the same exponent a.

    ``kept`` holds the m fresh gradients of a NullLineSearch step, as the
    rows of an (m, n) array or as a sequence of rows, and is empty after
    any other step.  Neither x nor eps moved, so they are still
    gradients at points of B(x, eps) in D, and the next step's min-norm QP
    takes them before its own m fresh ones.  The convergence arguments of
    Kiwiel (2007, gradient sampling) and of Curtis & Que (2013, adaptive
    gradient sampling, which keeps gradients from the current ball on
    purpose) still hold when such gradients join the m fresh ones.

    ``f`` is f(x).  ``run`` evaluates it once, at x1, for the first
    state, and every later state carries it from the step before: the
    value the line search accepted at the new x after a Descent step (as
    Burke, Lewis & Overton (2005) state the iteration), and the unchanged
    f after a null step.  Since the oracles are pure, it is the value a
    fresh evaluation at x would give, bit for bit.
    """

    k: int
    x: np.ndarray
    eps: float
    nu: float
    f: float
    kept: Sequence[np.ndarray] = ()


@dataclass
class IterationRecord:
    k: int
    x: np.ndarray
    f_approx: float
    eps: float
    nu: float
    g_norm: float
    t: float
    step_kind: StepKind
    sample_count: int
    wall_time_us: int


@dataclass
class Trace:
    """Full telemetry of one run, sufficient to replay and plot it."""

    records: List[IterationRecord]
    params_snapshot: dict
    seed: int
    termination: Termination
    final_x: np.ndarray
    final_f: float
    final_eps: float
    final_nu: float
