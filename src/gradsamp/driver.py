"""Sampling-based descent driver for min-max objectives.

Each iteration samples points uniformly from a ball around the iterate,
collects gradients of F at the inner maximizers of those points, takes
the negated minimum-norm element of their convex hull as the search
direction, and applies a limited backtracking line search with a hard
floor on the step size.  A plain gradient-descent baseline with the same
step-size limits is included for comparison.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import (
    DescentViolationError,
    GsParams,
    GsState,
    IterationRecord,
    NonsmoothPolicy,
    NonsmoothSampleError,
    ProblemOracle,
    StepKind,
    Termination,
    Trace,
    _is_count,
    validate_params,
)
from .minnorm import min_norm_point

_MAX_REDRAWS = 100  # in a row, per sample; a miss of D has probability 0
_MAX_STALL = 25     # failed line searches in a row that stop the GD baseline


class Rng:
    """Seedable counter-based random stream with a documented draw order.

    Backed by the Philox bit generator, so identical seeds give identical
    streams across runs and platforms.  Draw-order contract: a ball sample
    consumes dim Gaussians followed by one uniform, and nothing else draws.
    """

    def __init__(self, seed: int):
        if not (_is_count(seed) and seed >= 0):
            raise ValueError(f"seed must be an integer >= 0: {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def gaussians(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def uniform(self) -> float:
        return float(self._gen.random())


@dataclass
class LineSearchOutcome:
    t: float
    trials: int
    accepted: bool
    f_x: float  # f(x) at the start point, as the acceptance test used it


def sample_ball(center: np.ndarray, radius: float, count: int,
                rng: Rng) -> List[np.ndarray]:
    """Uniform samples from the closed Euclidean ball B(center, radius).

    Point i consumes n Gaussian draws followed by one uniform draw, in
    index order.  The radial factor is u**(1/n) for u uniform on [0,1].
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    out = []
    for _ in range(count):
        z = rng.gaussians(n)
        u = rng.uniform()
        nz = math.sqrt(z.dot(z))  # the same operations as np.linalg.norm
        if nz == 0.0:
            out.append(center.copy())
            continue
        offset = (radius * u ** (1.0 / n)) * (z / nz)
        d = math.sqrt(offset.dot(offset))
        if d > radius:
            offset *= radius / d
        out.append(center + offset)
    return out


def _backtrack(value, f0: float, g_norm: float, eps: float, p: GsParams,
               slack: float) -> Tuple[float, int]:
    """Backtracking from t = t_init_factor * eps by factors gamma until
    value(t) <= f0 - beta * t * g_norm + slack.  Returns (t, trials), with
    t = 0 once the next trial would undercut the floor gamma * eps / 3."""
    t = p.t_init_factor * eps
    t_min = p.gamma * eps / 3.0
    trials = 0
    while True:
        trials += 1
        if value(t) <= f0 - p.beta * t * g_norm + slack:
            return t, trials
        if p.gamma * t < t_min:
            return 0.0, trials
        t *= p.gamma


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm as np.linalg.norm gives it, and where that
    overflows (entries above about 1e154), the scaled norm of math.hypot.
    That overflow is recovered from, so NumPy does not warn of it."""
    with np.errstate(over="ignore"):
        n = math.sqrt(v.dot(v))  # the same operations as np.linalg.norm
    return n if math.isfinite(n) else math.hypot(*v.tolist())


def line_search(oracle: ProblemOracle, x: np.ndarray, d: np.ndarray,
                g_norm: float, eps_k: float, p: GsParams) -> LineSearchOutcome:
    """Limited backtracking search along the unit direction d.

    Starts at t = t_init_factor * eps_k and shrinks by gamma until the
    sufficient-decrease test f(x + t d) <= f(x) - beta * t * g_norm + c_k / 2
    passes, where c_k = gamma * (1 - alpha) * beta * g_norm * eps_k / 3;
    returns t = 0 once the next trial would undercut the floor
    gamma * eps_k / 3.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if abs(float(np.linalg.norm(d)) - 1.0) > 1e-12:
        raise ValueError("search direction must be a unit vector")
    c_k = p.gamma * (1.0 - p.alpha) * p.beta * g_norm * eps_k / 3.0
    f_x = oracle.objective(x)
    t, trials = _backtrack(lambda t: oracle.objective(x + t * d), f_x, g_norm,
                           eps_k, p, slack=c_k / 2.0)
    return LineSearchOutcome(t=t, trials=trials, accepted=t > 0.0, f_x=f_x)


def step(oracle: ProblemOracle, state: GsState, p: GsParams,
         rng: Rng) -> Tuple[GsState, IterationRecord]:
    """One full iteration: sample, bundle, min-norm direction, line search.

    All m ball samples are drawn first and handed to
    ``oracle.sample_gradients``, which evaluates them in index order up to
    the first one outside D.  That sample is redrawn while it misses (under
    'resample'), the redraw is evaluated the same way, and the rest follow.
    Raises NonsmoothSampleError when a sample leaves D under the 'stop'
    policy; under 'resample', only the offending points are redrawn, and it
    is raised once one point misses D on _MAX_REDRAWS redraws in a row.
    Either way the gradients of the samples before the offending one have
    been computed by then.
    """
    t0 = time.perf_counter_ns()
    x = np.asarray(state.x, dtype=float)
    m = p.effective_m(x.shape[0])
    policy = NonsmoothPolicy(p.on_nonsmooth_sample)

    samples = sample_ball(x, state.eps, m, rng)
    draws = m
    grads = oracle.sample_gradients(samples)
    while len(grads) < m:  # samples[len(grads)] missed D
        got, redraws = [], 0
        while not got:
            if policy is NonsmoothPolicy.STOP or redraws == _MAX_REDRAWS:
                raise NonsmoothSampleError(f"sample left the smooth set D at "
                                           f"iteration {state.k} ({redraws} redraws)")
            got = oracle.sample_gradients(sample_ball(x, state.eps, 1, rng))
            draws += 1
            redraws += 1
        grads += got
        grads += oracle.sample_gradients(samples[len(grads):])

    res = min_norm_point(grads)
    g = res.point
    g_norm = _norm(g)

    if g_norm <= state.nu:
        f_x = oracle.objective(x)
        new_state = GsState(k=state.k + 1, x=x, eps=p.mu * state.eps,
                            nu=p.vartheta * state.nu)
        kind = StepKind.NULL_TOLERANCE
        t = 0.0
    else:
        d = -g / g_norm
        ls = line_search(oracle, x, d, g_norm, state.eps, p)
        f_x = ls.f_x
        t = ls.t
        if t > 0.0:
            kind = StepKind.DESCENT
            new_x = x + t * d
        else:
            kind = StepKind.NULL_LINESEARCH
            new_x = x
        new_state = GsState(k=state.k + 1, x=new_x, eps=state.eps, nu=state.nu)

    rec = IterationRecord(
        k=state.k, x=x, f_approx=f_x, eps=state.eps, nu=state.nu,
        g_norm=g_norm, t=t, step_kind=kind, sample_count=draws,
        wall_time_us=(time.perf_counter_ns() - t0) // 1000)
    return new_state, rec


def _check_descent(p: GsParams, records: List[IterationRecord],
                   final_f: float) -> None:
    fs = [r.f_approx for r in records] + [final_f]
    for i, r in enumerate(records):
        if r.t > 0.0:
            bound = fs[i] - p.alpha * p.beta * r.t * r.g_norm
            if fs[i + 1] > bound + 1e-9 * (1.0 + abs(fs[i])):
                raise DescentViolationError(
                    f"iteration {r.k}: f={fs[i + 1]:.17g} exceeds bound {bound:.17g}")


def _start_point(oracle: ProblemOracle, x1) -> np.ndarray:
    """x1 as a float vector, checked to be finite and of shape (oracle.dim,)."""
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != (oracle.dim,):
        raise ValueError(f"x1 has shape {x1.shape}, the problem needs shape "
                         f"({oracle.dim},)")
    if not np.all(np.isfinite(x1)):
        raise ValueError("x1 must be finite")
    return x1


def run(oracle: ProblemOracle, p: GsParams, x1: np.ndarray, rng: Rng) -> Trace:
    """Iterate ``step`` from x1 until a stopping condition fires.

    Stops at max_iters, or when both tolerances drop to their configured
    floors, or when a sample leaves D under the 'stop' policy or cannot be
    redrawn into D under 'resample'.  The recorded objective decreases by at
    least alpha * beta * t_k * ||g^k|| on every accepted step; this is
    asserted at the end of the run.  Raises ValueError, before the oracle
    is called, unless x1 is a finite vector of shape (oracle.dim,).
    """
    x1 = _start_point(oracle, x1)
    validate_params(p, x1.shape[0])

    trace = Trace(params_snapshot=p.snapshot(), seed=rng.seed)
    state = GsState(k=1, x=x1, eps=p.eps1, nu=p.nu1)
    termination = Termination.MAX_ITERS
    for _ in range(p.max_iters):
        try:
            state, rec = step(oracle, state, p, rng)
        except NonsmoothSampleError:
            termination = Termination.NONSMOOTH_SAMPLE_STOP
            break
        trace.records.append(rec)
        if state.eps <= p.eps_min and state.nu <= p.nu_min:
            termination = Termination.TOLERANCES_REACHED
            break

    if not trace.records:
        trace.records.append(IterationRecord(
            k=1, x=x1, f_approx=oracle.objective(x1),
            eps=p.eps1, nu=p.nu1, g_norm=0.0, t=0.0,
            step_kind=StepKind.NULL_TOLERANCE, sample_count=0, wall_time_us=0))

    trace.termination = termination
    trace.final_x = state.x
    trace.final_eps = state.eps
    trace.final_nu = state.nu
    trace.final_f = oracle.objective(state.x)
    _check_descent(p, trace.records, trace.final_f)
    return trace


def gradient_descent_baseline(oracle: ProblemOracle, p: GsParams,
                              x1: np.ndarray) -> Trace:
    """Plain normalized gradient descent under the same step-size limits.

    The direction is the negated gradient of F at the inner maximizer of
    the current iterate; there is no sampling and no tolerance
    discounting.  The backtracking search uses the same step-size limits
    [gamma * eps1 / 3, t_init_factor * eps1] and the same beta/gamma, but
    not the c_k / 2 slack of ``line_search``: the plain Armijo test
    applies.  Stops after _MAX_STALL
    consecutive failed line searches, when the iterate leaves D, or at
    max_iters.  Raises ValueError unless x1 is a finite vector of shape
    (oracle.dim,) in D.
    """
    x = _start_point(oracle, x1)
    validate_params(p, x.shape[0])
    if not oracle.in_D(x):
        raise ValueError("x1 must lie in the smooth set D")

    trace = Trace(params_snapshot=p.snapshot(), seed=0)
    termination = Termination.MAX_ITERS
    stall = 0
    for k in range(1, p.max_iters + 1):
        t0 = time.perf_counter_ns()
        if not oracle.in_D(x):
            termination = Termination.LEFT_DOMAIN
            break
        theta = oracle.inner_max(x)
        grad = np.asarray(oracle.grad_x_F(x, theta), dtype=float)
        g_norm = _norm(grad)
        f_here = oracle.eval_F(x, theta)
        if g_norm == 0.0:
            t = 0.0
        else:
            d = -grad / g_norm
            t, _ = _backtrack(lambda t: oracle.objective(x + t * d), f_here,
                              g_norm, p.eps1, p, slack=0.0)
        kind = StepKind.DESCENT if t > 0.0 else StepKind.NULL_LINESEARCH
        trace.records.append(IterationRecord(
            k=k, x=x, f_approx=f_here, eps=p.eps1, nu=p.nu1, g_norm=g_norm,
            t=t, step_kind=kind, sample_count=0,
            wall_time_us=(time.perf_counter_ns() - t0) // 1000))
        if t > 0.0:
            x = x + t * d
            stall = 0
        else:
            stall += 1
            if stall >= _MAX_STALL:
                termination = Termination.STALLED
                break

    trace.termination = termination
    trace.final_x = x
    trace.final_eps = p.eps1
    trace.final_nu = p.nu1
    trace.final_f = oracle.objective(x)
    return trace
