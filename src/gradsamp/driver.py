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
import sys
import time
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
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
from .minnorm import NonFiniteError, min_norm_point

_MAX_REDRAWS = 100  # in a row, per sample; a miss of D has probability 0


class Rng:
    """Seedable counter-based random stream with a documented draw order.

    Backed by the Philox bit generator, so identical seeds give identical
    streams across runs and platforms.  Draw-order contract: only
    ``ball_draws`` reads the stream, once per ``sample_ball`` call, so a
    step's m samples are one call and each redraw of a sample one more.
    """

    def __init__(self, seed: int):
        if not (_is_count(seed) and seed >= 0):
            raise ValueError(f"seed must be an integer >= 0: {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    def ball_draws(self, count: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """A (count, n) block of standard Gaussians, row by row, and then
        count uniforms on [0, 1): the draws of count ball samples in n
        dimensions."""
        return self._gen.standard_normal((count, n)), self._gen.random(count)


@dataclass
class LineSearchOutcome:
    """Where a line search ended: at its accepted trial x + t d, or at the
    start point x with t = 0 when no trial passed."""

    t: float
    trials: int
    accepted: bool
    x: np.ndarray  # x + t d as the accepted trial evaluated it, else x
    f: float       # f there: the accepted trial's value, else f(x) as given


def sample_ball(center: np.ndarray, radius: float, count: int,
                rng: Rng) -> np.ndarray:
    """Uniform samples from the closed Euclidean ball B(center, radius), as
    the rows of a (count, n) array.

    One ``rng.ball_draws(count, n)`` call: row i of the Gaussian block
    gives point i's direction z / ||z||, and uniform i its radial factor
    u**(1/n).  A zero row gives the centre, and an offset that rounds past
    the radius is scaled back onto the sphere.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    z, u = rng.ball_draws(count, n)
    nz = np.sqrt(np.einsum("ij,ij->i", z, z))
    if not nz.all():
        nz[nz == 0.0] = 1.0  # z is 0 there, and so is its offset
    rad = radius * u ** (1.0 / n)
    offset = rad[:, None] * (z / nz[:, None])
    # While 1e-150 < radius < 1e150, the squares of a row near the sphere
    # neither overflow nor underflow, so each rounding in its norm is
    # relative, at most 2**-53: z / ||z|| has a computed norm of at most
    # 1 + (n/2 + 2) 2**-53, and the offset's computed norm is at most
    # rad * (1 + (n + 4) 2**-53), up to terms in n**2 2**-106.  So while
    # every rad is at most radius * (1 - 4n 2**-52), for any n below about
    # 1e7, no row rounds past the sphere, and the re-check, which would
    # change nothing, is skipped.  A row near the sphere has u above
    # (1 - 4n 2**-52)**n, with a probability of about 4n**2 2**-52.
    if not (1e-150 < radius < 1e150
            and max(rad.tolist()) <= radius * (1.0 - 4.0 * n * 2.0**-52)):
        d = np.sqrt(np.einsum("ij,ij->i", offset, offset))
        if d.max() > radius:
            over = d > radius
            offset[over] *= (radius / d[over])[:, None]
    return center + offset


def _backtrack(oracle: ProblemOracle, x: np.ndarray, d: np.ndarray, f0: float,
               g_norm: float, eps: float, p: GsParams,
               slack: float) -> Tuple[float, int, np.ndarray, float]:
    """Backtracking along d from t = t_init_factor * eps by factors gamma
    until f(x + t d) <= f0 - beta * t * g_norm + slack.  Returns (t, trials,
    x + t d, f(x + t d)) for the accepted trial, and (0, trials, x, f0)
    once the next trial would undercut the floor gamma * eps / 3.  A NaN
    trial value fails the test, so the f returned is NaN only if f0 is."""
    t = p.t_init_factor * eps
    t_min = p.gamma * eps / 3.0
    trials = 0
    while True:
        trials += 1
        x_t = x + t * d
        f_t = oracle.objective(x_t)
        if f_t <= f0 - p.beta * t * g_norm + slack:
            return t, trials, x_t, f_t
        if p.gamma * t < t_min:
            return 0.0, trials, x, f0
        t *= p.gamma


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm as np.linalg.norm gives it, and the scaled norm of
    math.hypot where v.v overflows (entries above about 1e154) or falls
    below the smallest normal double (entries below about 1e-154), whose
    square root has lost digits.  That overflow is recovered from, so NumPy
    does not warn of it.  The errstate that silences it costs more than the
    dot, so only a v with an entry of magnitude 1e150 or more enters it;
    otherwise v.v < len(v) * 1e300 is finite (for fewer than 1e8 entries).
    min and max skip a NaN unless it comes first, and then return it,
    which fails the test, so every large entry is seen."""
    vl = v.tolist()
    if -1e150 < min(vl) and max(vl) < 1e150:
        s = v.dot(v)  # the same operations as np.linalg.norm
    else:
        with np.errstate(over="ignore"):
            s = v.dot(v)
    return math.sqrt(s) if sys.float_info.min <= s < math.inf else math.hypot(*vl)


def _direction(g: np.ndarray, g_norm: float) -> np.ndarray:
    """-g / ||g|| for g_norm = _norm(g) > 0, a unit vector whenever g is
    finite and non-zero.  Where ||g|| is not a normal float, as when it
    overflows to inf or has lost digits below the smallest normal double,
    g is first divided by a power of two near its largest magnitude, which
    puts that entry in [0.5, 1) and ||g|| in [0.5, sqrt(n)).  Otherwise the
    quotient is the plain -g / g_norm."""
    if sys.float_info.min <= g_norm < math.inf:
        return -g / g_norm
    g = np.ldexp(g, -math.frexp(max(map(abs, g.tolist())))[1])
    return -g / _norm(g)


def _f_at(oracle: ProblemOracle, x: np.ndarray) -> float:
    """f(x), raising NonFiniteError if it is NaN.  An infinite f still
    orders the line search's trials, so a run can descend from it."""
    f_x = oracle.objective(x)
    if math.isnan(f_x):
        raise NonFiniteError("f is NaN at the iterate")
    return f_x


def line_search(oracle: ProblemOracle, x: np.ndarray, f_x: float, d: np.ndarray,
                g_norm: float, eps_k: float, p: GsParams) -> LineSearchOutcome:
    """Limited backtracking search along the unit direction d from x, where
    f(x) = f_x.

    Starts at t = t_init_factor * eps_k and shrinks by gamma until the
    sufficient-decrease test f(x + t d) <= f_x - beta * t * g_norm + c_k / 2
    passes, where c_k = gamma * (1 - alpha) * beta * g_norm * eps_k / 3;
    returns t = 0 once the next trial would undercut the floor
    gamma * eps_k / 3.  Each trial costs one ``oracle.objective`` call, and
    f_x costs none: the outcome carries the accepted trial's point and
    value, so the caller never evaluates f there again.  f_x is not checked
    here; a NaN f_x fails every test, so the search ends at t = 0.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if abs(_norm(d) - 1.0) > 1e-12:
        raise ValueError("search direction must be a unit vector")
    c_k = p.gamma * (1.0 - p.alpha) * p.beta * g_norm * eps_k / 3.0
    t, trials, x_t, f_t = _backtrack(oracle, x, d, f_x, g_norm, eps_k, p,
                                     slack=c_k / 2.0)
    return LineSearchOutcome(t=t, trials=trials, accepted=t > 0.0, x=x_t, f=f_t)


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
    been computed by then.  The min-norm QP takes one (k, n) array:
    ``state.kept`` and then the m fresh gradients, joined by one
    concatenate.  A NullLineSearch step keeps its fresh rows for the next
    step, and every other step keeps none.

    f(x) is ``state.f``.  Only when that is None, before a run's first
    step, is it evaluated, once, after the bundle.  The new state carries
    f at the new x: the accepted trial's value after a Descent step, the
    unchanged f after a null step.  Raises NonFiniteError on a non-finite
    fresh gradient (the kept ones passed the step before) or a NaN f at
    the first x; a carried f is never NaN, because a NaN trial fails the
    line search's test and is never accepted.
    """
    t0 = time.perf_counter_ns()
    x = np.asarray(state.x, dtype=float)
    m = p.effective_m(x.shape[0])
    policy = NonsmoothPolicy(p.on_nonsmooth_sample)

    samples = sample_ball(x, state.eps, m, rng)
    draws = m
    parts = [state.kept, oracle.sample_gradients(samples)]
    done = len(parts[-1])
    while done < m:  # samples[done] missed D
        got, redraws = [], 0
        while len(got) == 0:
            if policy is NonsmoothPolicy.STOP or redraws == _MAX_REDRAWS:
                raise NonsmoothSampleError(f"sample left the smooth set D at "
                                           f"iteration {state.k} ({redraws} redraws)")
            got = oracle.sample_gradients(sample_ball(x, state.eps, 1, rng))
            draws += 1
            redraws += 1
        parts += [got, oracle.sample_gradients(samples[done + 1:])]
        done += len(parts[-1]) + 1
    bundle = np.concatenate([b for b in parts if len(b)])

    res = min_norm_point(bundle)
    g = res.point
    g_norm = _norm(g)

    f_x = _f_at(oracle, x) if state.f is None else state.f

    if g_norm <= state.nu:
        new_state = GsState(k=state.k + 1, x=x, eps=p.mu * state.eps,
                            nu=p.vartheta * state.nu, f=f_x)
        kind = StepKind.NULL_TOLERANCE
        t = 0.0
    else:
        ls = line_search(oracle, x, f_x, _direction(g, g_norm), g_norm, state.eps, p)
        t = ls.t
        if t > 0.0:
            kind, kept = StepKind.DESCENT, ()
        else:  # x and eps stay, so the fresh gradients still sample the ball
            kind, kept = StepKind.NULL_LINESEARCH, bundle[-m:]
        new_state = GsState(k=state.k + 1, x=ls.x, eps=state.eps, nu=state.nu,
                            kept=kept, f=ls.f)

    rec = IterationRecord(
        k=state.k, x=x, f_approx=f_x, eps=state.eps, nu=state.nu,
        g_norm=g_norm, t=t, step_kind=kind, sample_count=draws,
        wall_time_us=(time.perf_counter_ns() - t0) // 1000)
    return new_state, rec


def _start_point(oracle: ProblemOracle, x1) -> np.ndarray:
    """x1 as a float vector, checked to be finite and of shape (oracle.dim,),
    for a problem of dimension 1 or more."""
    x1 = np.asarray(x1, dtype=float)
    if oracle.dim < 1:
        raise ValueError(f"the problem has dimension {oracle.dim}; it needs at least 1")
    if x1.shape != (oracle.dim,):
        raise ValueError(f"x1 has shape {x1.shape}, the problem needs shape "
                         f"({oracle.dim},) for its dimension {oracle.dim}")
    if not np.all(np.isfinite(x1)):
        raise ValueError("x1 must be finite")
    return x1


def run(oracle: ProblemOracle, p: GsParams, x1: np.ndarray, rng: Rng) -> Trace:
    """Iterate ``step`` from x1 until a stopping condition fires.

    Stops at max_iters, or when both tolerances drop to their configured
    floors, or when a sample leaves D under the 'stop' policy or cannot be
    redrawn into D under 'resample', or (as Stalled) before a step whose
    radius eps has underflowed to 0, or (as NumericalFailure) at a NaN f
    at x1, a non-finite bundle gradient or a step that breaks the decrease
    bound below, keeping the records before it.  f is evaluated at x1
    only, and the first step tests that one value for NaN; every later
    value, ``trace.final_f`` included, is one the line search accepted,
    which is never NaN because a NaN trial fails its test.  So no iterate
    costs an oracle call of its own.  Raises ValueError, before the oracle
    is called, unless x1 is a finite vector of shape (oracle.dim,) and
    oracle.dim is at least 1.

    The line search guarantees that the recorded objective decreases by
    at least alpha * beta * t_k * ||g^k|| on every accepted step.  It
    tries no t below gamma * eps_k / 3, so its slack c_k / 2 is at most
    (1 - alpha) * beta * t * ||g|| / 2, and an accepted trial has
    f_t <= f0 - beta * t * ||g|| * (1 + alpha) / 2, which is below
    f0 - alpha * beta * t * ||g|| by (1 - alpha) * beta * t * ||g|| / 2.
    In floating point the test is off by a few roundings of 2**-53
    relative to |f0|, beta * t * ||g|| and c_k; that margin covers those on
    the last two, and a tolerance of 1e-9 * (1 + |f0|) those on f0, unless
    1 - alpha is itself a few 2**-53.  A NaN trial fails the test, and f0
    is never NaN.  At f0 = +inf every trial passes and the bound is +inf;
    where f0 = -inf, or beta * t * ||g|| overflows, only a trial at -inf
    passes, and -inf is not above the bound.  So the bound holds to within
    the tolerance unless alpha lies within a few 2**-53 of 1: with
    alpha = 1 - 2**-52 and ||g|| = 3.3e13, a trial at the test's own
    limit is 1.2e-4 above it.  Such a step is not taken; the run ends as
    NumericalFailure.
    """
    x1 = _start_point(oracle, x1)
    validate_params(p, x1.shape[0])

    trace = Trace(params_snapshot=p.snapshot(), seed=rng.seed)
    state = GsState(k=1, x=x1, eps=p.eps1, nu=p.nu1)
    termination = Termination.MAX_ITERS
    for _ in range(p.max_iters):
        if state.eps == 0.0:  # the radius underflowed: no ball to sample
            termination = Termination.STALLED
            break
        try:
            new, rec = step(oracle, state, p, rng)
        except NonsmoothSampleError:
            termination = Termination.NONSMOOTH_SAMPLE_STOP
            break
        except NonFiniteError:
            termination = Termination.NUMERICAL_FAILURE
            break
        if rec.t > 0.0 and new.f > (rec.f_approx - p.alpha * p.beta * rec.t * rec.g_norm
                                    + 1e-9 * (1.0 + abs(rec.f_approx))):
            termination = Termination.NUMERICAL_FAILURE  # alpha near 1: see above
            break
        state = new
        trace.records.append(rec)
        if state.eps <= p.eps_min and state.nu <= p.nu_min:
            termination = Termination.TOLERANCES_REACHED
            break

    if not trace.records:  # no step returned, so none carried f at x1
        state.f = oracle.objective(x1)
        trace.records.append(IterationRecord(
            k=1, x=x1, f_approx=state.f,
            eps=p.eps1, nu=p.nu1, g_norm=0.0, t=0.0,
            step_kind=StepKind.NULL_TOLERANCE, sample_count=0, wall_time_us=0))

    trace.termination = termination
    trace.final_x = state.x
    trace.final_eps = state.eps
    trace.final_nu = state.nu
    trace.final_f = state.f
    return trace


def gradient_descent_baseline(oracle: ProblemOracle, p: GsParams,
                              x1: np.ndarray) -> Trace:
    """Plain normalized gradient descent under the same step-size limits.

    The direction is the negated gradient of F at the inner maximizer of
    the current iterate; there is no sampling and no tolerance
    discounting.  The backtracking search uses the same step-size limits
    [gamma * eps1 / 3, t_init_factor * eps1] and the same beta/gamma, but
    not the c_k / 2 slack of ``line_search``: the plain Armijo test
    applies.  Stops as Stalled at its first failed line search, whose
    record is the last: x, f and the gradient stay as they are, and the
    oracles are pure, so every retry would fail the same way.  A gradient
    with an entry that is not finite gives no direction, and its search
    fails without a trial.  Also stops when the iterate leaves D, or at
    max_iters.  Each iterate's gradient is one ``oracle.sample_gradients``
    row, and an empty answer means the iterate is outside D.  As in
    ``run``, f is evaluated at x1 only, by ``oracle.objective``, and then
    carried from the accepted trials.  Raises ValueError unless x1 is a
    finite vector of shape (oracle.dim,) in D, with oracle.dim at least 1.
    """
    x = _start_point(oracle, x1)
    validate_params(p, x.shape[0])
    rows = oracle.sample_gradients(x[None])
    if len(rows) == 0:
        raise ValueError("x1 must lie in the smooth set D")
    f_here = oracle.objective(x)

    trace = Trace(params_snapshot=p.snapshot(), seed=0)
    termination = Termination.MAX_ITERS
    for k in range(1, p.max_iters + 1):
        t0 = time.perf_counter_ns()
        if k > 1:  # x1's gradient was asked for on entry
            rows = oracle.sample_gradients(x[None])
            if len(rows) == 0:
                termination = Termination.LEFT_DOMAIN
                break
        grad = np.asarray(rows[0], dtype=float)
        g_norm = _norm(grad)
        t, x_next, f_next = 0.0, x, f_here
        if g_norm != 0.0 and np.isfinite(grad).all():
            t, _, x_next, f_next = _backtrack(oracle, x, _direction(grad, g_norm), f_here,
                                              g_norm, p.eps1, p, slack=0.0)
        kind = StepKind.DESCENT if t > 0.0 else StepKind.NULL_LINESEARCH
        trace.records.append(IterationRecord(
            k=k, x=x, f_approx=f_here, eps=p.eps1, nu=p.nu1, g_norm=g_norm,
            t=t, step_kind=kind, sample_count=0,
            wall_time_us=(time.perf_counter_ns() - t0) // 1000))
        x, f_here = x_next, f_next
        if t == 0.0:
            termination = Termination.STALLED
            break

    trace.termination = termination
    trace.final_x = x
    trace.final_eps = p.eps1
    trace.final_nu = p.nu1
    trace.final_f = f_here
    return trace
