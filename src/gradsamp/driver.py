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
from typing import Tuple

import numpy as np

from .core import (
    GsParams,
    GsState,
    IterationRecord,
    NonsmoothSampleError,
    ProblemOracle,
    StepKind,
    Termination,
    Trace,
    _is_count,
    validate_params,
)
from .minnorm import NonFiniteError, min_norm_point


class Rng:
    """Seedable counter-based random stream with a documented draw order.

    Backed by the Philox bit generator, so identical seeds give identical
    streams across runs and platforms.  Draw-order contract: only
    ``ball_draws`` reads the stream, once per ``sample_ball`` call, and a
    step's m samples are one call.
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


def _scaled(g: np.ndarray) -> Tuple[np.ndarray, float, int]:
    """(s, n, e) with g = s * 2**e and n = ||s||: the one scaling of g that
    its norm, the search direction and the line search's test all read.

    e = 0 where g is 0 or its largest magnitude lies in (1e-150, 1e150).
    Then s is g, and n is sqrt(g.g), which has np.linalg.norm's bytes,
    since g.g neither overflows nor leaves the normal range for fewer than
    1e8 entries.  Otherwise 2**e moves the largest entry into [0.5, 1), so
    s.s lies in [0.25, len(g)) and n keeps its digits where ||g|| would
    overflow or fall among the subnormals.  An inf or NaN entry gives
    n = inf or NaN; the overflow of s.s on the way is not warned of.
    min and max skip a NaN unless it comes first, and then return it,
    which fails the range test, so every large entry is seen.  ||g|| is
    ``_ldexp(n, e)``."""
    gl = g.tolist()
    hi = max(max(gl), -min(gl))
    if 1e-150 < hi < 1e150 or hi == 0.0:
        return g, math.sqrt(g.dot(g)), 0
    e = math.frexp(hi)[1]  # 0 for an inf or NaN hi
    s = np.ldexp(g, -e)
    with np.errstate(over="ignore"):
        return s, math.sqrt(s.dot(s)), e


def _ldexp(v: float, e: int) -> float:
    """v * 2**e, rounded once, and inf where it overflows (math.ldexp
    raises there).  Each factor 2**(e/2) is a normal float for the e of
    ``_scaled``, so the first product is exact unless the result is far
    below the normal range.  For e = 0 this is v, byte for byte."""
    h = e // 2
    return v * 2.0 ** h * 2.0 ** (e - h)


def line_search(oracle: ProblemOracle, x: np.ndarray, f_x: float,
                g: Tuple[np.ndarray, float, int], eps_k: float, p: GsParams,
                slack: bool = True) -> LineSearchOutcome:
    """Limited backtracking search from x, where f(x) = f_x, along
    d = -s / n, for a gradient scaled by ``_scaled`` as g = (s, n, e), with
    0 < n < inf.

    Starts at t = t_init_factor * eps_k and shrinks by gamma until the
    sufficient-decrease test f(x + t d) <= f_x - beta * t * ||g|| + c_k / 2
    passes, where c_k = gamma * (1 - alpha) * beta * ||g|| * eps_k / 3;
    returns t = 0 once the next trial would undercut the floor
    gamma * eps_k / 3.  With ``slack=False`` c_k is 0: the plain Armijo
    test of the GD baseline.  Each trial costs one ``oracle.objective``
    call, and f_x costs none: the outcome carries the accepted trial's
    point and value, so the caller never evaluates f there again.  f_x is
    not checked here; a NaN f_x fails every test, so the search ends at
    t = 0, and a NaN trial fails it too, so the f returned is NaN only if
    f_x is.

    The test's terms are read from the scaling, as (beta * t * n) * 2**e
    and (c(n) * 2**e) / 2, with c(n) the c_k formula at n.  For e = 0
    these are the plain products.  Where only ||g|| = n * 2**e overflows,
    they stay finite, so the test decides, where -inf + inf would read NaN.

    An accepted step decreases f by at least alpha * beta * t * ||g||.  No
    t below gamma * eps_k / 3 is tried, so the slack c_k / 2 is at most
    (1 - alpha) * beta * t * ||g|| / 2, and an accepted trial has
    f_t <= f_x - beta * t * ||g|| * (1 + alpha) / 2, which is below
    f_x - alpha * beta * t * ||g|| by (1 - alpha) * beta * t * ||g|| / 2.
    In floating point the test is off by a few roundings of 2**-53
    relative to |f_x|, beta * t * ||g|| and c_k; that margin covers those
    on the last two, and a tolerance of 1e-9 * (1 + |f_x|) those on f_x,
    unless 1 - alpha is itself a few 2**-53.  At f_x = +inf every trial
    passes and the bound is +inf; where f_x = -inf, or beta * t * ||g||
    overflows, only a trial at -inf passes, and -inf is not above the
    bound.  So the bound holds to within the tolerance unless alpha lies
    within a few 2**-53 of 1: with alpha = 1 - 2**-52 and
    ||g|| = 3.3e13, a trial at the test's own limit can be 3e-5 above it.
    Such a trial is not taken: the search raises NonFiniteError, which
    ends a run as NumericalFailure.
    """
    s, n, e = g
    d = -s / n
    c_half = 0.0
    if slack:
        c_half = _ldexp(p.gamma * (1.0 - p.alpha) * p.beta * n * eps_k / 3.0, e) / 2.0
    t = p.t_init_factor * eps_k
    t_min = p.gamma * eps_k / 3.0
    trials = 0
    while True:
        trials += 1
        x_t = x + t * d
        f_t = oracle.objective(x_t)
        drop = _ldexp(p.beta * t * n, e)
        if f_t <= f_x - drop + c_half:
            if f_t > f_x - _ldexp(p.alpha * p.beta * t * n, e) + 1e-9 * (1.0 + abs(f_x)):
                raise NonFiniteError("the accepted step breaks the decrease bound")
            return LineSearchOutcome(t=t, trials=trials, accepted=True, x=x_t, f=f_t)
        if p.gamma * t < t_min:
            return LineSearchOutcome(t=0.0, trials=trials, accepted=False, x=x, f=f_x)
        t *= p.gamma


def step(oracle: ProblemOracle, state: GsState, p: GsParams,
         rng: Rng) -> Tuple[GsState, IterationRecord]:
    """One full iteration: sample, bundle, min-norm direction, line search.

    All m ball samples are drawn first and handed to one
    ``oracle.sample_gradients`` call, which evaluates them in index order up
    to the first one outside D.  Raises NonsmoothSampleError when fewer
    than m gradients come back: a sample left D, an event of probability 0
    since D has full measure, and the gradients of the samples before it
    have been computed by then.  The min-norm QP takes ``state.kept`` and
    then the m fresh gradients, joined by one concatenate, or the fresh
    gradients as they came when nothing is kept.  A NullLineSearch step
    keeps its fresh rows for the next step, and every other step keeps
    none.  The QP's point g is scaled once, by ``_scaled``; the recorded
    ||g||, the NullTolerance test and the line search all read that one
    scaling.

    f(x) is ``state.f``, which ``run`` evaluates once, at x1, so a step
    calls ``oracle.objective`` only in the line search.  The new state
    carries f at the new x: the accepted trial's value after a Descent
    step, the unchanged f after a null step.  Raises NonFiniteError on a
    NaN f, tested after the bundle so that a sample outside D outranks it
    (only f(x1) can be NaN: a NaN trial fails the line search's test), on
    a non-finite fresh gradient (the kept ones passed the step before),
    or on an accepted trial that breaks the line search's decrease bound.
    """
    t0 = time.perf_counter_ns()
    x = np.asarray(state.x, dtype=float)
    m = p.effective_m(x.shape[0])

    fresh = oracle.sample_gradients(sample_ball(x, state.eps, m, rng))
    if len(fresh) < m:
        raise NonsmoothSampleError(f"sample {len(fresh)} left the smooth set D "
                                   f"at iteration {state.k}")
    f_x = state.f
    if math.isnan(f_x):  # an infinite f still orders the trials
        raise NonFiniteError("f is NaN at the iterate")
    bundle = np.concatenate((state.kept, fresh)) if len(state.kept) else fresh

    g = _scaled(min_norm_point(bundle).point)
    g_norm = _ldexp(g[1], g[2])

    if g_norm <= state.nu:
        new_state = GsState(k=state.k + 1, x=x, eps=p.mu * state.eps,
                            nu=p.vartheta * state.nu, f=f_x)
        kind = StepKind.NULL_TOLERANCE
        t = 0.0
    else:
        ls = line_search(oracle, x, f_x, g, state.eps, p)
        t = ls.t
        if t > 0.0:
            kind, kept = StepKind.DESCENT, ()
        else:  # x and eps stay, so the fresh gradients still sample the ball
            kind, kept = StepKind.NULL_LINESEARCH, bundle[-m:]
        new_state = GsState(k=state.k + 1, x=ls.x, eps=state.eps, nu=state.nu,
                            kept=kept, f=ls.f)

    rec = IterationRecord(
        k=state.k, x=x, f_approx=f_x, eps=state.eps, nu=state.nu,
        g_norm=g_norm, t=t, step_kind=kind, sample_count=m,
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
    floors, or (as NonsmoothSampleStop) when a sample leaves D, or (as
    Stalled) before a step whose radius eps has underflowed to 0, or (as
    NumericalFailure) at a NaN f at x1, a non-finite bundle gradient or a
    step that breaks the decrease bound of ``line_search``, keeping the
    records before it.  So every recorded Descent step decreases f by at
    least alpha * beta * t_k * ||g^k||, to within that bound's tolerance.
    Each record is a step that returned; a run that ends before its first
    one has none, and ends at x1 with f(x1), eps1 and nu1.  f is evaluated
    once, at x1, on entry, and the first step tests it for NaN; every later
    value is one the line search accepted, never NaN since a NaN trial
    fails its test.  So no iterate costs an oracle call of its own.  Raises
    ValueError, before the oracle is called, unless x1 is a finite vector
    of shape (oracle.dim,) and oracle.dim is at least 1.
    """
    x1 = _start_point(oracle, x1)
    validate_params(p, x1.shape[0])

    state = GsState(k=1, x=x1, eps=p.eps1, nu=p.nu1, f=oracle.objective(x1))
    records = []
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
        state = new
        records.append(rec)
        if state.eps <= p.eps_min and state.nu <= p.nu_min:
            termination = Termination.TOLERANCES_REACHED
            break
    return Trace(records, p.snapshot(), rng.seed, termination, final_x=state.x,
                 final_f=state.f, final_eps=state.eps, final_nu=state.nu)


def gradient_descent_baseline(oracle: ProblemOracle, p: GsParams,
                              x1: np.ndarray) -> Trace:
    """Plain normalized gradient descent under the same step-size limits.

    The direction is the negated gradient of F at the inner maximizer of the
    current iterate; there is no sampling and no tolerance discounting.
    Each step is one ``line_search`` along the scaled gradient, with t in
    [gamma * eps1 / 3, t_init_factor * eps1], the same beta/gamma and
    ``slack=False``: the plain Armijo test applies.  Stops as Stalled at its
    first failed line search, whose record is the last: x, f and the
    gradient stay as they are, and the oracles are pure, so every retry
    would fail the same way.  A zero gradient, or one with an entry that is
    not finite, gives no direction (its scaled norm n is not in (0, inf)),
    and its search fails without a trial.  Also stops when the iterate
    leaves D, or at max_iters.  Each iterate's gradient is one
    ``oracle.sample_gradients`` row, and an empty answer means the iterate
    is outside D.  As in ``run``, f is evaluated at x1 only, by
    ``oracle.objective``, and then carried from the accepted trials.  Raises
    ValueError unless x1 is a finite vector of shape (oracle.dim,) in D,
    with oracle.dim at least 1.
    """
    x = _start_point(oracle, x1)
    validate_params(p, x.shape[0])
    rows = oracle.sample_gradients(x[None])
    if len(rows) == 0:
        raise ValueError("x1 must lie in the smooth set D")
    f_here = oracle.objective(x)

    records = []
    termination = Termination.MAX_ITERS
    for k in range(1, p.max_iters + 1):
        t0 = time.perf_counter_ns()
        if k > 1:  # x1's gradient was asked for on entry
            rows = oracle.sample_gradients(x[None])
            if len(rows) == 0:
                termination = Termination.LEFT_DOMAIN
                break
        g = _scaled(np.asarray(rows[0], dtype=float))
        t, x_next, f_next = 0.0, x, f_here
        if 0.0 < g[1] < math.inf:
            ls = line_search(oracle, x, f_here, g, p.eps1, p, slack=False)
            t, x_next, f_next = ls.t, ls.x, ls.f
        kind = StepKind.DESCENT if t > 0.0 else StepKind.NULL_LINESEARCH
        records.append(IterationRecord(
            k=k, x=x, f_approx=f_here, eps=p.eps1, nu=p.nu1, g_norm=_ldexp(g[1], g[2]),
            t=t, step_kind=kind, sample_count=0,
            wall_time_us=(time.perf_counter_ns() - t0) // 1000))
        x, f_here = x_next, f_next
        if t == 0.0:
            termination = Termination.STALLED
            break
    return Trace(records, p.snapshot(), 0, termination, final_x=x,
                 final_f=f_here, final_eps=p.eps1, final_nu=p.nu1)
