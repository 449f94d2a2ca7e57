"""Shared contracts for the gradient-sampling solver.

The objective is a pointwise maximum f(x) = max_theta F(x, theta) that is
only accessible through an inner-maximization routine returning a point
within a prescribed distance of the argmax.  This module holds the oracle
contract, the algorithm parameters and per-iteration state, the trace
telemetry types, and the two closed-form accuracy conversions used when
wiring approximate inner solvers into the driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import List, Optional

import numpy as np


class ParamError(ValueError):
    """Algorithm parameters violate their constraints."""


class NonsmoothSampleError(RuntimeError):
    """A sampled point left the smooth set D under the 'stop' policy, or
    missed it on every allowed redraw under 'resample'."""


class DescentViolationError(RuntimeError):
    """The per-iteration sufficient-decrease bound failed at runtime."""


class ProblemOracle:
    """Behavioral contract for min-max objectives f(x) = max_theta F(x, theta).

    Concrete problems subclass this and provide:

    - ``dim``: dimension n of the decision variable.
    - ``theta_dim``: dimension d of the inner parameter.
    - ``exact_inner``: True when ``inner_max`` returns an exact maximizer
      (``achieved_dist`` is then always 0).
    - ``eval_F(x, theta)``: value of F.
    - ``grad_x_F(x, theta)``: gradient of F in x; defined only on the open
      full-measure set D.
    - ``inner_max(x, dist_tol)``: a point within ``dist_tol`` of the argmax
      set, together with the oracle's own certified distance bound.
    - ``in_D(x)``: membership in D.
    - ``lip_F_theta(x)``, ``lip_gradF_theta(x)``: Lipschitz constants of
      theta -> F(x, theta) and theta -> grad_x F(x, theta); required only
      when ``exact_inner`` is False, as exact oracles ignore tolerances.

    All methods must be pure (identical inputs give identical outputs) and
    safe to call concurrently.
    """

    dim: int
    theta_dim: int
    exact_inner: bool = False

    def eval_F(self, x: np.ndarray, theta: np.ndarray) -> float:
        raise NotImplementedError

    def grad_x_F(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inner_max(self, x: np.ndarray, dist_tol: float):
        raise NotImplementedError

    def lip_F_theta(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def lip_gradF_theta(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def in_D(self, x: np.ndarray) -> bool:
        raise NotImplementedError

    def objective(self, x: np.ndarray, dist_tol: float = 0.0) -> float:
        """f(x) evaluated through the inner oracle at the given accuracy."""
        theta, _ = self.inner_max(np.asarray(x, dtype=float), dist_tol)
        return self.eval_F(np.asarray(x, dtype=float), theta)


class NonsmoothPolicy(str, Enum):
    """What to do when a sampled point falls outside D."""

    STOP = "stop"
    RESAMPLE = "resample"


class StepKind(str, Enum):
    DESCENT = "Descent"
    NULL_TOLERANCE = "NullTolerance"
    NULL_LINESEARCH = "NullLineSearch"


class Termination(str, Enum):
    MAX_ITERS = "MaxIters"
    TOLERANCES_REACHED = "TolerancesReached"
    NONSMOOTH_SAMPLE_STOP = "NonsmoothSampleStop"
    # Extra reasons used by the plain gradient-descent baseline only.
    STALLED = "Stalled"
    LEFT_DOMAIN = "LeftDomain"


@dataclass
class GsParams:
    """Hyperparameters of the sampling-based descent driver.

    ``m`` may be left as None, in which case it resolves to n + 2 for the
    problem dimension at hand (the minimum admissible value is n + 1).
    The inner-oracle accuracy schedule is geometric,
    delta_k = delta1 * delta_decay**(k - 1), strictly decreasing to zero.
    """

    alpha: float = 0.1
    beta: float = 0.5
    gamma: float = 0.5
    eps1: float = 0.2
    nu1: float = 0.1
    mu: float = 0.5
    vartheta: float = 0.5
    m: Optional[int] = None
    delta1: float = 1e-3
    delta_decay: float = 0.95
    t_init_factor: float = 1.0 / 3.0
    max_iters: int = 1000
    eps_min: float = 0.0
    nu_min: float = 0.0
    on_nonsmooth_sample: NonsmoothPolicy = NonsmoothPolicy.STOP

    def effective_m(self, n: int) -> int:
        return self.m if self.m is not None else n + 2

    def delta_k(self, k: int) -> float:
        return self.delta1 * self.delta_decay ** (k - 1)

    def snapshot(self) -> dict:
        d = asdict(self)
        d["on_nonsmooth_sample"] = NonsmoothPolicy(self.on_nonsmooth_sample).value
        return d


def _is_count(v) -> bool:
    # A Python or NumPy integer; bool is an int subclass but not a count.
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def validate_params(p: GsParams, n: int) -> None:
    """Check every parameter constraint for problem dimension n.

    Raises ParamError with the full list of violations.
    """
    errs: List[str] = []
    for name in ("alpha", "beta", "gamma", "mu", "vartheta", "delta_decay"):
        v = getattr(p, name)
        if not (0.0 < v < 1.0):
            errs.append(f"{name} not in (0,1): {v}")
    for name in ("eps1", "nu1", "delta1", "t_init_factor"):
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
    try:
        NonsmoothPolicy(p.on_nonsmooth_sample)
    except ValueError:
        errs.append(f"unknown nonsmooth-sample policy: {p.on_nonsmooth_sample!r}")
    if errs:
        raise ParamError("; ".join(errs))


@dataclass
class GsState:
    """Per-iteration state: iterate, sampling radius and norm tolerance.

    The two tolerances are always discounted together, so eps/eps1 = mu**a
    and nu/nu1 = vartheta**a share the same exponent a.
    """

    k: int
    x: np.ndarray
    eps: float
    nu: float


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

    records: List[IterationRecord] = field(default_factory=list)
    params_snapshot: dict = field(default_factory=dict)
    seed: int = 0
    termination: Termination = Termination.MAX_ITERS
    f_mode: str = "exact"  # "exact" or "delta": how f_approx was evaluated
    final_x: Optional[np.ndarray] = None
    final_f: float = math.nan
    final_eps: float = math.nan
    final_nu: float = math.nan


def accuracy_to_distance(value_gap: float, strong_concavity_rho: float) -> float:
    """Distance-to-argmax certificate earned from a value-gap certificate.

    For a strongly concave inner problem with modulus rho, a point whose
    value is within ``value_gap`` of the maximum lies within
    sqrt(2 * value_gap / rho) of the unique maximizer.
    """
    if value_gap <= 0.0 or strong_concavity_rho <= 0.0:
        raise ValueError("value_gap and strong_concavity_rho must be positive")
    return math.sqrt(2.0 * value_gap / strong_concavity_rho)


def regularization_rho(epsilon: float, theta_max_norm_sq: float) -> float:
    """Largest quadratic-regularization weight keeping the regularized
    value within epsilon below the true max, given max ||theta||^2 over
    the feasible set."""
    if epsilon <= 0.0 or theta_max_norm_sq <= 0.0:
        raise ValueError("epsilon and theta_max_norm_sq must be positive")
    return 2.0 * epsilon / theta_max_norm_sq
