"""Gradient sampling for nonsmooth min-max objectives.

A sampling-based descent method for minimizing f(x) = max_theta F(x, theta)
when f is only reachable through an exact inner-maximization oracle,
together with a distributionally robust 1-D coverage benchmark family and
analytic stress objectives for testing.
"""

from types import ModuleType as _ModuleType

from .core import (
    DescentViolationError,
    GsParams,
    IterationRecord,
    NonsmoothPolicy,
    NonsmoothSampleError,
    ParamError,
    ProblemOracle,
    StepKind,
    Termination,
    Trace,
    validate_params,
)
from .coverage import (
    CoverageProblem,
    inner_lp_max,
    make_coverage_oracle,
    penalty,
)
from .driver import Rng, gradient_descent_baseline, run
from .minnorm import MinNormResult, min_norm_point
from .testfns import (
    CantorStressProblem,
    FiniteMaxProblem,
    MaxPiece,
    cantor_stress_oracle,
    finite_max_oracle,
)

__all__ = [name for name, obj in sorted(globals().items())
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
__version__ = "0.1.0"
