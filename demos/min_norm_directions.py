"""Why the min-norm point of a gradient bundle is a robust direction.

Near a kink of f(x) = |x|, gradients sampled on both sides are +1 and -1;
their convex hull contains 0, so the min-norm point is (near) zero and the
algorithm correctly treats the kink as (approximately) stationary instead
of bouncing between the pieces.  Away from the kink all sampled gradients
agree and the direction is the plain negated gradient.

Run:  python3 demos/min_norm_directions.py
"""

import numpy as np

from gradsamp import min_norm_point


def show(label, points):
    res = min_norm_point([np.asarray(p, dtype=float) for p in points])
    print(f"{label}")
    print(f"  bundle      : {[list(map(float, p)) for p in points]}")
    print(f"  min-norm pt : {np.array2string(res.point, precision=6)} "
          f"(|g| = {np.linalg.norm(res.point):.3e})")
    print(f"  weights     : {np.array2string(res.weights, precision=4)}")
    print(f"  certificate : gap = {res.gap:.1e}  "
          "(Wolfe optimality gap, 0 at the exact min-norm point)\n")


def main():
    show("both sides of the |x| kink: hull contains 0",
         [[1.0], [-1.0]])
    show("one side only: plain gradient",
         [[1.0], [1.0], [1.0]])
    show("2-D bundle, closest face between the first two points",
         [[3.0, 4.0], [3.0, -4.0], [5.0, 0.0]])
    show("2-D bundle straddling the origin",
         [[1.0, 0.2], [-0.8, 0.3], [0.1, -1.0]])


if __name__ == "__main__":
    main()
