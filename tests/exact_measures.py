"""Exact continuity measures of the bundled fixtures at their default parameters.

EXACT[name](v) is the supremum of ||B F'(x) - I|| over the max-norm ball of
radius v around x0, in closed form.  The tests grade the sampled estimator
and the fixtures' analytic Hoelder data against it.
"""

import numpy as np

from fixedslope.problems import build_fixture


def _scalar_quadratic(v, x0=2.0, b=0.25):
    return max(abs(2.0 * b * (x0 - v) - 1.0), abs(2.0 * b * (x0 + v) - 1.0))


def _scalar_holder(v, a=0.0, alpha=0.5, x0=1.0, b=1.0):
    # |x-a| sweeps [max(0, d-v), d+v] and |b t^alpha - 1| peaks at an endpoint
    d = abs(x0 - a)
    lo, hi = max(0.0, d - v), d + v
    return max(abs(b * lo ** alpha - 1.0), abs(b * hi ** alpha - 1.0))


# poly2d has F'(x0 + h) - F'(x0) = 2 diag(h) and B = F'(x0)^{-1}, so the
# measure is v times sup ||2 B diag(h)|| over unit h: twice the max row sum of |B|.
_POLY2D_L0 = 2.0 * float(np.max(np.sum(np.abs(build_fixture("poly2d").problem.slope), axis=1)))

EXACT = {
    "scalar_quadratic": _scalar_quadratic,
    "scalar_holder": _scalar_holder,
    "poly2d": lambda v: _POLY2D_L0 * v,
    "linear": lambda v: 0.0,
}
