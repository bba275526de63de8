"""Reference answers computed without the package under test.

Everything here is re-derived from the mathematics in numpy and plain
Python: the scalar majorant of a Hoelder or tabulated measure, its roots,
the closed-form thresholds, and the solutions of the bundled equations.
The benchmark compares the package's outputs with these values after
timing has stopped.
"""

import math

import numpy as np

# Relative tolerance on radii that the package computes by bisection to
# machine width; generous enough for the different evaluation order here.
RADIUS_RTOL = 1e-8


def vnorm(x, kind):
    x = np.asarray(x, dtype=float)
    if kind == "max":
        return float(np.max(np.abs(x)))
    if kind == "one":
        return float(np.sum(np.abs(x)))
    return float(np.linalg.norm(x))


def close(a, b, rtol=RADIUS_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# --- scalar majorants -------------------------------------------------------

def holder_threshold(l0, alpha, nu):
    """Largest certifiable eta for omega(v) = nu + l0 v^alpha (inf when l0 = 0)."""
    if l0 == 0.0:
        return math.inf
    rhs = (1.0 - nu) ** (alpha + 1.0) * (alpha / (1.0 + alpha)) ** alpha
    return (rhs / l0) ** (1.0 / alpha)


def holder_g(l0, alpha, nu, eta, v):
    return eta - (1.0 - nu) * v + l0 * v ** (1.0 + alpha) / (1.0 + alpha)


def bisect_sign(fun, lo, hi, steps=200):
    """Point where fun changes sign on [lo, hi]; fun(lo) and fun(hi) differ in sign."""
    f_lo = fun(lo) > 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (fun(mid) > 0.0) == f_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def holder_roots(l0, alpha, nu, eta):
    """Both roots of g on the half-line (inf for an absent second root)."""
    if l0 == 0.0:
        return eta / (1.0 - nu), math.inf
    if alpha == 1.0:
        sq = math.sqrt(max((1.0 - nu) ** 2 - 2.0 * l0 * eta, 0.0))
        return ((1.0 - nu) - sq) / l0, ((1.0 - nu) + sq) / l0
    g = lambda v: holder_g(l0, alpha, nu, eta, v)
    gam = ((1.0 - nu) / l0) ** (1.0 / alpha)
    if g(gam) >= 0.0:
        return gam, gam
    hi = 2.0 * gam
    while g(hi) <= 0.0:
        hi *= 2.0
    return bisect_sign(g, 0.0, gam), bisect_sign(g, gam, hi)


class TabulatedG:
    """g(v) = eta + integral_0^v omega - v for a piecewise-linear omega."""

    def __init__(self, radii, values, eta):
        self.r = np.asarray(radii, dtype=float)
        self.w = np.asarray(values, dtype=float)
        self.eta = eta
        seg = 0.5 * (self.w[1:] + self.w[:-1]) * np.diff(self.r)
        self.cum = np.concatenate(([0.0], np.cumsum(seg)))

    def __call__(self, v):
        i = min(int(np.searchsorted(self.r, v, side="right")) - 1, len(self.r) - 2)
        r0, r1, w0, w1 = self.r[i], self.r[i + 1], self.w[i], self.w[i + 1]
        wv = w0 + (w1 - w0) * (v - r0) / (r1 - r0)
        return float(self.eta + self.cum[i] + 0.5 * (w0 + wv) * (v - r0) - v)

    def crossing(self):
        """First radius where omega reaches 1, clipped to the last knot."""
        above = np.nonzero(self.w >= 1.0)[0]
        if len(above) == 0:
            return float(self.r[-1])
        i = int(above[0])
        if i == 0:
            return 0.0
        r0, r1, w0, w1 = self.r[i - 1], self.r[i], self.w[i - 1], self.w[i]
        return float(r0 + (1.0 - w0) * (r1 - r0) / (w1 - w0))


def scan_positive(g, lo, hi, points=32, slack=1e-9):
    """True when g stays above -slack on a uniform scan of [lo, hi]."""
    return all(g(v) > -slack for v in np.linspace(lo, hi, points))


# --- equations --------------------------------------------------------------

def h_equation(c, n):
    """Residual and Jacobian of the midpoint-rule H-equation, built from scratch."""
    mu = (np.arange(n) + 0.5) / n
    a = 0.5 * c * mu[:, None] / (n * (mu[:, None] + mu[None, :]))

    def f(h):
        return h - 1.0 - h * (a @ h)

    def jac(h):
        return np.eye(n) - np.diag(a @ h) - h[:, None] * a

    return f, jac


def newton(f, jac, x0, tol=1e-13, max_steps=50):
    """Newton's method with numpy.linalg.solve; raises if it does not converge."""
    x = np.array(x0, dtype=float)
    for _ in range(max_steps):
        dx = np.linalg.solve(jac(x), -f(x))
        x = x + dx
        if np.max(np.abs(dx)) <= tol * max(1.0, np.max(np.abs(x))):
            return x
    raise ArithmeticError("Newton reference did not converge")


def h_solution(c, n):
    f, jac = h_equation(c, n)
    return newton(f, jac, np.ones(n))
