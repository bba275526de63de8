"""Scalar majorant machinery for the fixed slope iteration.

A continuity measure omega(v) bounds how far the iteration map is from a
contraction at distance v from the starting point.  Together with the
first-step bound eta it defines the majorant

    phi(v) = eta + integral_0^v omega(l) dl ,        g(v) = phi(v) - v .

omega is non-decreasing, so g is convex: it falls from g(0) = eta > 0
with slope omega(0) - 1 < 0 and turns upward once omega crosses 1.  The
radius of that crossing (clipped to R) is gamma_star, the minimizer of g
on [0, R].  Everything else reduces to sign bisection on brackets whose
endpoint signs are known:

    nu_star       minimal root of g, bracketed by [0, gamma_star]
    nu_star_star  maximal root of g, bracketed by [gamma_star, R]
    lambda_star   radius of the uniqueness ball, with its boundary case
                  ("B1" closed ball, "B2" open ball)

A minimal root exists iff g(gamma_star) <= 0; when that minimum sits on
zero the two roots merge (double root) and the bisection bracket
degenerates, so the root is read off at gamma_star directly.  ROOT_TOL is
the one tangency tolerance: a minimum within ROOT_TOL * max(1, eta) of
zero counts as a double root, which absorbs rounding at eta = eta_max;
bisection still runs to full floating-point precision.  analyze()
computes all three radii in one pass; majorizing_terms() is the one
generator of the majorizing sequence v_{k+1} = phi(v_k).
"""

import bisect
import math
from dataclasses import dataclass

from .errors import NotCertifiedError, NuNotContractive, RadiusOutOfRange

ROOT_TOL = 1e-12

# Maximal bisection steps; brackets collapse to machine width long before.
_BISECT_STEPS = 200

# Two roots closer than this band (measured on g at its minimum) are merged
# into a double root; relative to eta it realizes the eta == eta_max
# equality tolerance of the certificate.
_MERGE_BAND_REL = 1e-9


@dataclass(frozen=True)
class HoelderOmega:
    """omega(v) = nu + l0 * v**alpha with l0 >= 0, alpha in (0, 1], nu in [0, 1)."""

    l0: float
    alpha: float
    nu: float = 0.0

    def __post_init__(self):
        if not (self.l0 >= 0.0 and math.isfinite(self.l0)):
            raise ValueError(f"l0 must be finite and >= 0, got {self.l0}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 <= self.nu < 1.0):
            raise ValueError(f"nu must be in [0, 1), got {self.nu}")

    def value(self, v):
        return self.nu + self.l0 * v ** self.alpha

    def integral(self, v):
        """Exact integral of omega over [0, v]."""
        return self.nu * v + self.l0 * v ** (1.0 + self.alpha) / (1.0 + self.alpha)

    def radius_where_one(self):
        """Smallest v with omega(v) = 1; inf when omega stays below 1."""
        if self.l0 == 0.0:
            return math.inf
        return ((1.0 - self.nu) / self.l0) ** (1.0 / self.alpha)

    def max_radius(self):
        return math.inf


@dataclass(frozen=True)
class TabulatedOmega:
    """Piecewise-linear measure through (radius, value) knots.

    At least two knots, the first at radius 0; radii increase strictly and
    values are non-negative and non-decreasing, which keeps the
    interpolant a valid (monotone) continuity measure.  Evaluation past
    the last knot is refused rather than extrapolated.
    """

    knots: tuple

    def __post_init__(self):
        knots = tuple((float(r), float(w)) for r, w in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2:
            raise ValueError("at least two knots required")
        radii = [r for r, _ in knots]
        values = [w for _, w in knots]
        if radii[0] != 0.0:
            raise ValueError("first knot must be at radius 0")
        if not all(a < b < math.inf for a, b in zip(radii, radii[1:])):
            raise ValueError("knot radii must be finite and increase strictly")
        if any(w < 0.0 or not math.isfinite(w) for w in values):
            raise ValueError("knot values must be finite and >= 0")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("knot values must be non-decreasing")
        cum = [0.0]
        for (r0, w0), (r1, w1) in zip(knots, knots[1:]):
            cum.append(cum[-1] + 0.5 * (w0 + w1) * (r1 - r0))
        object.__setattr__(self, "_radii", radii)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_cum", cum)

    def _segment(self, v):
        if v < 0.0 or v > self._radii[-1]:
            raise RadiusOutOfRange(
                f"v={v} outside tabulated domain [0, {self._radii[-1]}]"
            )
        i = bisect.bisect_right(self._radii, v) - 1
        return min(i, len(self._radii) - 2)

    def value(self, v):
        i = self._segment(v)
        r0, r1 = self._radii[i], self._radii[i + 1]
        w0, w1 = self._values[i], self._values[i + 1]
        return w0 + (w1 - w0) * (v - r0) / (r1 - r0)

    def integral(self, v):
        """Exact integral of the interpolant over [0, v] (piecewise quadratic)."""
        i = self._segment(v)
        w0 = self._values[i]
        return self._cum[i] + 0.5 * (w0 + self.value(v)) * (v - self._radii[i])

    def radius_where_one(self):
        for i in range(1, len(self._radii)):
            if self._values[i] >= 1.0:
                r0, r1 = self._radii[i - 1], self._radii[i]
                w0, w1 = self._values[i - 1], self._values[i]
                if w0 >= 1.0:
                    return r0
                return r0 + (1.0 - w0) * (r1 - r0) / (w1 - w0)
        return math.inf

    def max_radius(self):
        return self._radii[-1]


@dataclass(frozen=True)
class MajorantModel:
    """Bundle (eta, R, omega): first-step bound, trust radius, continuity measure.

    eta = 0 is rejected: a zero first step means the starting point already
    solves the problem and there is nothing to certify.
    """

    eta: float
    R: float
    omega: object

    def __post_init__(self):
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValueError(f"R must be finite and > 0, got {self.R}")
        if self.omega.max_radius() < self.R:
            raise ValueError(
                f"measure tabulated only up to {self.omega.max_radius()}, "
                f"cannot cover radius R={self.R}"
            )


def _check_range(model, v):
    if v < 0.0 or v > model.R:
        raise RadiusOutOfRange(f"v={v} outside [0, {model.R}]")


def phi(model, v):
    """Majorant phi(v) = eta + integral_0^v omega."""
    _check_range(model, v)
    return model.eta + model.omega.integral(v)


def g(model, v):
    """g(v) = phi(v) - v; g(0) = eta > 0, convex."""
    return phi(model, v) - v


def nu_of(model):
    """omega(0), the contraction defect at the starting point."""
    return float(model.omega.value(0.0))


def gamma_star(model):
    """Largest radius in (0, R] on which omega stays below 1."""
    if nu_of(model) >= 1.0:
        raise NuNotContractive(
            f"omega(0) = {nu_of(model)} >= 1: the map is not a contraction at x0"
        )
    return min(model.R, model.omega.radius_where_one())


def _bisect_boundary(fun, lo, hi, lo_positive):
    """Shrink [lo, hi] onto the boundary between {fun > 0} and {fun <= 0}.

    The caller guarantees the endpoint signs: fun(lo) > 0 iff lo_positive,
    and the opposite at hi.  Runs until the bracket collapses in floating
    point (at most _BISECT_STEPS halvings).
    """
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= min(lo, hi) or mid >= max(lo, hi):
            break
        if (fun(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RootAnalysis:
    """All radii of one majorant model.

    nu_star is None when g has no root, and then so are the others;
    nu_star_star is None when the maximal root lies beyond R; case is
    "B1" (closed uniqueness ball) or "B2" (open ball).
    """

    gamma_star: float
    nu_star: float | None
    nu_star_star: float | None
    lambda_star: float | None
    case: str | None

    def require_root(self, purpose):
        """This analysis, or NotCertifiedError when g has no root."""
        if self.nu_star is None:
            raise NotCertifiedError(f"majorant has no root: {purpose}")
        return self


def _left_bracket(model):
    """(gamma_star, stol, g(gamma_star), nu_star): the minimal-root half of the pass."""
    gam = gamma_star(model)
    stol = ROOT_TOL * max(1.0, model.eta)
    g_gam = g(model, gam)
    if g_gam > stol:
        ns = None
    elif g_gam >= -stol:
        ns = gam
    else:
        ns = _bisect_boundary(lambda v: g(model, v), 0.0, gam, lo_positive=True)
    return gam, stol, g_gam, ns


def minimal_root(model):
    """Minimal root nu_star of g on [0, R], or None when g has no root.

    A minimum g(gamma_star) within ROOT_TOL*max(1, eta) of zero is a
    double root and is returned as gamma_star itself (bisection cannot
    resolve it better).
    """
    return _left_bracket(model)[3]


def analyze(model):
    """RootAnalysis of g from one g(gamma_star) and at most two bisections.

    The interval past nu_star where g < 0 decides the uniqueness radius:
    if it is empty (g(gamma_star) within the merge band) the radius is
    nu_star with a closed ball; if it runs into R with g(R) < 0 the radius
    is R, still closed since phi(R) < R; otherwise it ends at the maximal
    root, where phi is a fixed point and only the open ball is claimed.
    """
    gam, stol, g_gam, ns = _left_bracket(model)
    if ns is None:
        return RootAnalysis(gam, None, None, None, None)
    if abs(g_gam) <= stol:
        nss = ns  # double root
    else:
        g_r = g(model, model.R)
        if g_r < -stol:
            nss = None
        elif g_r <= stol:
            nss = model.R
        else:
            nss = _bisect_boundary(lambda v: g(model, v), gam, model.R, lo_positive=False)
    band = max(10.0 * ROOT_TOL * max(1.0, model.eta), _MERGE_BAND_REL * model.eta)
    if g_gam >= -band:
        lam, case = ns, "B1"
    elif nss is None:
        lam, case = model.R, "B1"
    else:
        lam, case = nss, "B2"
    return RootAnalysis(gam, ns, nss, lam, case)


def majorizing_terms(model):
    """Endless majorizing sequence v_0 = 0, v_{k+1} = phi(v_k).

    Each term is kept at least as large as the one before, so rounding
    near the fixed point cannot make the sequence decrease.
    """
    v = 0.0
    while True:
        yield v
        v = max(phi(model, v), v)
