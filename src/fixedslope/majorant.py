"""Scalar majorant machinery for the fixed slope iteration.

A continuity measure omega(v) bounds how far the iteration map is from a
contraction at distance v from the starting point.  Together with the
first-step bound eta it defines the majorant

    phi(v) = eta + integral_0^v omega(l) dl ,        g(v) = phi(v) - v .

A measure answers three calls: value_and_integral(v), the pair
(omega(v), integral_0^v omega); radius_where_one(), the smallest v with
omega(v) >= 1; and max_radius(), the end of its domain.

omega is non-decreasing, so g is convex: it falls from g(0) = eta > 0
with slope omega(0) - 1 < 0 and turns upward once omega crosses 1.  The
radius of that crossing (clipped to R) is gamma_star, the minimizer of g
on [0, R].  Everything else is a root of g on a bracket whose endpoint
signs are known:

    nu_star       minimal root of g, bracketed by [0, gamma_star]
    nu_star_star  maximal root of g, bracketed by [gamma_star, R]
    lambda_star   radius of the uniqueness ball, with its boundary:
                  BOUNDARY_CLOSED (the paper's case B1) or BOUNDARY_OPEN (B2)

Both roots come from one safeguarded Newton iteration started where g > 0
(at 0 and at R); each is the float beside the root where the computed g
is <= 0.  Each step evaluates the measure once: value_and_integral gives
omega and its integral at one radius, so g and its slope omega - 1 come
from the same knot search or the same power v**alpha.  The root steps,
the bracket end at R and the majorizing sequence read the measure
directly and form g, its slope and phi in place, with the operations of
phi and g; those two are the public one-point forms, and give the one
value g(gamma_star) of each left bracket.

A minimal root exists iff g(gamma_star) <= 0; when that minimum sits on
zero the two roots merge (double root) and the bracket degenerates, so
the root is read off at gamma_star directly.  ROOT_TOL is the one
tangency tolerance: a minimum within ROOT_TOL * max(eta, gamma_star), the
terms g(gamma_star) is computed from, of zero counts as a double root,
which absorbs rounding at eta = eta_max at every scale.  analyze()
computes all three radii in one pass, and its reason is the one verdict
on them: certify builds every certificate and refusal from the analysis,
compare_report reads each side's verdict from reason, and
verify_majorization runs only its minimal-root half, _left_bracket.  It
reads nu = omega(0) once, refuses nu >= 1 with NuNotContractive and
returns nu with the radii: the one nu >= 1 test that decides a
certificate, so every measure accepts a nu of any size.  Without a root
on [0, R], analyze also sizes nu_star_needed, the minimal root past R on
the measure's whole domain.  majorizing_terms() is the one generator of
the majorizing sequence v_{k+1} = phi(v_k).
"""

import bisect
import math
from dataclasses import dataclass, replace

from .errors import NuNotContractive, RadiusOutOfRange

ROOT_TOL = 1e-12

BOUNDARY_CLOSED = "closed"  # case B1
BOUNDARY_OPEN = "open"  # case B2

REASON_CONSTRAINT_A = "constraint_a_fails"
REASON_RADIUS_TOO_SMALL = "radius_too_small"

# Cap on the evaluations of g in each phase of _root: even halving [0, hi]
# onto a root r takes only about log2(hi / r) + 53 steps, below this cap
# across the whole double range.
_ROOT_STEPS = 2200

# Two roots closer than this band (measured on g at its minimum) are merged
# into a double root; relative to eta it realizes the eta == eta_max
# equality tolerance of the certificate.
_MERGE_BAND_REL = 1e-9


@dataclass(frozen=True)
class HoelderOmega:
    """omega(v) = nu + l0 * v**alpha with l0 >= 0, alpha in (0, 1] and finite nu >= 0."""

    l0: float
    alpha: float
    nu: float = 0.0

    def __post_init__(self):
        if not (self.l0 >= 0.0 and math.isfinite(self.l0)):
            raise ValueError(f"l0 must be finite and >= 0, got {self.l0}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.nu >= 0.0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")

    def value_and_integral(self, v):
        """(omega(v), exact integral of omega over [0, v]) from one power v**alpha.

        The factor v**alpha * v keeps the scale of omega(v) * v near both
        ends of the float range, where v**(1 + alpha) alone overflows or
        underflows.
        """
        top = self.l0 * v ** self.alpha
        return self.nu + top, self.nu * v + top * v / (1.0 + self.alpha)

    def radius_where_one(self):
        """Smallest v with omega(v) >= 1; inf when omega stays below 1 on all floats."""
        if self.nu >= 1.0:
            return 0.0
        if self.l0 == 0.0:
            return math.inf
        try:
            return ((1.0 - self.nu) / self.l0) ** (1.0 / self.alpha)
        except OverflowError:
            return math.inf

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
        object.__setattr__(self, "_last", len(knots) - 2)  # index of the last segment

    def _segment(self, v):
        if v < 0.0 or v > self._radii[-1]:
            raise RadiusOutOfRange(
                f"v={v} outside tabulated domain [0, {self._radii[-1]}]"
            )
        i = bisect.bisect_right(self._radii, v) - 1
        return i if i < self._last else self._last

    def value_and_integral(self, v):
        """(omega(v), exact integral of the interpolant over [0, v]) from one knot search.

        The integral is piecewise quadratic: the knots' trapezoids up to the
        segment of v, plus the trapezoid from its left knot to v.
        """
        i = self._segment(v)
        r0, r1 = self._radii[i], self._radii[i + 1]
        w0, w1 = self._values[i], self._values[i + 1]
        w = w0 + (w1 - w0) * (v - r0) / (r1 - r0)
        return w, self._cum[i] + 0.5 * (w0 + w) * (v - r0)

    def radius_where_one(self):
        i = bisect.bisect_left(self._values, 1.0, 1)  # the values are non-decreasing
        if i == len(self._values):
            return math.inf
        r0, r1 = self._radii[i - 1], self._radii[i]
        w0, w1 = self._values[i - 1], self._values[i]
        if w0 >= 1.0:
            return r0
        return r0 + (1.0 - w0) * (r1 - r0) / (w1 - w0)

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


def phi(model, v):
    """Majorant phi(v) = eta + integral_0^v omega."""
    if v < 0.0 or v > model.R:
        raise RadiusOutOfRange(f"v={v} outside [0, {model.R}]")
    return model.eta + model.omega.value_and_integral(v)[1]


def g(model, v):
    """g(v) = phi(v) - v; g(0) = eta > 0, convex."""
    return phi(model, v) - v


def _root(model, pos, g_pos, slope_pos, neg):
    """The float at the g <= 0 end of the sign change of g between pos and neg.

    g(pos) = g_pos > 0 >= g(neg), and slope_pos = omega(pos) - 1 comes from
    the same evaluation as g_pos (rtsafe's funcd): each step evaluates the
    measure once, for g and its slope together.  g is convex with slope
    omega - 1, so Newton steps from pos approach the root monotonically
    until rounding stops them; a step that leaves the bracket, has a
    wrong-signed slope or exceeds half the step before last is a bisection
    instead (rtsafe).  The bracket is then widened from there in doubling
    steps and bisected.  Each step forms g = eta + integral - v and its
    slope from the measure's value_and_integral directly; every point lies
    strictly inside the bracket, and so inside [0, R], where g needs no
    range check.
    """
    eta, evaluate = model.eta, model.omega.value_and_integral
    last = before = math.inf  # lengths of the last step and of the one before
    for _ in range(_ROOT_STEPS):
        lo, hi = (pos, neg) if pos < neg else (neg, pos)
        x = pos - g_pos / slope_pos if slope_pos * (neg - pos) < 0.0 else math.nan
        if x == pos:  # the step rounds away: the root is within rounding of pos
            break
        newton = lo < x < hi and abs(x - pos) <= 0.5 * before
        x = x if newton else 0.5 * (lo + hi)
        if not lo < x < hi:
            return neg
        before, last = last, abs(x - pos)
        w, integral = evaluate(x)
        g_x = eta + integral - x
        if g_x > 0.0:
            pos, g_pos, slope_pos = x, g_x, w - 1.0
        else:
            neg = x
            if newton:  # only rounding carries Newton across the root
                break
    else:
        return neg
    # rounding blurs the sign of g over about an ulp of its largest term,
    # max(eta, x) near a root, over its slope: widening starts there
    blur = max(math.ulp(x), math.ulp(max(eta, x)) / abs(slope_pos))
    step = math.copysign(blur, (neg if x == pos else pos) - x)
    for _ in range(_ROOT_STEPS):
        lo, hi = (pos, neg) if pos < neg else (neg, pos)
        widen = lo < x + step < hi
        y = x + step if widen else 0.5 * (lo + hi)
        if not lo < y < hi:
            break
        pos, neg = (y, neg) if eta + evaluate(y)[1] - y > 0.0 else (pos, y)
        if widen:  # go on from y while it replaced x as an end of the bracket
            x, step = (x, math.nan) if x in (pos, neg) else (y, 2.0 * step)
    return neg


@dataclass(frozen=True)
class RootAnalysis:
    """All radii of one majorant model, and its nu = omega(0) < 1.

    gamma_star is where omega reaches 1, clipped to R.  nu_star is None
    when g has no root on [0, R], and then so are the other radii;
    nu_star_star is None when the maximal root lies beyond R;
    uniqueness_boundary is BOUNDARY_CLOSED (the paper's case B1) or
    BOUNDARY_OPEN (case B2).  nu_star_needed is set only without
    nu_star: the root past R, if any.  Each field is a certificate field.
    """

    nu: float
    gamma_star: float
    nu_star: float | None
    nu_star_star: float | None
    lambda_star: float | None
    uniqueness_boundary: str | None
    nu_star_needed: float | None = None

    @property
    def reason(self):
        """None if g has a root on [0, R], radius_too_small past R, else constraint_a_fails."""
        if self.nu_star is not None:
            return None
        return REASON_CONSTRAINT_A if self.nu_star_needed is None else REASON_RADIUS_TOO_SMALL


def _nu(model):
    """omega(0), the contraction defect at x0: one reading, one test against 1."""
    nu = float(model.omega.value_and_integral(0.0)[0])
    if nu >= 1.0:
        raise NuNotContractive(nu)
    return nu


def _left_bracket(model, nu):
    """(gamma_star, stol, g(gamma_star), nu_star): the minimal-root half of the pass."""
    gam = min(model.R, model.omega.radius_where_one())
    stol = ROOT_TOL * max(model.eta, gam)
    g_gam = g(model, gam)
    if g_gam > stol:
        ns = None
    elif g_gam >= -stol:
        ns = gam
    else:
        ns = _root(model, 0.0, model.eta, nu - 1.0, gam)
    return gam, stol, g_gam, ns


def _needed_radius(model, nu):
    """Minimal root of g past R on the measure's whole domain, or None when g has none.

    g is convex with its minimum where omega reaches 1, so one left bracket
    with R moved there finds the root if any exists.  Where omega stays
    below 1 on every float, g falls throughout: R moves instead to the first
    doubling of the affine root eta/(1-nu) at which g <= 0.  That root
    bounds the minimal root from below, since omega >= nu.
    """
    reach = min(model.omega.radius_where_one(), model.omega.max_radius())
    if reach <= model.R:
        return None
    if reach == math.inf:
        reach = model.eta / (1.0 - nu)
        while reach < math.inf and g(replace(model, R=reach), reach) > 0.0:
            reach *= 2.0
        if reach == math.inf:
            return None
    return _left_bracket(replace(model, R=reach), nu)[3]


def analyze(model):
    """RootAnalysis of g from g(gamma_star), g(R) and at most two root iterations.

    The interval past nu_star where g < 0 decides the uniqueness radius:
    if it is empty (g(gamma_star) within the merge band) the radius is
    nu_star with a closed ball; if it runs into R with g(R) < 0 the radius
    is R, still closed since phi(R) < R; otherwise it ends at the maximal
    root, where phi is a fixed point and only the open ball is claimed.
    Without a root on [0, R], one more left bracket past R sizes
    nu_star_needed.
    """
    nu = _nu(model)
    gam, stol, g_gam, ns = _left_bracket(model, nu)
    if ns is None:
        return RootAnalysis(nu, gam, None, None, None, None, _needed_radius(model, nu))
    eta, R = model.eta, model.R
    if abs(g_gam) <= stol:
        nss = ns  # double root
    else:
        w, integral = model.omega.value_and_integral(R)
        g_r = eta + integral - R
        if g_r < -stol:
            nss = None
        elif g_r <= stol:
            nss = R
        else:
            nss = _root(model, R, g_r, w - 1.0, gam)
    band = max(10.0 * stol, _MERGE_BAND_REL * eta)
    if g_gam >= -band:
        lam, boundary = ns, BOUNDARY_CLOSED
    elif nss is None:
        lam, boundary = R, BOUNDARY_CLOSED
    else:
        lam, boundary = nss, BOUNDARY_OPEN
    return RootAnalysis(nu, gam, ns, nss, lam, boundary)


def majorizing_terms(model):
    """Endless majorizing sequence v_0 = 0, v_{k+1} = phi(v_k).

    Each term is kept at least as large as the one before, so rounding
    near the fixed point cannot make the sequence decrease.  phi maps
    [0, nu_star] into itself, so a term at most a few ulps past R is
    rounding at nu_star = R and reads as R; a model without a root still
    climbs out of [0, R] and raises RadiusOutOfRange.
    """
    eta, R, evaluate = model.eta, model.R, model.omega.value_and_integral
    cap = R + 4.0 * math.ulp(R)
    v = 0.0
    while True:
        yield v
        if v > R:  # the terms never fall below v_0 = 0
            raise RadiusOutOfRange(f"v={v} outside [0, {R}]")
        phi_v = eta + evaluate(v)[1]
        v = v if v > phi_v else phi_v  # max(phi_v, v) without the call: a nan phi_v stays
        if R < v <= cap:
            v = R
