"""Existence/uniqueness certificates for the fixed slope iteration.

certify() validates the hypotheses on a majorant model and, when they
hold, packages the radii that the iteration theory guarantees a priori:

    nu_star        iterates stay in the closed ball of this radius and
                   converge to a solution inside it
    lambda_star    the solution is unique in the ball of this radius;
                   whether the ball is closed or open is part of the claim
    gamma_star     radius on which the majorant slope stays below 1

Every radius comes from majorant.analyze, and the nu_star_needed of a
radius_too_small refusal from its minimal-root half, majorant.minimal_root;
no closed form decides a certificate.  For a
Hoelder measure omega(v) = nu + l0 v^alpha the certification condition
has the closed form

    l0 * eta**alpha <= (1 - nu)**(alpha + 1) * (alpha / (1 + alpha))**alpha

with equality at eta = eta_max, the double-root (tangency) case.  At
alpha = 1, nu = 0 this is the centered Kantorovich condition 2*l0*eta <= 1.
check_holder_condition and holder_eta_max state it for the comparison
report.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

from . import majorant
from .majorant import HoelderOmega, MajorantModel

PREVIEW_TERMS = 16

STATUS_CERTIFIED = "certified"
STATUS_NOT_CERTIFIED = "not_certified"

REASON_NU_TOO_LARGE = "nu_too_large"
REASON_CONSTRAINT_A = "constraint_a_fails"
REASON_RADIUS_TOO_SMALL = "radius_too_small"

BOUNDARY_CLOSED = "closed"  # case B1
BOUNDARY_OPEN = "open"  # case B2


@dataclass(frozen=True)
class HoelderParams:
    """Center-Hoelder data (l0, alpha, nu) plus the first-step bound eta."""

    l0: float
    alpha: float
    nu: float
    eta: float

    def __post_init__(self):
        self.omega()  # validates l0, alpha and nu
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")

    def omega(self):
        return HoelderOmega(self.l0, self.alpha, self.nu)

    def model(self, R):
        return MajorantModel(eta=self.eta, R=R, omega=self.omega())


@dataclass(frozen=True)
class ConvergenceCertificate:
    status: str
    reason: str | None
    nu: float
    eta: float
    R: float
    nu_star: float | None
    nu_star_star: float | None  # None = maximal root lies beyond R
    gamma_star: float | None
    lambda_star: float | None
    uniqueness_boundary: str | None
    scalar_sequence_preview: tuple
    # Smallest R that would certify; set when the radius is the only obstacle.
    nu_star_needed: float | None = None
    # The model the certificate was computed from, for checking a run against
    # the full majorizing sequence.  In-memory only, never serialized.
    model: MajorantModel | None = field(default=None, repr=False, compare=False)

    @property
    def certified(self):
        return self.status == STATUS_CERTIFIED


def _holder_rhs(alpha, nu):
    """Right-hand side (1 - nu)^(alpha + 1) (alpha / (1 + alpha))^alpha of the condition."""
    return (1.0 - nu) ** (alpha + 1.0) * (alpha / (1.0 + alpha)) ** alpha


def check_holder_condition(p):
    """Closed-form certification test for Hoelder measures (inclusive)."""
    return p.l0 * p.eta ** p.alpha <= _holder_rhs(p.alpha, p.nu)


def holder_eta_max(l0, alpha, nu):
    """Largest certifiable first-step bound; inf when l0 = 0 (affine majorant) or on overflow."""
    HoelderOmega(l0, alpha, nu)  # validates l0, alpha and nu
    if l0 == 0.0:
        return math.inf
    try:
        return (_holder_rhs(alpha, nu) / l0) ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def _needed_radius(model, nu):
    """Minimal root of g past R on the measure's whole domain, or None when g has none.

    g is convex with its minimum where omega reaches 1, so one minimal_root
    with R moved there finds the root if any exists.  Where omega stays below
    1 on every float, g falls throughout: R moves instead to the first
    doubling of the affine root eta/(1-nu) at which g <= 0.  That root bounds
    the minimal root from below, since omega >= nu.
    """
    reach = min(model.omega.radius_where_one(), model.omega.max_radius())
    if reach <= model.R:
        return None
    if reach == math.inf:
        reach = model.eta / (1.0 - nu)
        while reach < math.inf and majorant.g(replace(model, R=reach), reach) > 0.0:
            reach *= 2.0
        if reach == math.inf:
            return None
    return majorant.minimal_root(replace(model, R=reach))


def not_certified(reason, nu, eta, R, gamma=None, needed=None, model=None):
    """A refusal: the inputs and diagnostics are kept, every radius is None."""
    return ConvergenceCertificate(
        status=STATUS_NOT_CERTIFIED,
        reason=reason,
        nu=nu,
        eta=eta,
        R=R,
        nu_star=None,
        nu_star_star=None,
        gamma_star=gamma,
        lambda_star=None,
        uniqueness_boundary=None,
        scalar_sequence_preview=(),
        nu_star_needed=needed,
        model=model,
    )


def certify(model):
    """Assemble the convergence certificate for a majorant model.

    Outcomes: nu_too_large when omega(0) >= 1; radius_too_small when the
    majorant has a root only beyond R, with nu_star_needed the R that would
    certify; constraint_a_fails when the majorant never dips below the
    identity on the measure's domain; otherwise a certified bundle with the
    radii, boundary type and the first PREVIEW_TERMS majorizing terms.
    """
    nu = majorant.nu_of(model)
    if nu >= 1.0:
        return not_certified(REASON_NU_TOO_LARGE, nu, model.eta, model.R, model=model)
    roots = majorant.analyze(model)
    if roots.nu_star is None:
        needed = _needed_radius(model, nu)
        reason = REASON_CONSTRAINT_A if needed is None else REASON_RADIUS_TOO_SMALL
        return not_certified(reason, nu, model.eta, model.R, roots.gamma_star, needed, model)
    preview = itertools.islice(majorant.majorizing_terms(model), PREVIEW_TERMS)
    return ConvergenceCertificate(
        status=STATUS_CERTIFIED,
        reason=None,
        nu=nu,
        eta=model.eta,
        R=model.R,
        nu_star=roots.nu_star,
        nu_star_star=roots.nu_star_star,
        gamma_star=roots.gamma_star,
        lambda_star=roots.lambda_star,
        uniqueness_boundary=BOUNDARY_CLOSED if roots.case == "B1" else BOUNDARY_OPEN,
        scalar_sequence_preview=tuple(preview),
        model=model,
    )
