"""Existence/uniqueness certificates for the fixed slope iteration.

certify() validates the hypotheses on a majorant model and, when they
hold, packages the radii that the iteration theory guarantees a priori:

    nu_star        iterates stay in the closed ball of this radius and
                   converge to a solution inside it
    lambda_star    the solution is unique in the ball of this radius;
                   whether the ball is closed or open is part of the claim
    gamma_star     radius on which the majorant slope stays below 1

A certificate or refusal is built from one majorant.analyze: its radii,
nu = omega(0), nu_star_needed and the refusal reason are the analysis's,
and so is the nu_too_large refusal (its NuNotContractive); no closed
form decides a certificate.
"""

import itertools
from dataclasses import dataclass, field

from . import majorant
from .errors import NuNotContractive
from .majorant import BOUNDARY_CLOSED, BOUNDARY_OPEN, MajorantModel  # noqa: F401 (re-exported)
from .majorant import REASON_CONSTRAINT_A, REASON_RADIUS_TOO_SMALL  # noqa: F401 (re-exported)

PREVIEW_TERMS = 16

STATUS_CERTIFIED = "certified"
STATUS_NOT_CERTIFIED = "not_certified"

REASON_NU_TOO_LARGE = "nu_too_large"


@dataclass(frozen=True)
class ConvergenceCertificate:
    """A certificate, or a refusal: the same record with its radii left unset."""

    status: str
    reason: str | None
    nu: float
    eta: float
    R: float
    nu_star: float | None = None
    nu_star_star: float | None = None  # None = maximal root lies beyond R
    gamma_star: float | None = None
    lambda_star: float | None = None
    uniqueness_boundary: str | None = None
    scalar_sequence: tuple = ()
    # Smallest R that would certify; set when the radius is the only obstacle.
    nu_star_needed: float | None = None
    # The model the certificate was computed from, for checking a run against
    # the full majorizing sequence.  In-memory only, never serialized.
    model: MajorantModel | None = field(default=None, repr=False, compare=False)

    @property
    def certified(self):
        return self.status == STATUS_CERTIFIED


def certify(model):
    """Assemble the convergence certificate for a majorant model.

    Outcomes: nu_too_large when omega(0) >= 1; radius_too_small when the
    majorant has a root only beyond R, with nu_star_needed the R that would
    certify; constraint_a_fails when the majorant never dips below the
    identity on the measure's domain; otherwise a certified bundle with the
    radii, boundary type and the first PREVIEW_TERMS majorizing terms.
    """
    try:
        roots = majorant.analyze(model)
    except NuNotContractive as exc:
        return ConvergenceCertificate(STATUS_NOT_CERTIFIED, REASON_NU_TOO_LARGE, exc.nu,
                                      model.eta, model.R, model=model)
    if roots.reason is not None:
        return ConvergenceCertificate(STATUS_NOT_CERTIFIED, roots.reason, eta=model.eta,
                                      R=model.R, model=model, **vars(roots))
    preview = itertools.islice(majorant.majorizing_terms(model), PREVIEW_TERMS)
    return ConvergenceCertificate(STATUS_CERTIFIED, None, eta=model.eta, R=model.R,
                                  scalar_sequence=tuple(preview), model=model, **vars(roots))
