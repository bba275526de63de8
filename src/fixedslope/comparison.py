"""Side-by-side evaluation of rival semilocal convergence conditions.

Three conditions are compared on the same Hoelder data (l0, alpha, nu, eta):

  * the majorant condition of this package, built on
        g(v) = l0 v^(1+alpha) / (1+alpha) - (1-nu) v + eta ;
  * the Ahues/Argyros fixed-slope condition, built on the steeper
        f(v) = l0 v^(1+alpha) - (1-delta) v + eta ,   delta = nu ,
    which is exactly the majorant condition with l0 inflated by (1+alpha)
    - that reformulation is how f is handled here;
  * the classical centered Kantorovich condition 2 l0 eta <= 1
    (Lipschitz case alpha = 1, nu = 0 only), which there is the majorant
    condition itself.

Whether a condition holds is certify's verdict on its model, read from
one majorant.analyze per side.  The closed form of the condition,

    l0 * eta**alpha <= (1 - nu)**(alpha + 1) * (alpha / (1 + alpha))**alpha

with equality at eta = eta_max (tangency), gives only the eta_max fields
of the report and check_holder_condition, the test for callers outside
the package.  f > g for v > 0, so the f-based condition is strictly
stronger; the admissible eta shrinks by the factor (1+alpha)^(1/alpha),
i.e. by 2 in the Lipschitz case.  The same gap forces nu_star <= r_star
<= r_star_star <= nu_star_star, which the report checks on the computed
roots.
"""

import math
from dataclasses import dataclass

from . import majorant
from .majorant import ROOT_TOL, HoelderOmega, MajorantModel


@dataclass(frozen=True)
class HoelderParams:
    """Center-Hoelder data (l0, alpha, nu) plus the first-step bound eta."""

    l0: float
    alpha: float
    nu: float
    eta: float

    def __post_init__(self):
        self.omega()  # validates l0, alpha and nu >= 0
        if not self.nu < 1.0:  # the closed forms need 1 - nu > 0
            raise ValueError(f"nu must be in [0, 1), got {self.nu}")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")

    def omega(self):
        return HoelderOmega(self.l0, self.alpha, self.nu)

    def model(self, R):
        return MajorantModel(eta=self.eta, R=R, omega=self.omega())


def _holder_rhs(alpha, nu):
    """Right-hand side (1 - nu)^(alpha + 1) (alpha / (1 + alpha))^alpha of the condition."""
    return (1.0 - nu) ** (alpha + 1.0) * (alpha / (1.0 + alpha)) ** alpha


def check_holder_condition(p):
    """Closed-form condition for Hoelder measures (inclusive), for callers outside the package."""
    return p.l0 * p.eta ** p.alpha <= _holder_rhs(p.alpha, p.nu)


def _eta_max(l0, alpha, nu):
    """Largest certifiable first-step bound; inf when l0 = 0 (affine majorant) or on overflow."""
    if l0 == 0.0:
        return math.inf
    try:
        return (_holder_rhs(alpha, nu) / l0) ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def _rival_params(p, delta=None):
    """Rewrite f as the majorant g of a measure with l0 scaled by (1+alpha).

    Raises ValueError naming delta, or l0 when the scaled l0 overflows.
    """
    d = p.nu if delta is None else delta
    if not 0.0 <= d < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {d}")
    l0 = p.l0 * (1.0 + p.alpha)
    if l0 == math.inf:
        raise ValueError(
            f"l0 = {p.l0} is too large: the Ahues/Argyros majorant's "
            f"l0 * (1 + alpha) overflows")
    return HoelderParams(l0, p.alpha, d, p.eta)


def _side(params, R):
    """(holds, roots): certify's verdict on a side's model, and its root analysis.

    A side holds when certify would certify it or refuse it only for R
    (radius_too_small); a Hoelder omega(0) = nu is always below 1.
    """
    roots = majorant.analyze(params.model(R))
    return roots.nu_star is not None or roots.nu_star_needed is not None, roots


@dataclass(frozen=True)
class ConditionReport:
    l0: float
    alpha: float
    nu: float
    delta: float
    eta: float
    R: float
    new_holds: bool
    new_eta_max: float
    ahues_holds: bool
    ahues_eta_max: float
    kantorovich_holds: bool | None  # None: not applicable (needs alpha=1, nu=0)
    nu_star: float | None
    nu_star_star: float | None
    lambda_star: float | None
    r_star: float | None
    r_star_star: float | None
    eta_max_ratio: float | None
    containment_holds: bool | None  # [r*, r**] inside [nu*, nu**]
    order_computed: str | None


def compare_report(p, R, *, delta=None):
    """Evaluate all conditions and radii on one parameter set.

    Each side's verdict and radii come from one majorant.analyze on [0, R];
    the closed forms give only the eta_max fields and the ratio.  Radii that
    do not exist are None, except that a rival root beyond R (rival
    condition holds) and a maximal root beyond R read as R; the containment
    check runs only when all four roots are strictly inside R.
    Raises ValueError for a bad R or delta, even when no condition holds.
    """
    rival = _rival_params(p, delta)
    new_holds, roots = _side(p, R)
    rival_holds, rival_roots = _side(rival, R)
    new_emax = _eta_max(p.l0, p.alpha, p.nu)
    rival_emax = _eta_max(rival.l0, rival.alpha, rival.nu)
    # 2 l0 eta <= 1 is the majorant condition itself at alpha = 1, nu = 0
    kant = new_holds if p.alpha == 1.0 and p.nu == 0.0 else None

    ns, lam = roots.nu_star, roots.lambda_star
    nss = None
    if ns is not None:
        nss = R if roots.nu_star_star is None else roots.nu_star_star
    rs = rss = None
    if rival_holds:
        rs = R if rival_roots.nu_star is None else rival_roots.nu_star
        rss = R if rival_roots.nu_star_star is None else rival_roots.nu_star_star

    # l0 cancels from the ratio of the thresholds, so it comes from its closed
    # form even where both thresholds overflow to inf
    ratio = None
    if new_emax > 0.0 and rival_emax > 0.0:
        try:
            ratio = (1.0 + p.alpha) ** (1.0 / p.alpha) * (
                (1.0 - p.nu) / (1.0 - rival.nu)) ** ((1.0 + p.alpha) / p.alpha)
        except OverflowError:
            ratio = math.inf

    containment = None
    order = None
    if None not in (ns, nss, rs, rss):
        pad = 10.0 * ROOT_TOL * max(1.0, p.eta)
        if max(nss, rss) < R:  # all roots interior, comparison meaningful
            containment = (ns <= rs + pad) and (rss <= nss + pad)
        order = "nu_star <= r_star" if ns <= rs + pad else "r_star < nu_star"

    return ConditionReport(
        l0=p.l0,
        alpha=p.alpha,
        nu=p.nu,
        delta=rival.nu,
        eta=p.eta,
        R=R,
        new_holds=new_holds,
        new_eta_max=new_emax,
        ahues_holds=rival_holds,
        ahues_eta_max=rival_emax,
        kantorovich_holds=kant,
        nu_star=ns,
        nu_star_star=nss,
        lambda_star=lam,
        r_star=rs,
        r_star_star=rss,
        eta_max_ratio=ratio,
        containment_holds=containment,
        order_computed=order,
    )
