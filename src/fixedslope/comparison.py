"""Side-by-side evaluation of rival semilocal convergence conditions.

Three conditions are compared on the same Hoelder data (l0, alpha, nu, eta):

  * the majorant condition of this package, built on
        g(v) = l0 v^(1+alpha) / (1+alpha) - (1-nu) v + eta ;
  * the Ahues/Argyros fixed-slope condition, built on the steeper
        f(v) = l0 v^(1+alpha) - (1-delta) v + eta ,   delta = nu ,
    which is exactly the majorant condition with l0 inflated by (1+alpha)
    - that reformulation is how f is handled here, so the radii of both
    sides come from the same majorant.analyze;
  * the classical centered Kantorovich condition 2 l0 eta <= 1
    (Lipschitz case alpha = 1, nu = 0 only).

f > g for v > 0, so the f-based condition is strictly stronger; the
admissible eta shrinks by the factor (1+alpha)^(1/alpha), i.e. by 2 in
the Lipschitz case.  The same pointwise gap forces the computed root
order nu_star <= r_star <= r_star_star <= nu_star_star; the rival
write-up states r_star < nu_star instead (ORDER_STATED), so the report
gives the computed ordering rather than asserting either.
"""

import math
from dataclasses import dataclass

from . import majorant
from .certificate import HoelderParams, check_holder_condition, holder_eta_max
from .majorant import ROOT_TOL

ORDER_STATED = "r_star < nu_star <= nu_star_star"


def _rival_params(p, delta=None):
    """Rewrite f as the majorant g of a measure with l0 scaled by (1+alpha)."""
    d = p.nu if delta is None else delta
    return HoelderParams(p.l0 * (1.0 + p.alpha), p.alpha, d, p.eta)


def ahues_condition(p, delta=None):
    """(holds, eta_max) for the rival condition
    l0 eta^alpha <= (1-nu)^(alpha+1) [alpha/(1+alpha)]^alpha (1+alpha)^(-1)."""
    q = _rival_params(p, delta)
    return check_holder_condition(q), holder_eta_max(q.l0, q.alpha, q.nu)


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

    Each side's radii come from one majorant.analyze on [0, R].  Radii that
    do not exist are None, except that a rival root beyond R (rival
    condition holds) and a maximal root beyond R read as R; the containment
    check runs only when all four roots are strictly inside R.
    Raises ValueError for a bad R, even when no condition holds.
    """
    model = p.model(R)
    rival = _rival_params(p, delta)
    new_holds = check_holder_condition(p)
    new_emax = holder_eta_max(p.l0, p.alpha, p.nu)
    rival_holds, rival_emax = ahues_condition(p, delta)
    kant = None
    if p.alpha == 1.0 and p.nu == 0.0:
        kant = 2.0 * p.l0 * p.eta <= 1.0  # centered Kantorovich condition

    ns = nss = lam = None
    if new_holds:
        roots = majorant.analyze(model)
        ns, lam = roots.nu_star, roots.lambda_star
        if ns is not None:
            nss = R if roots.nu_star_star is None else roots.nu_star_star
    rs = rss = None
    if rival_holds:
        roots = majorant.analyze(rival.model(R))
        rs = R if roots.nu_star is None else roots.nu_star
        rss = R if roots.nu_star_star is None else roots.nu_star_star

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
