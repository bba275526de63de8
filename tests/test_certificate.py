"""Certification workflow and the Hoelder closed forms."""

import math
from functools import partial

import numpy as np
import pytest

from fixedslope.certificate import (
    BOUNDARY_CLOSED,
    BOUNDARY_OPEN,
    REASON_CONSTRAINT_A,
    REASON_NU_TOO_LARGE,
    REASON_RADIUS_TOO_SMALL,
    certify,
)
from fixedslope.comparison import HoelderParams, _eta_max, check_holder_condition
from fixedslope.majorant import HoelderOmega, MajorantModel, TabulatedOmega, g

SQRT2 = math.sqrt(2.0)


def holder_g(p, v):
    """The Hoelder majorant g in closed form, written apart from majorant.g."""
    return p.eta - (1.0 - p.nu) * v + p.l0 * v ** (1.0 + p.alpha) / (1.0 + p.alpha)


def bisect_sign_change(fun, lo, hi):
    """The point in [lo, hi] where fun changes sign, to the last float."""
    lo_positive = fun(lo) > 0.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (fun(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def holder_roots(p, R):
    """(nu_star, nu_star_star) clipped to R, for a p that meets the condition.

    A reference independent of majorant.analyze: at alpha = 1 the quadratic
    formula in its cancellation-free form; below that a dense scan of the
    closed-form g brackets each sign change, which is then bisected.
    """
    assert check_holder_condition(p)
    c = 1.0 - p.nu
    if p.l0 == 0.0:
        return min(p.eta / c, R), R
    if p.alpha == 1.0:
        sq = math.sqrt(max(c * c - 2.0 * p.l0 * p.eta, 0.0))
        return min(2.0 * p.eta / (c + sq), R), min((c + sq) / p.l0, R)
    r_bar = (c / p.l0) ** (1.0 / p.alpha)
    # past (1 + alpha)^(1/alpha) r_bar < e r_bar the v^(1+alpha) term wins: g > 0
    v = np.union1d(np.linspace(0.0, 3.0 * r_bar, 30001), [r_bar])
    positive = holder_g(p, v) > 0.0
    flips = np.flatnonzero(positive[:-1] != positive[1:])
    ns = bisect_sign_change(partial(holder_g, p), v[flips[0]], v[flips[0] + 1])
    nss = bisect_sign_change(partial(holder_g, p), v[flips[-1]], v[flips[-1] + 1])
    return min(ns, R), min(nss, R)


def model(eta=0.5, l0=0.5, alpha=1.0, nu=0.0, R=10.0):
    return MajorantModel(eta=eta, R=R, omega=HoelderOmega(l0, alpha, nu))


class TestCertify:
    def test_quadratic_open_ball(self):
        cert = certify(model())
        assert cert.certified
        assert cert.nu_star == pytest.approx(2.0 - SQRT2, abs=1e-10)
        assert cert.lambda_star == pytest.approx(2.0 + SQRT2, abs=1e-10)
        assert cert.uniqueness_boundary == BOUNDARY_OPEN
        assert len(cert.scalar_sequence) == 16
        assert cert.scalar_sequence[0] == 0.0
        assert cert.scalar_sequence[1] == 0.5

    def test_tangency_closed_ball(self):
        cert = certify(model(l0=1.0))  # eta = eta_max = 0.5
        assert cert.certified
        assert cert.nu_star == pytest.approx(1.0, abs=1e-9)
        assert cert.lambda_star == pytest.approx(1.0, abs=1e-9)
        assert cert.nu_star_star == pytest.approx(1.0, abs=1e-9)
        assert cert.uniqueness_boundary == BOUNDARY_CLOSED

    def test_condition_violated(self):
        cert = certify(model(eta=1.0, l0=1.0))  # 2 l0 eta = 2 > 1
        assert not cert.certified
        assert cert.reason == REASON_CONSTRAINT_A
        assert cert.nu_star is None

    def test_radius_too_small(self):
        cert = certify(model(R=0.3))  # nu_star would be 2 - sqrt(2) > 0.3
        assert not cert.certified
        assert cert.reason == REASON_RADIUS_TOO_SMALL
        assert cert.nu_star_needed == pytest.approx(2.0 - SQRT2, abs=1e-10)

    def test_radius_too_small_without_cancellation(self):
        # g = 1e-9 v^2 / 2 - v + 1: the root 2 / (1 + sqrt(1 - 2e-9)) loses
        # 8e-8 of its value to cancellation in the textbook formula
        cert = certify(HoelderParams(1e-9, 1.0, 0.0, 1.0).model(0.5))
        assert cert.reason == REASON_RADIUS_TOO_SMALL
        exact = 2.0 / (1.0 + math.sqrt(1.0 - 2e-9))
        assert abs(cert.nu_star_needed - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("l0, alpha", [(1e-200, 1.0), (1e-90, 0.3), (1e-300, 0.3), (0.0, 1.0)])
    def test_radius_too_small_far_below_the_turn(self, l0, alpha):
        # omega reaches 1 at 1e200 or 1e300, past every float, or never: the
        # root of g = 1 - v + l0 v^(1+alpha) / (1+alpha) still reads as 1
        cert = certify(HoelderParams(l0, alpha, 0.0, 1.0).model(0.5))
        assert cert.reason == REASON_RADIUS_TOO_SMALL
        assert cert.nu_star_needed == 1.0

    @pytest.mark.parametrize("l0, alpha", [(1e-300, 0.3), (0.02, 0.005), (0.0, 1.0)])
    def test_needed_radius_certifies(self, l0, alpha):
        # omega reaches 1 past every float; at (0.02, 0.005) the v^(1+alpha)
        # term still moves the root of g off the affine root 1
        p = HoelderParams(l0, alpha, 0.0, 1.0)
        cert = certify(p.model(0.5))
        assert cert.reason == REASON_RADIUS_TOO_SMALL
        exact = bisect_sign_change(partial(holder_g, p), 0.5, 4.0)
        assert abs(cert.nu_star_needed - exact) <= 1e-15 * exact
        again = certify(p.model(cert.nu_star_needed))
        assert again.certified and again.nu_star == cert.nu_star_needed

    def test_no_float_radius_certifies(self):
        # the affine root 2e308 is past every float, so no R can certify
        cert = certify(HoelderParams(0.0, 1.0, 0.5, 1e308).model(1.0))
        assert cert.reason == REASON_CONSTRAINT_A
        assert cert.nu_star_needed is None

    def test_radius_too_small_tabulated(self):
        # omega = v / 5 up to radius 10: g = v^2 / 10 - v + 1/2, root 5 - sqrt(20)
        om = TabulatedOmega(((0.0, 0.0), (10.0, 2.0)))
        cert = certify(MajorantModel(eta=0.5, R=0.3, omega=om))
        assert cert.reason == REASON_RADIUS_TOO_SMALL
        assert cert.nu_star_needed == pytest.approx(5.0 - math.sqrt(20.0), abs=1e-12)
        below_one = TabulatedOmega(((0.0, 0.0), (1.0, 0.5)))
        cert = certify(MajorantModel(eta=0.9, R=0.5, omega=below_one))
        assert cert.reason == REASON_CONSTRAINT_A  # no root on the tabulated domain

    def test_nu_too_large_tabulated(self):
        om = TabulatedOmega(((0.0, 1.2), (1.0, 1.3)))
        cert = certify(MajorantModel(eta=0.5, R=1.0, omega=om))
        assert not cert.certified
        assert cert.reason == REASON_NU_TOO_LARGE
        assert cert.nu == 1.2

    def test_maximal_root_beyond_radius_closed(self):
        cert = certify(model(R=3.0))
        assert cert.certified
        assert cert.nu_star_star is None  # beyond R
        assert cert.lambda_star == 3.0
        assert cert.uniqueness_boundary == BOUNDARY_CLOSED


class TestHolderForms:
    def test_eta_max_values(self):
        assert _eta_max(1.0, 1.0, 0.0) == 0.5  # 2 l0 eta <= 1
        assert _eta_max(1.0, 1.0, 0.5) == pytest.approx(0.125, abs=1e-15)
        assert _eta_max(0.0, 1.0, 0.0) == math.inf

    def test_overflow_reads_as_unbounded(self):
        # (rhs / 1e-300)^(1/0.3) exceeds every float
        assert _eta_max(1e-300, 0.3, 0.0) == math.inf
        cert = certify(HoelderParams(1e-300, 0.3, 0.0, 1.0).model(10.0))
        assert cert.certified and cert.nu_star == 1.0

    @pytest.mark.parametrize("l0, alpha, nu", [
        (-1.0, 1.0, 0.0), (math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0),
        (1.0, 0.0, 0.0), (1.0, 1.5, 0.0), (1.0, 1.0, math.inf), (1.0, 1.0, -0.1),
    ])
    def test_one_validation_of_hoelder_data(self, l0, alpha, nu):
        for build in (HoelderOmega, lambda *a: HoelderParams(*a, 0.5)):
            with pytest.raises(ValueError):
                build(l0, alpha, nu)

    def test_hoelder_params_need_nu_below_one(self):
        # the measure takes nu = 1 and certify refuses it; the closed forms need 1 - nu > 0
        assert certify(MajorantModel(0.5, 10.0, HoelderOmega(1.0, 1.0, 1.0))).reason == (
            REASON_NU_TOO_LARGE)
        with pytest.raises(ValueError, match=r"^nu must be in \[0, 1\), got 1\.0$"):
            HoelderParams(1.0, 1.0, 1.0, 0.5)

    def test_check_condition(self):
        assert check_holder_condition(HoelderParams(1.0, 1.0, 0.0, 0.5))  # equality
        assert not check_holder_condition(HoelderParams(1.0, 1.0, 0.0, 0.5001))
        # sqrt(0.11) = 0.3317 <= (1/3)^0.5 = 0.5774
        assert check_holder_condition(HoelderParams(1.0, 0.5, 0.0, 0.11))

    def test_holder_roots_quadratic(self):
        ns, nss = holder_roots(HoelderParams(0.5, 1.0, 0.0, 0.5), R=10.0)
        assert ns == pytest.approx(2.0 - SQRT2, abs=1e-12)
        assert nss == pytest.approx(2.0 + SQRT2, abs=1e-12)

    def test_holder_roots_tangency(self):
        ns, nss = holder_roots(HoelderParams(1.0, 1.0, 0.0, 0.5), R=10.0)
        assert ns == pytest.approx(1.0, abs=1e-12)
        assert nss == pytest.approx(1.0, abs=1e-12)

    def test_holder_roots_bisection_branch(self):
        p = HoelderParams(1.0, 0.5, 0.0, 0.1)
        ns, nss = holder_roots(p, R=10.0)
        m = p.model(10.0)
        assert abs(g(m, ns)) <= 1e-12
        assert ns <= 1.0  # r_bar = ((1-nu)/l0)^(1/alpha) = 1
        assert abs(g(m, nss)) <= 1e-11
        # independent oracle: dense scan of the closed form for sign changes
        v = np.linspace(0.0, 10.0, 1000001)
        vals = 0.1 + v ** 1.5 / 1.5 - v
        sign_flip = np.flatnonzero(np.diff(np.signbit(vals)))
        assert abs(ns - v[sign_flip[0]]) <= 2e-5
        assert abs(nss - v[sign_flip[-1]]) <= 2e-5

    def test_holder_roots_clipped(self):
        ns, nss = holder_roots(HoelderParams(0.5, 1.0, 0.0, 0.5), R=3.0)
        assert ns == pytest.approx(2.0 - SQRT2, abs=1e-12)
        assert nss == 3.0  # true maximal root 2 + sqrt(2) clipped to R


class TestProperties:
    def test_certification_equivalence(self):
        # certified <=> closed-form condition holds and R >= nu_star
        rng = np.random.default_rng(21)
        for _ in range(200):
            alpha = rng.uniform(0.3, 1.0)
            nu = rng.uniform(0.0, 0.8)
            l0 = rng.uniform(0.05, 4.0)
            emax = _eta_max(l0, alpha, nu)
            eta = emax * rng.uniform(0.05, 1.5)
            R = rng.uniform(0.2, 12.0)
            p = HoelderParams(l0, alpha, nu, eta)
            cert = certify(p.model(R))
            expected = check_holder_condition(p)
            if expected:
                expected = holder_roots(p, R=max(R, 1e6))[0] <= R
            assert cert.certified == expected

    def test_boundary_classification(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            alpha = rng.uniform(0.3, 1.0)
            nu = rng.uniform(0.0, 0.8)
            l0 = rng.uniform(0.05, 4.0)
            emax = _eta_max(l0, alpha, nu)
            # away from the tangency band: clear open-ball case
            p = HoelderParams(l0, alpha, nu, emax * rng.uniform(0.1, 0.99))
            big_r = 10.0 * holder_roots(p, R=1e9)[1]
            cert = certify(p.model(big_r))
            assert cert.certified
            assert cert.uniqueness_boundary == BOUNDARY_OPEN
            # at the band: closed ball with merged roots
            pt = HoelderParams(l0, alpha, nu, emax * (1.0 - 1e-10))
            cert_t = certify(pt.model(big_r))
            assert cert_t.certified
            assert cert_t.uniqueness_boundary == BOUNDARY_CLOSED
            assert cert_t.lambda_star == pytest.approx(cert_t.nu_star, rel=1e-6)

    def test_degenerate_measure_limit(self):
        # l0 -> 0: nu_star -> eta / (1 - nu)
        for nu in [0.0, 0.3, 0.6]:
            cert = certify(model(eta=0.4, l0=1e-12, nu=nu, R=10.0))
            assert cert.certified
            assert cert.nu_star == pytest.approx(0.4 / (1.0 - nu), abs=1e-8)

    def test_certified_radius_ordering(self):
        # certified => nu_star <= gamma_star <= R and nu_star <= lambda_star <= R
        rng = np.random.default_rng(23)
        for _ in range(100):
            alpha = rng.uniform(0.3, 1.0)
            nu = rng.uniform(0.0, 0.8)
            l0 = rng.uniform(0.05, 4.0)
            eta = _eta_max(l0, alpha, nu) * rng.uniform(0.05, 0.99)
            cert = certify(HoelderParams(l0, alpha, nu, eta).model(rng.uniform(0.5, 12.0)))
            if not cert.certified:
                continue
            assert cert.nu_star <= cert.gamma_star + 1e-12 <= cert.R + 1e-12
            assert cert.nu_star <= cert.lambda_star + 1e-12
            assert cert.lambda_star <= cert.R + 1e-12

    def test_monotonicity_in_eta(self):
        etas = np.linspace(0.05, 0.49, 20)
        prev_ns, prev_lam = -1.0, math.inf
        for eta in etas:
            cert = certify(model(eta=float(eta), l0=1.0))
            assert cert.certified
            assert cert.nu_star >= prev_ns - 1e-12
            assert cert.lambda_star <= prev_lam + 1e-12
            prev_ns, prev_lam = cert.nu_star, cert.lambda_star


class TestRadiiAtEveryScale:
    def test_nu_star_on_the_safe_side_of_its_root(self):
        # the theorem needs phi(nu_star) <= nu_star, so the computed g must be
        # <= 0 at each radius taken from a root iteration
        rng = np.random.default_rng(41)
        certified = 0
        for _ in range(2000):
            alpha, l0, nu = rng.uniform(0.3, 0.99), rng.uniform(0.1, 10.0), rng.uniform(0.0, 0.6)
            eta = _eta_max(l0, alpha, nu) * rng.uniform(0.1, 0.95)
            p = HoelderParams(l0, alpha, nu, eta)
            m = p.model(10.0 * ((1.0 - nu) / l0) ** (1.0 / alpha))
            cert = certify(m)
            if cert.certified:
                certified += 1
                assert g(m, cert.nu_star) <= 0.0
                assert cert.nu_star_star is None or g(m, cert.nu_star_star) <= 0.0
        assert certified == 2000

    @pytest.mark.parametrize("l0, alpha, nu, eta, R, root", [
        (1e-300, 0.3, 0.0, 1e-300, 1e-301, 1e-300),
        (1.0, 1.0, 0.6, 1e-27, 2e-27, 2.5e-27),
    ])
    def test_tangency_band_scales_with_the_model(self, l0, alpha, nu, eta, R, root):
        # g(R) > 0 is far below 1e-12 but not below the terms of g: the root
        # lies past R, and a double-root reading would certify R itself
        cert = certify(HoelderParams(l0, alpha, nu, eta).model(R))
        assert cert.reason == REASON_RADIUS_TOO_SMALL
        assert cert.nu_star_needed == pytest.approx(root, rel=1e-12, abs=0.0)

    def test_tiny_models_certify_their_root(self):
        # the root 1e-27 lies inside R; a band of 1e-12 read g(R) = -1e-27 as
        # a double root at R and certified nu_star = R
        cert = certify(HoelderParams(1.0, 1.0, 0.0, 1e-27).model(2e-27))
        assert cert.certified and cert.nu_star == pytest.approx(1e-27, rel=1e-12, abs=0.0)
        assert (cert.lambda_star, cert.uniqueness_boundary) == (2e-27, BOUNDARY_CLOSED)

    def test_no_random_valid_model_raises(self):
        rng = np.random.default_rng(42)
        for _ in range(20000):
            alpha, nu = rng.uniform(0.01, 1.0), rng.uniform(0.0, 0.99)
            l0, eta = 10.0 ** rng.uniform(-30.0, 30.0), 10.0 ** rng.uniform(-30.0, 30.0)
            certify(HoelderParams(l0, alpha, nu, eta).model(eta * 10.0 ** rng.uniform(-3.0, 3.0)))
