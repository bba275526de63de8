"""Certification workflow and the Hoelder closed forms."""

import math

import numpy as np
import pytest

from fixedslope.certificate import (
    BOUNDARY_CLOSED,
    BOUNDARY_OPEN,
    REASON_CONSTRAINT_A,
    REASON_NU_TOO_LARGE,
    REASON_RADIUS_TOO_SMALL,
    HoelderParams,
    _holder_roots_unclipped,
    certify,
    check_holder_condition,
    holder_eta_max,
)
from fixedslope.majorant import HoelderOmega, MajorantModel, TabulatedOmega, g

SQRT2 = math.sqrt(2.0)


def holder_roots(p, R):
    """(nu_star, nu_star_star) clipped to R, for a p that meets the condition."""
    assert check_holder_condition(p)
    ns, nss = _holder_roots_unclipped(p)
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
        assert len(cert.scalar_sequence_preview) == 16
        assert cert.scalar_sequence_preview[0] == 0.0
        assert cert.scalar_sequence_preview[1] == 0.5

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
        assert holder_eta_max(1.0, 1.0, 0.0) == 0.5  # 2 l0 eta <= 1
        assert holder_eta_max(1.0, 1.0, 0.5) == pytest.approx(0.125, abs=1e-15)
        assert holder_eta_max(0.0, 1.0, 0.0) == math.inf

    @pytest.mark.parametrize("l0, alpha, nu", [
        (-1.0, 1.0, 0.0), (math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0),
        (1.0, 0.0, 0.0), (1.0, 1.5, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, -0.1),
    ])
    def test_one_validation_of_hoelder_data(self, l0, alpha, nu):
        for build in (HoelderOmega, holder_eta_max, lambda *a: HoelderParams(*a, 0.5)):
            with pytest.raises(ValueError):
                build(l0, alpha, nu)

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
            emax = holder_eta_max(l0, alpha, nu)
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
            emax = holder_eta_max(l0, alpha, nu)
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
            eta = holder_eta_max(l0, alpha, nu) * rng.uniform(0.05, 0.99)
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
