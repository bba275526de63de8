"""Rival condition evaluation and the comparison report."""

import math

import numpy as np
import pytest

from fixedslope.certificate import HoelderParams, check_holder_condition
from fixedslope.comparison import (
    ahues_condition,
    ahues_eta_max,
    ahues_f,
    ahues_roots,
    compare_report,
    kantorovich_condition,
)
from fixedslope.errors import ConditionFails


class TestAhuesF:
    def test_values(self):
        p = HoelderParams(1.0, 1.0, 0.0, 0.25)
        assert ahues_f(p, 0.5, delta=0.0) == pytest.approx(0.0, abs=1e-15)
        assert ahues_f(p, 0.0) == 0.25

    def test_gap_identity(self):
        # f(v) - g(v) = l0 v^(1+alpha) alpha / (1+alpha) > 0 for v > 0
        rng = np.random.default_rng(31)
        for _ in range(100):
            l0 = rng.uniform(0.1, 3.0)
            alpha = rng.uniform(0.2, 1.0)
            nu = rng.uniform(0.0, 0.8)
            eta = rng.uniform(0.01, 1.0)
            v = rng.uniform(1e-6, 5.0)
            p = HoelderParams(l0, alpha, nu, eta)
            g_val = l0 * v ** (1.0 + alpha) / (1.0 + alpha) - (1.0 - nu) * v + eta
            gap = ahues_f(p, v) - g_val
            assert gap == pytest.approx(l0 * v ** (1.0 + alpha) * alpha / (1.0 + alpha),
                                        rel=1e-9)
            assert gap > 0.0


class TestAhuesCondition:
    def test_lipschitz_threshold(self):
        holds, emax = ahues_condition(HoelderParams(1.0, 1.0, 0.0, 0.25))
        assert holds and emax == 0.25  # 4 l0 eta <= 1

    def test_point_between_thresholds(self):
        p = HoelderParams(1.0, 1.0, 0.0, 0.3)
        assert not ahues_condition(p)[0]
        assert check_holder_condition(p)  # new condition still holds

    def test_nu_half(self):
        assert ahues_eta_max(1.0, 1.0, 0.5) == pytest.approx(0.0625, abs=1e-15)


class TestAhuesRoots:
    def test_double_root(self):
        # f(v) = v^2 - v + 0.25 = (v - 1/2)^2
        rs, rss = ahues_roots(HoelderParams(1.0, 1.0, 0.0, 0.25), R=10.0, delta=0.0)
        assert rs == pytest.approx(0.5, abs=1e-9)
        assert rss == pytest.approx(0.5, abs=1e-9)

    def test_quadratic_roots(self):
        # f(v) = 0.5 v^2 - v + 0.25: roots 1 -+ sqrt(0.5)
        rs, rss = ahues_roots(HoelderParams(0.5, 1.0, 0.0, 0.25), R=10.0, delta=0.0)
        assert rs == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)
        assert rss == pytest.approx(1.0 + math.sqrt(0.5), abs=1e-12)

    def test_condition_fails(self):
        with pytest.raises(ConditionFails):
            ahues_roots(HoelderParams(1.0, 1.0, 0.0, 0.3), R=10.0)


class TestKantorovich:
    def test_threshold(self):
        assert kantorovich_condition(1.0, 0.5)  # equality
        assert not kantorovich_condition(1.0, 0.51)
        assert kantorovich_condition(0.0, 123.0)


class TestCompareReport:
    def test_all_hold_at_rival_boundary(self):
        rep = compare_report(HoelderParams(1.0, 1.0, 0.0, 0.25), R=10.0)
        assert rep.new_holds and rep.ahues_holds and rep.kantorovich_holds
        assert rep.eta_max_ratio == pytest.approx(2.0, abs=1e-12)
        assert rep.containment_holds
        assert rep.order_computed == "nu_star <= r_star"

    def test_gap_point(self):
        rep = compare_report(HoelderParams(1.0, 1.0, 0.0, 0.4), R=10.0)
        assert rep.new_holds
        assert not rep.ahues_holds
        assert rep.kantorovich_holds
        assert rep.r_star is None and rep.r_star_star is None

    def test_ratio_alpha_half(self):
        rep = compare_report(HoelderParams(1.0, 0.5, 0.0, 0.01), R=10.0)
        assert rep.eta_max_ratio == pytest.approx(2.25, abs=1e-12)

    def test_kantorovich_not_applicable(self):
        rep = compare_report(HoelderParams(1.0, 0.5, 0.0, 0.01), R=10.0)
        assert rep.kantorovich_holds is None
        rep2 = compare_report(HoelderParams(1.0, 1.0, 0.2, 0.01), R=10.0)
        assert rep2.kantorovich_holds is None

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_bad_tolerance_rejected_without_bisection(self, tol):
        p = HoelderParams(1.0, 1.0, 0.0, 0.6)  # neither condition holds
        with pytest.raises(ValueError):
            compare_report(p, 10.0, tol)


class TestProperties:
    def test_dominance(self):
        # rival condition implies the new one, never the reverse; and for
        # every alpha there are etas where only the new condition holds.
        rng = np.random.default_rng(32)
        for _ in range(300):
            p = HoelderParams(
                l0=rng.uniform(0.05, 5.0),
                alpha=rng.uniform(0.2, 1.0),
                nu=rng.uniform(0.0, 0.9),
                eta=rng.uniform(0.001, 2.0),
            )
            rival = ahues_condition(p)[0]
            if rival:
                assert check_holder_condition(p)
        for alpha in np.linspace(0.2, 1.0, 9):
            new_emax = compare_report(
                HoelderParams(1.0, float(alpha), 0.0, 0.001), R=10.0).new_eta_max
            rival_emax = ahues_eta_max(1.0, float(alpha), 0.0)
            eta_mid = 0.5 * (rival_emax + new_emax)
            p_mid = HoelderParams(1.0, float(alpha), 0.0, eta_mid)
            assert check_holder_condition(p_mid) and not ahues_condition(p_mid)[0]

    def test_ratio_law(self):
        for alpha in [0.25, 0.5, 0.75, 1.0]:
            for nu in [0.0, 0.3, 0.6, 0.9]:
                for l0 in [0.1, 1.0, 10.0]:
                    rep = compare_report(HoelderParams(l0, alpha, nu, 1e-6), R=10.0)
                    assert rep.eta_max_ratio == pytest.approx(
                        (1.0 + alpha) ** (1.0 / alpha), abs=1e-12)

    def test_root_containment(self):
        rng = np.random.default_rng(33)
        done = 0
        while done < 60:
            alpha = rng.uniform(0.25, 1.0)
            nu = rng.uniform(0.0, 0.7)
            l0 = rng.uniform(0.1, 3.0)
            eta = ahues_eta_max(l0, alpha, nu) * rng.uniform(0.1, 0.95)
            p = HoelderParams(l0, alpha, nu, eta)
            rep = compare_report(p, R=1e4)
            if None in (rep.nu_star, rep.nu_star_star, rep.r_star, rep.r_star_star):
                continue
            pad = 1e-9
            assert rep.nu_star <= rep.r_star + pad
            assert rep.r_star <= rep.r_star_star + pad
            assert rep.r_star_star <= rep.nu_star_star + pad
            assert rep.containment_holds
            done += 1

    def test_kantorovich_coincidence_at_nu_zero(self):
        # at alpha = 1, nu = 0 the new condition is exactly 2 l0 eta <= 1
        for eta in np.linspace(0.01, 1.2, 241):
            p = HoelderParams(1.0, 1.0, 0.0, float(eta))
            assert check_holder_condition(p) == kantorovich_condition(1.0, float(eta))
