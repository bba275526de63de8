"""Rival condition evaluation and the comparison report."""

import math

import numpy as np
import pytest

from fixedslope.certificate import certify
from fixedslope.comparison import (
    HoelderParams,
    _rival_params,
    check_holder_condition,
    compare_report,
)


def ahues_eta_max(l0, alpha, nu):
    return compare_report(HoelderParams(l0, alpha, nu, 1.0), R=10.0).ahues_eta_max


class TestAhuesCondition:
    def test_lipschitz_threshold(self):
        rep = compare_report(HoelderParams(1.0, 1.0, 0.0, 0.25), R=10.0)
        assert rep.ahues_holds and rep.ahues_eta_max == 0.25  # 4 l0 eta <= 1

    def test_point_between_thresholds(self):
        p = HoelderParams(1.0, 1.0, 0.0, 0.3)
        assert not compare_report(p, R=10.0).ahues_holds
        assert check_holder_condition(p)  # new condition still holds

    def test_nu_half(self):
        assert ahues_eta_max(1.0, 1.0, 0.5) == pytest.approx(0.0625, abs=1e-15)


class TestAhuesRoots:
    def test_double_root(self):
        # f(v) = v^2 - v + 0.25 = (v - 1/2)^2
        rep = compare_report(HoelderParams(1.0, 1.0, 0.0, 0.25), R=10.0, delta=0.0)
        rs, rss = rep.r_star, rep.r_star_star
        assert rs == pytest.approx(0.5, abs=1e-9)
        assert rss == pytest.approx(0.5, abs=1e-9)

    def test_quadratic_roots(self):
        # f(v) = 0.5 v^2 - v + 0.25: roots 1 -+ sqrt(0.5)
        rep = compare_report(HoelderParams(0.5, 1.0, 0.0, 0.25), R=10.0, delta=0.0)
        rs, rss = rep.r_star, rep.r_star_star
        assert rs == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)
        assert rss == pytest.approx(1.0 + math.sqrt(0.5), abs=1e-12)

    def test_roots_clipped_to_radius(self):
        # f(v) = 0.5 v^2 - v + 0.25: the maximal root 1 + sqrt(0.5) lies beyond R
        rep = compare_report(HoelderParams(0.5, 1.0, 0.0, 0.25), R=1.5, delta=0.0)
        assert rep.r_star == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)
        assert rep.r_star_star == 1.5

    def test_small_root_without_cancellation(self):
        # f = 1e-9 v^2 - v + 1: the textbook quadratic formula loses 2.6e-8
        rep = compare_report(HoelderParams(1e-9, 1.0, 0.0, 1.0), R=10.0)
        exact = 2.0 / (1.0 + math.sqrt(1.0 - 4e-9))
        assert abs(rep.r_star - exact) <= 1e-15 * exact

    def test_condition_fails(self):
        rep = compare_report(HoelderParams(1.0, 1.0, 0.0, 0.3), R=10.0)
        assert not rep.ahues_holds
        assert rep.r_star is None and rep.r_star_star is None


class TestKantorovich:
    def test_threshold(self):
        holds = lambda l0, eta: compare_report(HoelderParams(l0, 1.0, 0.0, eta),
                                               R=10.0).kantorovich_holds
        assert holds(1.0, 0.5)  # equality
        assert not holds(1.0, 0.51)
        assert holds(0.0, 123.0)


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

    def test_ratio_when_both_thresholds_overflow(self):
        rep = compare_report(HoelderParams(1e-300, 0.3, 0.0, 1.0), R=10.0)
        assert rep.new_eta_max == rep.ahues_eta_max == math.inf
        assert rep.eta_max_ratio == pytest.approx(2.398, abs=1e-3)  # 1.3^(1/0.3)
        # (1/1e-9)^101 is past every float: the ratio reads inf, not an OverflowError
        rep = compare_report(HoelderParams(1e-300, 0.01, 0.0, 1.0), R=10.0, delta=1.0 - 1e-9)
        assert rep.eta_max_ratio == math.inf

    def test_ratio_with_delta(self):
        rep = compare_report(HoelderParams(1.0, 0.5, 0.2, 0.01), R=10.0, delta=0.1)
        assert rep.eta_max_ratio == pytest.approx(rep.new_eta_max / rep.ahues_eta_max,
                                                  rel=1e-14)

    def test_kantorovich_not_applicable(self):
        rep = compare_report(HoelderParams(1.0, 0.5, 0.0, 0.01), R=10.0)
        assert rep.kantorovich_holds is None
        rep2 = compare_report(HoelderParams(1.0, 1.0, 0.2, 0.01), R=10.0)
        assert rep2.kantorovich_holds is None

    @pytest.mark.parametrize("rel", [1e-14, 1e-13, 1e-12, 1e-11])
    def test_one_verdict_per_model(self, rel):
        # past the closed form by rounding, compare holds exactly where certify certifies
        p = HoelderParams(1.0, 1.0, 0.0, 0.5 * (1.0 + rel))
        rep = compare_report(p, 10.0)
        assert rep.new_holds == rep.kantorovich_holds == certify(p.model(10.0)).certified
        q = HoelderParams(1.0, 1.0, 0.0, 0.25 * (1.0 + rel))
        assert compare_report(q, 10.0).ahues_holds == certify(
            _rival_params(q).model(10.0)).certified

    def test_delta_is_keyword_only(self):
        p = HoelderParams(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(TypeError):
            compare_report(p, 10.0, 0.1)
        assert compare_report(p, 10.0, delta=0.1).delta == 0.1


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
            rival = compare_report(p, R=10.0).ahues_holds
            if rival:
                assert check_holder_condition(p)
        for alpha in np.linspace(0.2, 1.0, 9):
            new_emax = compare_report(
                HoelderParams(1.0, float(alpha), 0.0, 0.001), R=10.0).new_eta_max
            rival_emax = ahues_eta_max(1.0, float(alpha), 0.0)
            eta_mid = 0.5 * (rival_emax + new_emax)
            p_mid = HoelderParams(1.0, float(alpha), 0.0, eta_mid)
            assert check_holder_condition(p_mid) and not compare_report(p_mid, R=10.0).ahues_holds

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

    def test_rival_radii_are_the_new_radii_of_the_rival_data(self):
        # one root analysis: the rival side of p is the new side of its rival data
        rng = np.random.default_rng(34)
        for _ in range(200):
            alpha = 1.0 if rng.random() < 0.25 else rng.uniform(0.25, 1.0)
            l0, nu = rng.uniform(0.0, 3.0), rng.uniform(0.0, 0.7)
            eta = ahues_eta_max(max(l0, 1e-3), alpha, nu) * rng.uniform(0.05, 1.2)
            p, R = HoelderParams(l0, alpha, nu, eta), rng.uniform(0.2, 12.0)
            rep, rival = compare_report(p, R), compare_report(_rival_params(p), R)
            assert rep.ahues_holds == rival.new_holds
            if not rep.ahues_holds:
                assert rep.r_star is None and rep.r_star_star is None
            elif rival.nu_star is None:  # root beyond R: clipped
                assert rep.r_star == rep.r_star_star == R
            else:
                assert (rep.r_star, rep.r_star_star) == (rival.nu_star, rival.nu_star_star)

    def test_kantorovich_coincidence_at_nu_zero(self):
        # at alpha = 1, nu = 0 the new condition is exactly 2 l0 eta <= 1
        for eta in np.linspace(0.01, 1.2, 241):
            p = HoelderParams(1.0, 1.0, 0.0, float(eta))
            assert check_holder_condition(p) == compare_report(p, R=10.0).kantorovich_holds
