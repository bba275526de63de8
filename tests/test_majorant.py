"""Majorant construction, scalar roots and the majorizing sequence.

Expected values are frozen from independent oracles: closed-form
quadratics for alpha = 1, dense grid scans of g for everything else.
"""

import dataclasses
import itertools
import math
from functools import partial

import numpy as np
import pytest
from test_certificate import bisect_sign_change, holder_g

from fixedslope import majorant
from fixedslope.certificate import (
    REASON_CONSTRAINT_A,
    REASON_NU_TOO_LARGE,
    REASON_RADIUS_TOO_SMALL,
    ConvergenceCertificate,
    certify,
)
from fixedslope.comparison import HoelderParams
from fixedslope.errors import NuNotContractive, RadiusOutOfRange
from fixedslope.majorant import (
    BOUNDARY_CLOSED,
    BOUNDARY_OPEN,
    HoelderOmega,
    MajorantModel,
    RootAnalysis,
    TabulatedOmega,
    analyze,
    g,
    majorizing_terms,
    phi,
)

SQRT2 = math.sqrt(2.0)


def quad_model(eta=0.5, l0=0.5, nu=0.0, R=10.0):
    return MajorantModel(eta=eta, R=R, omega=HoelderOmega(l0, 1.0, nu))


def tabulate(omega, R, num_knots):
    """omega sampled on a uniform grid of num_knots radii over [0, R]."""
    radii = np.linspace(0.0, R, num_knots)
    return TabulatedOmega(tuple((float(r), float(omega.value_and_integral(r)[0])) for r in radii))


class CountingMeasure:
    """A measure that counts the point evaluations asked of it and delegates them."""

    def __init__(self, inner):
        self.inner, self.evaluations, self.at_zero = inner, 0, 0

    def value_and_integral(self, v):
        self.evaluations += 1
        self.at_zero += v == 0.0
        return self.inner.value_and_integral(v)

    def radius_where_one(self):
        return self.inner.radius_where_one()

    def max_radius(self):
        return self.inner.max_radius()


def truncated_sequence(model, tol=1e-12, max_iter=10000):
    """Majorizing terms up to the first increment <= tol, or max_iter steps."""
    seq = [0.0]
    for v in itertools.islice(majorizing_terms(model), 1, max_iter + 1):
        seq.append(v)
        if v - seq[-2] <= tol:
            break
    return seq


def random_hoelder_model(rng, certifiable=None):
    """Random model; certifiable=True/False forces eta on one side of eta_max."""
    alpha = rng.uniform(0.3, 1.0)
    nu = rng.uniform(0.0, 0.7)
    r_bar = rng.uniform(0.5, 8.0)
    l0 = (1.0 - nu) / r_bar ** alpha
    eta_max = ((1.0 - nu) ** (alpha + 1.0) * (alpha / (1.0 + alpha)) ** alpha / l0) ** (1.0 / alpha)
    if certifiable is None:
        u = rng.uniform(0.05, 1.4)
    elif certifiable:
        u = rng.uniform(0.05, 0.9)
    else:
        u = rng.uniform(1.1, 1.6)
    return MajorantModel(eta=u * eta_max, R=10.0, omega=HoelderOmega(l0, alpha, nu))


class TestOmegaMeasures:
    def test_eval_hoelder(self):
        assert HoelderOmega(1.0, 1.0, 0.0).value_and_integral(0.25)[0] == 0.25
        assert HoelderOmega(0.0, 1.0, 0.3).value_and_integral(5.0)[0] == 0.3
        # v^alpha = 0.04^0.5 = 0.2 exactly
        w = HoelderOmega(0.5, 0.5, 0.1).value_and_integral(0.04)[0]
        assert w == pytest.approx(0.2, abs=1e-15)

    def test_hoelder_far_reach(self):
        # ((1 - nu) / l0)^(1/alpha) = 1e1000 overflows: omega stays below 1 on all floats
        assert HoelderOmega(1e-300, 0.3).radius_where_one() == math.inf
        # 1e200^2 overflows on the way, omega(1e200) * 1e200 / 2 does not
        assert HoelderOmega(1e-200, 1.0).value_and_integral(1e200)[1] == 5e199

    def test_hoelder_tiny_reach(self):
        # 1.6e-300^2 underflows to 0, omega(1.6e-300) * 1.6e-300 / 2 does not
        om = HoelderOmega(1e299, 1.0)
        assert om.value_and_integral(1.6e-300)[1] == pytest.approx(1.28e-301, rel=1e-15, abs=0.0)
        assert om.value_and_integral(0.0)[1] == 0.0

    def test_hoelder_validation(self):
        with pytest.raises(ValueError):
            HoelderOmega(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            HoelderOmega(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            HoelderOmega(1.0, 1.5, 0.0)
        for nu in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^nu must be finite and >= 0, got "):
                HoelderOmega(1.0, 1.0, nu)

    @pytest.mark.parametrize("nu", [1.0, 2.5])
    def test_hoelder_nu_of_one_or_more(self, nu):
        # a measure like any other, and reaching 1 at 0 as a tabulated one does;
        # only analyze refuses it
        om = HoelderOmega(0.5, 0.5, nu)
        flat = TabulatedOmega(((0.0, nu), (1.0, nu)))
        assert om.radius_where_one() == flat.radius_where_one() == 0.0
        assert om.value_and_integral(0.0)[0] == nu
        with pytest.raises(NuNotContractive):
            analyze(MajorantModel(1.0, 2.0, om))

    def test_tabulated_eval(self):
        om = TabulatedOmega(((0.0, 0.1), (1.0, 0.5), (2.0, 0.5)))
        assert om.value_and_integral(0.0)[0] == 0.1
        assert om.value_and_integral(0.5)[0] == pytest.approx(0.3)
        assert om.value_and_integral(1.5)[0] == 0.5
        with pytest.raises(RadiusOutOfRange):
            om.value_and_integral(2.0001)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedOmega(((0.0, 0.5), (1.0, 0.4)))  # decreasing values
        with pytest.raises(ValueError):
            TabulatedOmega(((0.5, 0.1), (1.0, 0.2)))  # first knot not at 0
        with pytest.raises(ValueError):
            TabulatedOmega(((0.0, 0.1), (0.0, 0.2)))  # radii not increasing
        with pytest.raises(ValueError):
            TabulatedOmega(((0.0, -0.1), (1.0, 0.2)))  # negative value
        for bad in (math.nan, math.inf):  # a NaN radius would pass every comparison
            with pytest.raises(ValueError):
                TabulatedOmega(((0.0, 0.1), (bad, 0.5)))
            with pytest.raises(ValueError):
                TabulatedOmega(((0.0, 0.1), (1.0, 0.2), (bad, 0.5)))

    def test_one_knot_rejected(self):
        # a single knot covers no radius above 0, so no model could hold it
        with pytest.raises(ValueError):
            TabulatedOmega(((0.0, 0.1),))

    def test_tabulated_integral_matches_quadrature(self):
        om = TabulatedOmega(((0.0, 0.0), (0.5, 0.25), (1.0, 0.3), (2.0, 0.9)))
        for v in [0.3, 0.5, 0.77, 1.0, 1.9, 2.0]:
            grid = np.linspace(0.0, v, 20001)
            ref = np.trapezoid([om.value_and_integral(t)[0] for t in grid], grid)
            assert om.value_and_integral(v)[1] == pytest.approx(ref, abs=1e-8)


    def test_value_and_integral_bit_for_bit(self):
        # against their closed forms, written out here
        rng = np.random.default_rng(19)
        for _ in range(300):
            l0 = 10.0 ** rng.uniform(-300.0, 300.0)
            alpha = 1.0 if rng.random() < 0.25 else rng.uniform(0.01, 1.0)
            nu = rng.uniform(0.0, 0.99)
            om = HoelderOmega(l0, alpha, nu)
            for v in (0.0, 10.0 ** rng.uniform(-300.0, 300.0), rng.uniform(0.0, 10.0)):
                ref = (nu + l0 * v ** alpha, nu * v + l0 * v ** alpha * v / (1.0 + alpha))
                assert repr(om.value_and_integral(v)) == repr(ref)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            radii = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 1.0, n - 1))])
            values = np.cumsum(rng.uniform(0.0, 0.1, n))
            om = TabulatedOmega(tuple(zip(radii, values)))
            radii, values = radii.tolist(), values.tolist()
            cum = [0.0]
            for k in range(n - 1):
                cum.append(cum[-1] + 0.5 * (values[k] + values[k + 1]) * (radii[k + 1] - radii[k]))
            between = [rng.uniform(radii[k], radii[k + 1]) for k in range(n - 1)]
            for v in [0.0, radii[-1]] + radii + between:
                i = max(k for k in range(n - 1) if radii[k] <= v)
                r0, r1, w0, w1 = radii[i], radii[i + 1], values[i], values[i + 1]
                w = w0 + (w1 - w0) * (v - r0) / (r1 - r0)
                ref = (w, cum[i] + 0.5 * (w0 + w) * (v - r0))
                assert repr(om.value_and_integral(v)) == repr(ref)

    def test_one_knot_search_per_evaluation(self, monkeypatch):
        searches = []
        segment = TabulatedOmega._segment
        monkeypatch.setattr(TabulatedOmega, "_segment",
                            lambda om, v: searches.append(v) or segment(om, v))
        hoelder = HoelderOmega(0.5, 0.7, 0.1)
        # two roots, the maximal one past R, tangency-free refusal, a coarse table
        for eta, R, knots in [(0.2, 4.0, 50), (0.3, 20.0, 2000), (2.0, 4.0, 50), (0.5, 2.0, 7)]:
            measure = CountingMeasure(tabulate(hoelder, R, knots))
            searches.clear()
            roots = analyze(MajorantModel(eta=eta, R=R, omega=measure))
            assert len(searches) == measure.evaluations
            if roots.nu_star is not None:
                assert measure.evaluations > 5


    def test_certify_reads_omega_at_zero_once(self, monkeypatch):
        # certified, refused for R, refused outright and nu_too_large, with
        # Hoelder and tabulated measures; the preview runs on the bare measure
        terms = majorant.majorizing_terms
        monkeypatch.setattr(majorant, "majorizing_terms",
                            lambda m: terms(MajorantModel(m.eta, m.R, m.omega.inner)))
        hoelder = HoelderOmega(0.5, 0.7, 0.1)
        cases = [(0.2, 4.0, hoelder), (0.2, 4.0, tabulate(hoelder, 4.0, 50)),
                 (0.2, 0.1, hoelder), (0.2, 0.1, tabulate(hoelder, 4.0, 50)),
                 (2.0, 4.0, hoelder), (2.0, 4.0, tabulate(hoelder, 4.0, 50)),
                 (0.1, 1.0, TabulatedOmega(((0.0, 1.0), (1.0, 1.5))))]
        reasons = set()
        for eta, R, inner in cases:
            measure = CountingMeasure(inner)
            cert = certify(MajorantModel(eta=eta, R=R, omega=measure))
            reasons.add(cert.reason)
            assert measure.at_zero == 1, (eta, R, inner)
            if cert.reason != REASON_NU_TOO_LARGE:
                # the analysis names the verdict certify gives, on a fresh measure
                roots = analyze(MajorantModel(eta=eta, R=R, omega=CountingMeasure(inner)))
                assert roots.reason == cert.reason, (eta, R, inner)
        assert reasons == {None, REASON_RADIUS_TOO_SMALL, REASON_CONSTRAINT_A,
                           REASON_NU_TOO_LARGE}
        # certify builds every certificate from the analysis's fields
        cert_fields = {f.name for f in dataclasses.fields(ConvergenceCertificate)}
        assert {f.name for f in dataclasses.fields(RootAnalysis)} <= cert_fields


class TestPhiAndG:
    def test_phi_examples(self):
        m = quad_model(eta=0.5, l0=0.25)
        assert phi(m, 0.0) == 0.5  # phi(0) = eta
        assert phi(m, 2.0) == pytest.approx(1.0, abs=1e-15)
        m2 = MajorantModel(eta=1.0, R=10.0, omega=HoelderOmega(0.0, 1.0, 0.5))
        assert phi(m2, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_phi_range_check(self):
        m = quad_model()
        with pytest.raises(RadiusOutOfRange):
            phi(m, 10.5)
        with pytest.raises(RadiusOutOfRange):
            phi(m, -0.1)

    def test_g_examples(self):
        m = quad_model()
        assert abs(g(m, 2.0 - SQRT2)) <= 1e-12
        assert g(m, 0.0) == m.eta
        assert g(m, 1.0) == pytest.approx(-0.25, abs=1e-15)

    def test_tabulated_phi_matches_hoelder_closed_form(self):
        # A linear measure is reproduced exactly by its tabulation.
        om = HoelderOmega(0.5, 1.0, 0.1)
        tab = tabulate(om, 4.0, 41)
        mh = MajorantModel(eta=0.3, R=4.0, omega=om)
        mt = MajorantModel(eta=0.3, R=4.0, omega=tab)
        for v in np.linspace(0.0, 4.0, 17):
            assert phi(mt, v) == pytest.approx(phi(mh, v), abs=1e-14)


class TestGammaStar:
    def test_examples(self):
        assert analyze(quad_model(l0=0.5, R=10.0)).gamma_star == pytest.approx(2.0, abs=1e-15)
        m = MajorantModel(eta=0.5, R=3.0, omega=HoelderOmega(0.0, 1.0, 0.2))
        assert analyze(m).gamma_star == 3.0  # omega constant below 1 everywhere
        m2 = MajorantModel(eta=0.1, R=10.0, omega=HoelderOmega(1.0, 0.5, 0.0))
        assert analyze(m2).gamma_star == pytest.approx(1.0, abs=1e-15)

    def test_tabulated_crossing(self):
        om = TabulatedOmega(((0.0, 0.0), (1.0, 0.5), (2.0, 1.5)))
        m = MajorantModel(eta=0.1, R=2.0, omega=om)
        # interpolant hits 1 at 1.5
        assert analyze(m).gamma_star == pytest.approx(1.5, abs=1e-15)

    def test_radius_where_one_equals_a_knot_scan(self):
        # measures that stay below 1, start at or above it, cross it inside
        # a segment, or reach it exactly at a knot or along a plateau
        def scan(knots):
            for (r0, w0), (r1, w1) in zip(knots, knots[1:]):
                if w1 >= 1.0:
                    return r0 if w0 >= 1.0 else r0 + (1.0 - w0) * (r1 - r0) / (w1 - w0)
            return math.inf

        rng = np.random.default_rng(19)
        for i in range(300):
            size = int(rng.integers(2, 40))
            values = 0.1 * (i % 12) + np.cumsum(rng.choice([0.0, 0.125, 0.25], size=size))
            radii = np.concatenate([[0.0], np.cumsum(rng.random(size - 1) + 0.01)])
            om = TabulatedOmega(tuple(zip(radii, values)))
            assert om.radius_where_one() == scan(om.knots)

    def test_nu_not_contractive(self):
        om = TabulatedOmega(((0.0, 1.0), (1.0, 1.5)))
        m = MajorantModel(eta=0.1, R=1.0, omega=om)
        with pytest.raises(NuNotContractive, match=r"^omega\(0\) = 1\.0 >= 1: ") as exc:
            analyze(m)
        assert exc.value.nu == 1.0


class TestRoots:
    def test_minimal_root_quadratic(self):
        # quadratic oracle: v^2/4 - v + 1/2 = 0 -> 2 - sqrt(2)
        assert analyze(quad_model()).nu_star == pytest.approx(2.0 - SQRT2, abs=1e-10)

    def test_minimal_root_tangency(self):
        # eta = eta_max: double root exactly at 1
        assert analyze(quad_model(l0=1.0)).nu_star == pytest.approx(1.0, abs=1e-9)

    def test_minimal_root_absent(self):
        assert analyze(quad_model(eta=1.0, l0=1.0)).nu_star is None

    def test_maximal_root_quadratic(self):
        assert analyze(quad_model()).nu_star_star == pytest.approx(2.0 + SQRT2, abs=1e-10)

    def test_maximal_root_tangency(self):
        assert analyze(quad_model(l0=1.0)).nu_star_star == pytest.approx(1.0, abs=1e-9)

    def test_maximal_root_beyond_radius(self):
        # g(3) = 0.5 + 2.25 - 3 < 0: maximal root beyond R
        roots = analyze(quad_model(R=3.0))
        assert roots.nu_star is not None and roots.nu_star_star is None

    def test_maximal_root_requires_minimal(self):
        roots = analyze(quad_model(eta=1.0, l0=1.0))
        assert roots.nu_star_star is None

    def test_analyze_one_pass(self):
        assert analyze(quad_model()) == RootAnalysis(
            0.0, 2.0, analyze(quad_model()).nu_star, pytest.approx(2.0 + SQRT2, abs=1e-10),
            pytest.approx(2.0 + SQRT2, abs=1e-10), BOUNDARY_OPEN)
        assert analyze(quad_model(eta=1.0, l0=1.0)) == RootAnalysis(0.0, 1.0, None, None, None, None)

    def test_analyze_merge_band_keeps_both_bisected_roots(self):
        # -band <= g(gamma_star) < -stol: both roots are bisected, yet the
        # minimum is too close to zero to claim the open ball past nu_star.
        m = quad_model(eta=0.5 - 2e-10, l0=1.0)  # g(gamma_star) = -2e-10
        stol = 1e-12
        roots = analyze(m)
        assert -1e-9 * m.eta <= g(m, roots.gamma_star) < -stol
        assert roots.nu_star < roots.gamma_star < roots.nu_star_star
        assert (roots.lambda_star, roots.uniqueness_boundary) == (roots.nu_star, BOUNDARY_CLOSED)

    def test_lambda_star_cases(self):
        roots = analyze(quad_model())
        assert (roots.lambda_star, roots.uniqueness_boundary) == (
            pytest.approx(2.0 + SQRT2, abs=1e-10), BOUNDARY_OPEN)
        roots = analyze(quad_model(l0=1.0))
        assert roots.uniqueness_boundary == BOUNDARY_CLOSED
        assert roots.lambda_star == pytest.approx(1.0, abs=1e-9)
        roots = analyze(quad_model(R=3.0))
        assert (roots.lambda_star, roots.uniqueness_boundary) == (3.0, BOUNDARY_CLOSED)


class TestScalarSequence:
    def test_quadratic_sequence(self):
        seq = truncated_sequence(quad_model(), tol=1e-12, max_iter=1000)
        assert seq[0] == 0.0
        assert seq[1] == 0.5
        assert seq[2] == 0.5625
        assert seq[-1] == pytest.approx(2.0 - SQRT2, abs=1e-8)

    def test_constant_phi(self):
        seq = truncated_sequence(quad_model(l0=0.0), tol=1e-15, max_iter=50)
        assert seq[1] == 0.5
        assert all(v == 0.5 for v in seq[1:])

    def test_affine_geometric(self):
        # phi(v) = 0.5 + 0.5 v: fixed point 1, ratio 0.5
        m = MajorantModel(eta=0.5, R=10.0, omega=HoelderOmega(0.0, 1.0, 0.5))
        seq = truncated_sequence(m, tol=1e-13, max_iter=100)
        assert seq[-1] == pytest.approx(1.0, abs=1e-12)
        gaps = [1.0 - v for v in seq[:-1]]
        ratios = [b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-10]
        assert all(r == pytest.approx(0.5, abs=1e-9) for r in ratios)

    def test_uncertifiable_raises(self):
        # without a root the sequence climbs out of [0, R]: 0, 1, 1.5, ..., 20.8
        with pytest.raises(RadiusOutOfRange):
            list(itertools.islice(majorizing_terms(quad_model(eta=1.0, l0=1.0)), 100))

    def test_majorizing_terms_prefix(self):
        m = quad_model()
        terms = list(itertools.islice(majorizing_terms(m), 60))
        assert terms[:3] == [0.0, 0.5, 0.5625]
        assert all(b == phi(m, a) for a, b in zip(terms[:40], terms[1:40]))
        assert all(b >= a for a, b in zip(terms, terms[1:]))
        assert terms[-1] == pytest.approx(2.0 - SQRT2, abs=1e-12)


class TestProperties:
    def test_monotone_majorant(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = random_hoelder_model(rng)
            a, b = sorted(rng.uniform(0.0, m.R, size=2))
            assert m.omega.value_and_integral(a)[0] <= m.omega.value_and_integral(b)[0] + 1e-15
            assert phi(m, a) <= phi(m, b) + 1e-15

    def test_convexity_chord(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = random_hoelder_model(rng)
            v1, v2, v3 = sorted(rng.uniform(0.0, m.R, size=3))
            if v3 - v1 < 1e-9:
                continue
            t = (v2 - v1) / (v3 - v1)
            chord = (1.0 - t) * g(m, v1) + t * g(m, v3)
            assert g(m, v2) <= chord + 1e-12

    def test_root_bracketing(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = random_hoelder_model(rng, certifiable=True)
            ns = analyze(m).nu_star
            assert ns is not None
            assert abs(g(m, ns)) <= 1e-12 * max(1.0, m.eta)
            delta = min(1e-3, 0.5 * ns)
            assert g(m, ns - delta) > 0.0
            assert ns <= analyze(m).gamma_star + 1e-15

    def test_constraint_a_equivalence(self):
        # nu_star is absent exactly when phi(gamma_star) > gamma_star,
        # cross-checked against a dense scan of the raw closed form of g.
        rng = np.random.default_rng(10)
        for _ in range(60):
            m = random_hoelder_model(rng)
            roots = analyze(m)
            gam, ns = roots.gamma_star, roots.nu_star
            assert (ns is None) == (phi(m, gam) > gam)
            om = m.omega
            v = np.linspace(0.0, m.R, 10001)
            scan = m.eta + om.nu * v + om.l0 * v ** (1.0 + om.alpha) / (1.0 + om.alpha) - v
            assert (ns is not None) == bool(np.any(scan <= 0.0))

    def test_sequence_majorization(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = random_hoelder_model(rng, certifiable=True)
            tol = 1e-10
            ns = analyze(m).nu_star
            seq = truncated_sequence(m, tol=tol, max_iter=100000)
            assert all(b >= a for a, b in zip(seq, seq[1:]))
            assert all(v <= ns + tol for v in seq)
            assert abs(seq[-1] - ns) <= 10.0 * tol

    def test_hoelder_tabulated_agreement(self):
        # >= 1000 uniform knots reproduce nu_star, gamma_star, lambda_star
        # within the interpolation error, checked at 1e-4 on a fixed grid.
        for l0 in [0.5, 1.0, 2.0]:
            for alpha in [0.5, 0.75, 1.0]:
                for nu in [0.0, 0.3]:
                    emax = ((1.0 - nu) ** (alpha + 1.0)
                            * (alpha / (1.0 + alpha)) ** alpha / l0) ** (1.0 / alpha)
                    eta = 0.5 * emax
                    om = HoelderOmega(l0, alpha, nu)
                    mh = MajorantModel(eta=eta, R=10.0, omega=om)
                    nss = analyze(mh).nu_star_star
                    R = 1.25 * nss
                    mh = MajorantModel(eta=eta, R=R, omega=om)
                    mt = MajorantModel(eta=eta, R=R, omega=tabulate(om, R, 4001))
                    assert analyze(mt).nu_star == pytest.approx(analyze(mh).nu_star, abs=1e-4)
                    assert analyze(mt).gamma_star == pytest.approx(analyze(mh).gamma_star, abs=1e-4)
                    assert analyze(mt).lambda_star == pytest.approx(
                        analyze(mh).lambda_star, abs=1e-4)


def _hoelder(rng, eta_rel, reach):
    """Random Hoelder model with eta = eta_rel * eta_max and R = reach * r_bar."""
    alpha = rng.uniform(0.3, 1.0)
    nu = rng.uniform(0.0, 0.6)
    l0 = 10.0 ** rng.uniform(-1.0, 1.0)
    r_bar = ((1.0 - nu) / l0) ** (1.0 / alpha)
    eta_max = (1.0 - nu) * r_bar * alpha / (1.0 + alpha)
    return MajorantModel(eta_rel * eta_max, reach * r_bar, HoelderOmega(l0, alpha, nu))


def _tabulated(rng, knots):
    """Random tabulated model: a jittered power law through `knots` knots."""
    R = rng.uniform(1.0, 10.0)
    radii = np.linspace(0.0, R, knots)
    values = rng.uniform(0.0, 0.5) + rng.uniform(0.5, 4.0) * (radii / R) ** rng.uniform(0.5, 2.0)
    values = values + np.cumsum(rng.random(knots)) * 0.01 / knots
    return MajorantModel(rng.uniform(0.01, 0.3), R, TabulatedOmega(tuple(zip(radii, values))))


def _knot_g(model):
    """g of a tabulated model from its knots, written apart from TabulatedOmega."""
    radii = np.array([r for r, _ in model.omega.knots])
    values = np.array([w for _, w in model.omega.knots])
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(radii))))

    def fun(v):
        i = min(int(np.searchsorted(radii, v, side="right")) - 1, len(radii) - 2)
        w = values[i] + (values[i + 1] - values[i]) * (v - radii[i]) / (radii[i + 1] - radii[i])
        return model.eta + float(cum[i]) + 0.5 * (values[i] + w) * (v - radii[i]) - v

    return fun, radii


def _scanned_roots(fun, grid):
    """First and last sign change of fun over a grid, each bisected to the last float."""
    positive = [fun(float(v)) > 0.0 for v in grid]
    flips = [i for i in range(len(grid) - 1) if positive[i] != positive[i + 1]]
    return [bisect_sign_change(fun, float(grid[i]), float(grid[i + 1]))
            for i in (flips[0], flips[-1])]


class TestRootIteration:
    """The safeguarded Newton root finder behind analyze."""

    @staticmethod
    def _analyze_counted(model):
        """analyze(model) and the number of point evaluations it asked of the measure."""
        measure = CountingMeasure(model.omega)
        return analyze(MajorantModel(model.eta, model.R, measure)), measure.evaluations

    def test_few_evaluations_per_analysis(self):
        rng = np.random.default_rng(31)
        models = [_hoelder(rng, rng.uniform(0.1, 1.3), rng.uniform(0.2, 3.0)) for _ in range(100)]
        models += [_tabulated(rng, int(rng.integers(16, 2001))) for _ in range(60)]
        calls = sum(self._analyze_counted(m)[1] for m in models)
        assert calls / len(models) <= 15.0

    @pytest.mark.parametrize("k", range(3, 12))
    def test_near_tangency_costs_no_more_than_bisection(self, k):
        # g is flat at its roots, so Newton converges slowly and rounding blurs
        # the sign of g over many ulps; halving both brackets took about 110
        for l0, alpha, nu in [(1.0, 1.0, 0.0), (0.5, 0.5, 0.2), (3.0, 0.3, 0.5),
                              (0.1, 0.8, 0.0), (2.0, 0.65, 0.3)]:
            r_bar = ((1.0 - nu) / l0) ** (1.0 / alpha)
            eta_max = (1.0 - nu) * r_bar * (alpha / (1.0 + alpha))
            eta = eta_max * (1.0 - 10.0 ** -k)
            m = MajorantModel(eta, 10.0 * r_bar, HoelderOmega(l0, alpha, nu))
            roots, calls = self._analyze_counted(m)
            assert roots.nu_star < roots.gamma_star < roots.nu_star_star
            assert calls <= 110

    @pytest.mark.parametrize("power", [8, 32])
    def test_steep_measure_falls_back_to_bisection(self, power):
        # past its maximal root g grows like v^(power + 1), so each Newton step
        # from R covers only about 1/(power + 1) of the way; the safeguard
        # bisects instead (without it, 50 and 159 evaluations)
        radii = np.linspace(0.0, 1000.0, 2000)
        omega = TabulatedOmega(tuple(zip(radii, 0.5 + (radii / 10.0) ** power)))
        m = MajorantModel(1.0, 1000.0, omega)
        ns, nss = _scanned_roots(_knot_g(m)[0], radii)
        roots, calls = self._analyze_counted(m)
        assert calls <= 40
        assert roots.nu_star == pytest.approx(ns, rel=1e-12, abs=0.0)
        assert roots.nu_star_star == pytest.approx(nss, rel=1e-12, abs=0.0)

    def test_hoelder_radii_agree_with_bisection(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            m = _hoelder(rng, rng.uniform(0.05, 0.9), 10.0)
            om = m.omega
            fun = partial(holder_g, HoelderParams(om.l0, om.alpha, om.nu, m.eta))
            r_bar = ((1.0 - om.nu) / om.l0) ** (1.0 / om.alpha)
            ns, nss = bisect_sign_change(fun, 0.0, r_bar), bisect_sign_change(fun, r_bar, m.R)
            roots = analyze(m)
            assert roots.nu_star == pytest.approx(ns, rel=1e-12, abs=0.0)
            assert roots.nu_star_star == pytest.approx(nss, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("knots", [16, 200, 2000])
    def test_tabulated_radii_agree_with_bisection(self, knots):
        rng = np.random.default_rng(33 + knots)
        for _ in range(20):
            m = _tabulated(rng, knots)
            fun, radii = _knot_g(m)
            if fun(m.R) <= 0.0 or min(fun(float(r)) for r in radii) > -1e-6:
                continue  # no maximal root inside R, or too near tangency
            ns, nss = _scanned_roots(fun, radii)
            roots = analyze(m)
            assert roots.nu_star == pytest.approx(ns, rel=1e-12, abs=0.0)
            assert roots.nu_star_star == pytest.approx(nss, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("l0, alpha, nu, eta, R, root", [
        (1e-300, 0.3, 0.0, 1.0, 10.0, 1.0),  # omega reaches 1 past every float
        (1e-200, 1.0, 0.0, 1.0, 2.0, 1.0),
        (0.0, 1.0, 0.5, 1e-300, 1e-299, 2e-300),
        (1e-300, 0.3, 0.5, 1e300, 1e308, 2e300),  # v**(1 + alpha) overflows at R
        (1e-300, 0.3, 0.0, 1e-300, 1e-299, 1e-300),
        (1e299, 1.0, 0.0, 1.5e-300, 1e-299, 1.6333997346592445e-300),  # v**2 underflows
        (1.0, 1.0, 0.0, 0.375, 1.5, 0.5),  # g(R) == 0: the maximal root is read at R
    ])
    def test_extreme_scales_agree_with_bisection(self, l0, alpha, nu, eta, R, root):
        m = MajorantModel(eta, R, HoelderOmega(l0, alpha, nu))

        def fun(v):  # grouped so that no power overflows
            return eta - v * ((1.0 - nu) - l0 * v ** alpha / (1.0 + alpha))

        ns = analyze(m).nu_star
        assert ns == pytest.approx(bisect_sign_change(fun, 0.0, R), rel=1e-12, abs=0.0)
        assert ns == pytest.approx(root, rel=1e-12, abs=0.0)
        assert g(m, ns) <= 0.0 < g(m, math.nextafter(ns, 0.0))
