"""Majorant construction, scalar roots and the majorizing sequence.

Expected values are frozen from independent oracles: closed-form
quadratics for alpha = 1, dense grid scans of g for everything else.
"""

import itertools
import math

import numpy as np
import pytest

from fixedslope.errors import NotCertifiedError, NuNotContractive, RadiusOutOfRange
from fixedslope.majorant import (
    HoelderOmega,
    MajorantModel,
    RootAnalysis,
    TabulatedOmega,
    analyze,
    g,
    gamma_star,
    majorizing_terms,
    minimal_root,
    phi,
)

SQRT2 = math.sqrt(2.0)


def quad_model(eta=0.5, l0=0.5, nu=0.0, R=10.0):
    return MajorantModel(eta=eta, R=R, omega=HoelderOmega(l0, 1.0, nu))


def tabulate(omega, R, num_knots):
    """omega sampled on a uniform grid of num_knots radii over [0, R]."""
    radii = np.linspace(0.0, R, num_knots)
    return TabulatedOmega(tuple((float(r), float(omega.value(r))) for r in radii))


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
        assert HoelderOmega(1.0, 1.0, 0.0).value(0.25) == 0.25
        assert HoelderOmega(0.0, 1.0, 0.3).value(5.0) == 0.3
        # v^alpha = 0.04^0.5 = 0.2 exactly
        assert HoelderOmega(0.5, 0.5, 0.1).value(0.04) == pytest.approx(0.2, abs=1e-15)

    def test_hoelder_validation(self):
        with pytest.raises(ValueError):
            HoelderOmega(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            HoelderOmega(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            HoelderOmega(1.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            HoelderOmega(1.0, 1.0, 1.0)

    def test_tabulated_eval(self):
        om = TabulatedOmega(((0.0, 0.1), (1.0, 0.5), (2.0, 0.5)))
        assert om.value(0.0) == 0.1
        assert om.value(0.5) == pytest.approx(0.3)
        assert om.value(1.5) == 0.5
        with pytest.raises(RadiusOutOfRange):
            om.value(2.0001)

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
            ref = np.trapezoid([om.value(t) for t in grid], grid)
            assert om.integral(v) == pytest.approx(ref, abs=1e-8)


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
        assert gamma_star(quad_model(l0=0.5, R=10.0)) == pytest.approx(2.0, abs=1e-15)
        m = MajorantModel(eta=0.5, R=3.0, omega=HoelderOmega(0.0, 1.0, 0.2))
        assert gamma_star(m) == 3.0  # omega constant below 1 everywhere
        m2 = MajorantModel(eta=0.1, R=10.0, omega=HoelderOmega(1.0, 0.5, 0.0))
        assert gamma_star(m2) == pytest.approx(1.0, abs=1e-15)

    def test_tabulated_crossing(self):
        om = TabulatedOmega(((0.0, 0.0), (1.0, 0.5), (2.0, 1.5)))
        m = MajorantModel(eta=0.1, R=2.0, omega=om)
        # interpolant hits 1 at 1.5
        assert gamma_star(m) == pytest.approx(1.5, abs=1e-15)

    def test_nu_not_contractive(self):
        om = TabulatedOmega(((0.0, 1.0), (1.0, 1.5)))
        m = MajorantModel(eta=0.1, R=1.0, omega=om)
        with pytest.raises(NuNotContractive):
            gamma_star(m)


class TestRoots:
    def test_minimal_root_quadratic(self):
        # quadratic oracle: v^2/4 - v + 1/2 = 0 -> 2 - sqrt(2)
        assert minimal_root(quad_model()) == pytest.approx(2.0 - SQRT2, abs=1e-10)

    def test_minimal_root_tangency(self):
        # eta = eta_max: double root exactly at 1
        assert minimal_root(quad_model(l0=1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_minimal_root_absent(self):
        assert minimal_root(quad_model(eta=1.0, l0=1.0)) is None

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
        with pytest.raises(NotCertifiedError):
            roots.require_root("nothing to bracket")

    def test_analyze_one_pass(self):
        assert analyze(quad_model()) == RootAnalysis(
            2.0, minimal_root(quad_model()), pytest.approx(2.0 + SQRT2, abs=1e-10),
            pytest.approx(2.0 + SQRT2, abs=1e-10), "B2")
        assert analyze(quad_model(eta=1.0, l0=1.0)) == RootAnalysis(1.0, None, None, None, None)

    def test_analyze_merge_band_keeps_both_bisected_roots(self):
        # -band <= g(gamma_star) < -stol: both roots are bisected, yet the
        # minimum is too close to zero to claim the open ball past nu_star.
        m = quad_model(eta=0.5 - 2e-10, l0=1.0)  # g(gamma_star) = -2e-10
        stol = 1e-12
        assert -1e-9 * m.eta <= g(m, gamma_star(m)) < -stol
        roots = analyze(m)
        assert roots.nu_star < roots.gamma_star < roots.nu_star_star
        assert (roots.lambda_star, roots.case) == (roots.nu_star, "B1")

    def test_lambda_star_cases(self):
        roots = analyze(quad_model())
        assert (roots.lambda_star, roots.case) == (pytest.approx(2.0 + SQRT2, abs=1e-10), "B2")
        roots = analyze(quad_model(l0=1.0))
        assert roots.case == "B1" and roots.lambda_star == pytest.approx(1.0, abs=1e-9)
        roots = analyze(quad_model(R=3.0))
        assert (roots.lambda_star, roots.case) == (3.0, "B1")


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
            assert m.omega.value(a) <= m.omega.value(b) + 1e-15
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
            ns = minimal_root(m)
            assert ns is not None
            assert abs(g(m, ns)) <= 1e-12 * max(1.0, m.eta)
            delta = min(1e-3, 0.5 * ns)
            assert g(m, ns - delta) > 0.0
            assert ns <= gamma_star(m) + 1e-15

    def test_constraint_a_equivalence(self):
        # minimal_root is absent exactly when phi(gamma_star) > gamma_star,
        # cross-checked against a dense scan of the raw closed form of g.
        rng = np.random.default_rng(10)
        for _ in range(60):
            m = random_hoelder_model(rng)
            gam = gamma_star(m)
            ns = minimal_root(m)
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
            ns = minimal_root(m)
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
                    assert minimal_root(mt) == pytest.approx(minimal_root(mh), abs=1e-4)
                    assert gamma_star(mt) == pytest.approx(gamma_star(mh), abs=1e-4)
                    assert analyze(mt).lambda_star == pytest.approx(
                        analyze(mh).lambda_star, abs=1e-4)
