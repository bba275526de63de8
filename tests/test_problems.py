"""Bundled fixtures: analytic metadata, solutions, estimator agreement."""

import math

import numpy as np
import pytest

from fixedslope.certificate import certify
from fixedslope.errors import BadParameters, UnknownFixture
from fixedslope.norms import vector_norm, vector_norms
from fixedslope.problems import analytic_model, build_fixture, fixture_names
from fixedslope.solver import estimate_majorant, estimate_omega, fsi_solve

SQRT2 = math.sqrt(2.0)


class TestCatalog:
    def test_names(self):
        assert set(fixture_names()) == {
            "scalar_quadratic", "scalar_holder", "poly2d", "linear", "chandrasekhar",
        }

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            build_fixture("does_not_exist")

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            build_fixture("scalar_quadratic", c=-1.0)
        with pytest.raises(BadParameters):
            build_fixture("scalar_quadratic", b=0.0)
        with pytest.raises(BadParameters):
            build_fixture("scalar_quadratic", nonsense=3)
        with pytest.raises(BadParameters):
            build_fixture("scalar_holder", x0=0.0, a=0.0)
        with pytest.raises(BadParameters):
            build_fixture("chandrasekhar", c=1.5)
        with pytest.raises(BadParameters):
            build_fixture("poly2d", coupling=(0.0, 1.0))


class TestStackContract:
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    @pytest.mark.parametrize("name", fixture_names())
    def test_stack_matches_row_by_row_calls(self, name, norm):
        problem = build_fixture(name, norm=norm).problem
        rng = np.random.default_rng(3)
        d = rng.standard_normal((9, problem.dim))
        radius = problem.R * rng.random(9) / vector_norms(d, norm)
        points = problem.x0 + radius[:, None] * d  # strictly inside the ball
        for fn, tail in [(problem.f, ()), (problem.jacobian, (problem.dim,))]:
            stacked = fn(points)
            assert stacked.shape == points.shape + tail
            for one in (lambda x: fn(x[None])[0], fn):  # a one-row stack, a point
                rows = np.array([one(x) for x in points])
                assert rows.tobytes() == stacked.tobytes()


class TestScalarQuadratic:
    def test_bundled_constants(self):
        fx = build_fixture("scalar_quadratic")
        assert fx.analytic.eta == 0.5
        assert fx.analytic.l0 == 0.5
        assert fx.analytic.nu == 0.0
        assert fx.known_solution[0] == SQRT2

    def test_tangency_variant(self):
        # |B F'(x) - 1| = |x - 1|: l0 = 1, eta = 0.5 = eta_max
        fx = build_fixture("scalar_quadratic", x0=1.0, b=0.5)
        assert fx.analytic.l0 == 1.0
        assert fx.analytic.eta == 0.5
        assert fx.analytic.nu == 0.0

    def test_non_contractive_start_has_no_analytic(self):
        fx = build_fixture("scalar_quadratic", x0=2.0, b=0.5)  # nu = 1
        assert fx.analytic is None


class TestLinear:
    def test_certificate_shape(self):
        fx = build_fixture("linear")
        cert = certify(analytic_model(fx))
        assert cert.certified
        assert cert.nu_star == pytest.approx(fx.analytic.eta, abs=1e-12)
        assert cert.lambda_star == fx.problem.R
        assert cert.uniqueness_boundary == "closed"

    def test_one_step_solve(self):
        fx = build_fixture("linear")
        x, trace = fsi_solve(fx.problem)
        assert trace.num_steps == 1
        assert x == pytest.approx(fx.known_solution, abs=1e-14)


class TestKnownSolutions:
    def test_certified_solves_reach_known_solutions(self):
        cases = [("scalar_quadratic", {}), ("scalar_quadratic", dict(x0=1.0, b=0.5)),
                 ("scalar_holder", {}), ("poly2d", {}), ("linear", {})]
        for name, kw in cases:
            fx = build_fixture(name, **kw)
            cert = certify(analytic_model(fx))
            assert cert.certified, name
            x, trace = fsi_solve(fx.problem, cert=cert)
            assert trace.converged, name
            err = vector_norm(x - fx.known_solution, fx.problem.norm)
            assert err <= 1e-8, f"{name}: {err}"


class TestAnalyticVsEstimate:
    def test_omega_exact_matches_estimator(self):
        for name in ["scalar_quadratic", "scalar_holder", "poly2d", "linear"]:
            fx = build_fixture(name)
            radii = list(np.linspace(fx.problem.R / 8, fx.problem.R, 8))
            om = estimate_omega(fx.problem, "direct", radii=radii,
                                samples_per_radius=64, seed=0)
            for r, w in om.knots[1:]:
                exact = fx.omega_exact(r)
                assert w <= exact + 1e-12
                assert w >= exact * 0.98 - 1e-12

    def test_analytic_dominates_omega_exact(self):
        # the Hoelder form nu + l0 v^alpha majorizes the true measure
        for name in ["scalar_quadratic", "scalar_holder", "poly2d"]:
            fx = build_fixture(name)
            p = fx.analytic
            for v in np.linspace(0.0, fx.problem.R, 33):
                bound = p.nu + p.l0 * v ** p.alpha
                assert fx.omega_exact(v) <= bound + 1e-12


class TestChandrasekhar:
    def test_certified_via_estimates_and_tight_residual(self):
        for c in [0.1, 0.5, 0.9]:
            fx = build_fixture("chandrasekhar", c=c, n=16, norm="one")
            model = estimate_majorant(fx.problem, mode="centered",
                                      samples_per_radius=64, seed=0)
            cert = certify(model)
            assert cert.certified, f"c={c}"
            x, trace = fsi_solve(fx.problem, cert=cert)
            assert trace.converged
            assert trace.residual_norms[-1] <= 1e-10
            # physical solution: H >= 1, increasing in mu
            assert np.all(x >= 1.0 - 1e-12)
            assert np.all(np.diff(x) >= -1e-12)

    def test_no_analytic_metadata(self):
        fx = build_fixture("chandrasekhar", n=8)
        assert fx.analytic is None
        assert fx.known_solution is None

    def test_sup_norm_not_certifiable_near_one(self):
        # near c = 1 the sup-norm measure is too steep: 2 l0 eta > 1
        fx = build_fixture("chandrasekhar", c=0.9, n=16, norm="max")
        model = estimate_majorant(fx.problem, mode="centered",
                                  samples_per_radius=256, seed=0)
        cert = certify(model)
        assert not cert.certified

    def test_quadrature_nodes_inside_domain(self):
        fx = build_fixture("chandrasekhar", c=0.5, n=4)
        # midpoint nodes never touch mu = 0, so the kernel stays finite
        h = np.ones(4)
        assert np.all(np.isfinite(fx.problem.f(h)))
        assert np.all(np.isfinite(fx.problem.jacobian(h)))
