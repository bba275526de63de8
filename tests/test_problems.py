"""Bundled fixtures: analytic metadata, solutions, estimator agreement."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from exact_measures import EXACT
from fixedslope.certificate import REASON_NU_TOO_LARGE, certify
from fixedslope.errors import BadParameters, EvaluationFailed, UnknownFixture
from fixedslope.majorant import HoelderOmega
from fixedslope.norms import vector_norm, vector_norms
from fixedslope.problems import _float_power, analytic_model, build_fixture, fixture_names
from fixedslope.solver import (
    StoppingRule,
    estimate_majorant,
    estimate_omega,
    eta_at_start,
    fsi_solve,
)

SQRT2 = math.sqrt(2.0)

# Starts where F(x0) = 0 exactly, one per fixture with a closed-form measure.
SOLVED_STARTS = [
    ("scalar_quadratic", dict(c=4.0, x0=2.0)),
    ("scalar_holder", dict(x0=1.0, c=-0.6666666666666666)),
    ("poly2d", dict(x0=(1.0, 1.0))),
    ("linear", dict(x0=(1.0, 1.0))),
]


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

    @pytest.mark.parametrize("name, params, message", [
        ("scalar_quadratic", dict(b=1e308),
         "scalar_quadratic: b=1e+308 overflows its measure's l0 = 2|b|"),
    ])
    def test_overflowing_closed_form_names_its_parameters(self, name, params, message):
        with pytest.raises(BadParameters) as info:
            build_fixture(name, **params)
        assert str(info.value) == message

    @pytest.mark.parametrize("name, params, message", [
        ("scalar_quadratic", dict(b=1e200, x0=1e200), "operator returned non-finite values"),
        ("scalar_holder", dict(b=1e308, x0=4.0), "B F(x0) is not finite in the max norm"),
        ("scalar_holder", dict(b=1e308, x0=4.0, c=-5.3),
         "B F'(x) is not finite in the max norm at radius 0.0"),
        ("scalar_quadratic", dict(c=1e300, b=1e10), "B F(x0) is not finite in the max norm"),
    ])
    def test_overflowing_start_fails_at_model_time(self, name, params, message):
        # nu is no fixture data: the fixture builds, and the model's eta or nu fails.
        # B F(x0) may overflow where F(x0) does not, and B F'(x0) where B F(x0) does not.
        fx = build_fixture(name, **params)
        with np.errstate(all="ignore"), pytest.raises(EvaluationFailed) as info:
            analytic_model(fx)
        assert str(info.value) == message


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


class TestOperatorFormulas:
    """The bundled operators equal their textbook expressions bit for bit."""

    def test_poly2d(self):
        (r0, r1), (l0, l1), (k0, k1) = (0.9, 1.2), (2.5, 3.5), (0.7, -1.3)
        problem = build_fixture("poly2d", root=(r0, r1), lin=(l0, l1),
                                coupling=(k0, k1)).problem
        c0, c1 = r0 * r0 + l0 * r0 + k0 * r1, k1 * r0 + r1 * r1 + l1 * r1
        x = 1.0 + np.random.default_rng(11).standard_normal((7, 2))
        f = [[u * u + l0 * u + k0 * v - c0, k1 * u + v * v + l1 * v - c1]
             for u, v in x.tolist()]
        jac = [[[2.0 * u + l0, k0], [k1, 2.0 * v + l1]] for u, v in x.tolist()]
        assert problem.f(x).tobytes() == np.array(f).tobytes()
        assert problem.jacobian(x).tobytes() == np.array(jac).tobytes()
        for i, point in enumerate(x):
            assert problem.f(point[None]).tobytes() == np.array(f[i:i + 1]).tobytes()
            assert problem.jacobian(point[None]).tobytes() == np.array(jac[i:i + 1]).tobytes()

    def test_scalar_holder_is_python_float_power(self):
        a, alpha, c = 0.3, 0.37, -0.2
        problem = build_fixture("scalar_holder", a=a, alpha=alpha, c=c, x0=1.5).problem
        x = np.random.default_rng(12).uniform(-2.0, 2.0, (17, 1))
        t = [u - a for u in x.ravel().tolist()]
        f = [math.copysign(float.__pow__(abs(d), 1.0 + alpha), d) / (1.0 + alpha) + c for d in t]
        jac = [float.__pow__(abs(d), alpha) for d in t]
        assert problem.f(x).tobytes() == np.array(f).reshape(17, 1).tobytes()
        assert problem.jacobian(x).tobytes() == np.array(jac).reshape(17, 1, 1).tobytes()

    def test_scalar_holder_overflow_is_inf(self):
        # Python's float power raises OverflowError; the entry reads inf instead
        problem = build_fixture("scalar_holder").problem
        x = np.array([[1e300], [-1e300], [0.5]])
        with np.errstate(over="ignore"):
            f = problem.f(x)
        assert f[:2, 0].tolist() == [math.inf, -math.inf]
        assert f[2:].tobytes() == problem.f(x[2:]).tobytes()


    @pytest.mark.parametrize("exponent", [1.5, 0.37, 1.999, 2.0])
    def test_float_power_is_operator_pow(self, exponent):
        tiny = 5e-324  # the smallest subnormal
        values = [0.0, tiny, 3 * tiny, 2.2e-308, 1e-200, 0.5, 1.0, 2.0, 1e10, 1e300,
                  math.inf, math.nan]
        base = np.array(values).reshape(3, 4)
        got = _float_power(base, exponent)
        assert got.shape == base.shape
        for value, power in zip(values, got.ravel().tolist()):
            try:
                want = operator.pow(value, exponent)
            except OverflowError:  # 1e300 past exponent 1: that entry alone reads inf
                want = math.inf
            assert math.isnan(want) if math.isnan(power) else power == want
            assert math.copysign(1.0, power) == math.copysign(1.0, want)


class TestScalarQuadratic:
    def test_bundled_constants(self):
        fx = build_fixture("scalar_quadratic")
        assert analytic_model(fx).eta == 0.5
        assert fx.analytic.l0 == 0.5
        assert analytic_model(fx).omega.nu == 0.0
        assert fx.known_solution[0] == SQRT2

    def test_tangency_variant(self):
        # |B F'(x) - 1| = |x - 1|: l0 = 1, eta = 0.5 = eta_max
        fx = build_fixture("scalar_quadratic", x0=1.0, b=0.5)
        assert fx.analytic.l0 == 1.0
        assert analytic_model(fx).eta == 0.5
        assert analytic_model(fx).omega.nu == 0.0

    def test_non_contractive_start_keeps_its_closed_form(self):
        fx = build_fixture("scalar_quadratic", x0=2.0, b=0.5)  # nu = 1
        assert analytic_model(fx).omega == HoelderOmega(1.0, 1.0, 1.0)
        cert = certify(analytic_model(fx))
        assert (cert.reason, cert.nu) == (REASON_NU_TOO_LARGE, 1.0)


class TestLinear:
    def test_certificate_shape(self):
        fx = build_fixture("linear")
        cert = certify(analytic_model(fx))
        assert cert.certified
        assert cert.nu_star == pytest.approx(analytic_model(fx).eta, abs=1e-12)
        assert cert.lambda_star == fx.problem.R
        assert cert.uniqueness_boundary == "closed"

    def test_one_step_solve(self):
        fx = build_fixture("linear")
        x, trace = fsi_solve(fx.problem)
        assert trace.num_steps == 1
        assert x == pytest.approx(fx.known_solution, abs=1e-14)

    def test_tiny_well_conditioned_matrix_is_invertible(self):
        # det = 1e-320 at condition number 1: only inv decides invertibility.
        # The residual test is absolute, so it is set below the 1e-160 scale of F.
        fx = build_fixture("linear", A=((1e-160, 0.0), (0.0, 1e-160)), b_vec=(1e-160, 2e-160))
        x, trace = fsi_solve(fx.problem, stop=StoppingRule(tol_residual=1e-300))
        assert trace.num_steps >= 1
        assert x == pytest.approx((1.0, 2.0), rel=1e-15)
        assert fx.known_solution == pytest.approx((1.0, 2.0), rel=1e-15)

    def test_singular_matrix_refused(self):
        with pytest.raises(BadParameters, match=r"^A must be invertible$"):
            build_fixture("linear", A=((1.0, 2.0), (2.0, 4.0)))

    @pytest.mark.parametrize("k", [1e8, 1e12, 1e14, 1e15])
    def test_ill_conditioned_ball_holds_the_exact_solution(self, k):
        # B = inv(A) in floats, so nu = ||B A - I|| > 0; with nu = 0 the
        # certified ball at k = 1e12 missed the solution by 1.8e7
        rng = np.random.default_rng(3)
        u, v = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
        A = u @ np.diag([1.0, 1.0, 1.0, 1.0 / k]) @ v.T
        b_vec = (1.0, 2.0, 3.0, 4.0)
        fx = build_fixture("linear", A=A, b_vec=b_vec, x0=(0.0,) * 4, R=1e20)
        cert = certify(analytic_model(fx))
        assert cert.certified
        assert Fraction(cert.nu_star) >= max(map(abs, exact_solve(A, b_vec)))


def exact_solve(A, b):
    """The solution of A x = b for the float entries of A and b, in exact rationals."""
    n = len(b)
    rows = [[Fraction(a) for a in row] + [Fraction(r)] for row, r in zip(A.tolist(), b)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


class TestEtaFromTheProblem:
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    @pytest.mark.parametrize("name, kw", [
        ("scalar_quadratic", {}), ("scalar_quadratic", dict(x0=1.0, b=0.5)),
        ("scalar_holder", {}), ("poly2d", {}), ("linear", {}),
        ("linear", dict(x0=(0.3, -0.7))),
    ])
    def test_analytic_model_eta_is_eta_at_start(self, name, kw, norm):
        fx = build_fixture(name, norm=norm, **kw)
        assert analytic_model(fx).eta == eta_at_start(fx.problem)

    @pytest.mark.parametrize("name, kw", SOLVED_STARTS)
    def test_solved_start_builds_and_is_refused_once(self, name, kw):
        fx = build_fixture(name, **kw)
        assert fx.analytic is not None
        messages = []
        for make in (analytic_model, lambda f: estimate_majorant(f.problem)):
            with pytest.raises(BadParameters) as info:
                make(fx)
            messages.append(str(info.value))
        assert messages == ["x0 already solves the problem; nothing to certify"] * 2


class TestNuFromTheProblem:
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    @pytest.mark.parametrize("name", ["scalar_quadratic", "scalar_holder", "poly2d", "linear"])
    def test_analytic_nu_is_the_estimators_first_knot(self, name, norm):
        fx = build_fixture(name, norm=norm)
        om = estimate_omega(fx.problem, radii=[fx.problem.R], samples_per_radius=1)
        assert om.knots[0] == (0.0, analytic_model(fx).omega.nu)

    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_scalar_nu_equals_the_closed_forms(self, norm):
        # the closed forms the scalar fixtures once stated for nu
        rng = np.random.default_rng(31)
        for _ in range(200):
            b = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
            x0, c = rng.uniform(-10.0, 10.0), rng.uniform(0.1, 10.0)
            fx = build_fixture("scalar_quadratic", norm=norm, c=c, x0=x0, b=b)
            assert analytic_model(fx).omega.nu == abs(2.0 * b * x0 - 1.0)

            a, alpha, b = rng.uniform(-2.0, 2.0), rng.uniform(0.05, 0.95), abs(b)
            fx = build_fixture("scalar_holder", norm=norm, a=a, alpha=alpha, c=c, x0=x0, b=b)
            assert analytic_model(fx).omega.nu == abs(b * abs(x0 - a) ** alpha - 1.0)


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
                exact = EXACT[name](r)
                assert w <= exact + 1e-12
                assert w >= exact * 0.98 - 1e-12

    def test_analytic_dominates_omega_exact(self):
        # the Hoelder form nu + l0 v^alpha majorizes the true measure
        for name in ["scalar_quadratic", "scalar_holder", "poly2d"]:
            fx = build_fixture(name)
            p = analytic_model(fx).omega
            for v in np.linspace(0.0, fx.problem.R, 33):
                bound = p.nu + p.l0 * v ** p.alpha
                assert EXACT[name](v) <= bound + 1e-12


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

    def test_jacobian_of_a_stack(self):
        # the in-place Jacobian equals the textbook expression bit for bit and
        # matches a central difference of f, which is exact for quadratic f
        c, n = 0.9, 7
        problem = build_fixture("chandrasekhar", c=c, n=n).problem
        mu = (np.arange(n) + 0.5) / n
        kernel = (c / 2.0) * (1.0 / n) * mu[:, None] / (mu[:, None] + mu[None, :])
        h = 1.0 + np.random.default_rng(17).random((5, n))
        d = 1.0 - np.matmul(kernel, h[..., None])[..., 0]
        j = problem.jacobian(h)
        assert np.array_equal(j, np.eye(n) * d[..., None] - h[..., None] * kernel)
        assert np.array_equal(problem.jacobian(h[2]), j[2])
        t = 1e-2
        for k in range(n):
            e = t * np.eye(n)[k]
            diff = (problem.f(h + e) - problem.f(h - e)) / (2.0 * t)
            assert np.allclose(diff, j[..., k], rtol=0.0, atol=1e-12)

    def test_quadrature_nodes_inside_domain(self):
        fx = build_fixture("chandrasekhar", c=0.5, n=4)
        # midpoint nodes never touch mu = 0, so the kernel stays finite
        h = np.ones(4)
        assert np.all(np.isfinite(fx.problem.f(h)))
        assert np.all(np.isfinite(fx.problem.jacobian(h)))
