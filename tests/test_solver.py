"""Iteration engine, trace verification, measure estimation, uniqueness probe."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from exact_measures import EXACT
from fixedslope import norms, solver
from fixedslope.certificate import REASON_NU_TOO_LARGE, REASON_RADIUS_TOO_SMALL, certify
from fixedslope.errors import (
    BadParameters,
    EvaluationFailed,
    JacobianMissing,
    NotCertifiedError,
)
from fixedslope.majorant import (
    HoelderOmega,
    MajorantModel,
    TabulatedOmega,
    analyze,
    majorizing_terms,
)
from fixedslope.norms import matrix_norm, matrix_norms, vector_norm, vector_norms
from fixedslope.problems import analytic_model, build_fixture
from fixedslope.solver import (
    _STACK_FLOATS,
    Problem,
    StoppingRule,
    _probe_starts,
    _sphere_points,
    default_radii,
    estimate_majorant,
    eta_at_start,
    estimate_omega,
    fsi_solve,
    uniqueness_probe,
    verify_majorization,
)

SQRT2 = math.sqrt(2.0)


def _no_value(x):
    raise RuntimeError("no value here")


def quad_problem(**kw):
    return build_fixture("scalar_quadratic", **kw).problem


def holding(jacobians):
    """The largest n whose estimator stack holds at least this many n x n Jacobians."""
    return math.isqrt(_STACK_FLOATS // jacobians)


def one_step(problem, x, tol=1e-12):
    """One step x - B F(x) from x: a solve stopped after one iteration."""
    stop = StoppingRule(tol_step=tol, tol_residual=tol, max_iter=1)
    return fsi_solve(replace(problem, x0=np.asarray(x, dtype=float)), stop)


class TestFsiStep:
    def test_scalar_arithmetic(self):
        # x - B F(x) = 2 - (1/4) * 2 = 1.5
        x, trace = one_step(quad_problem(), [2.0])
        assert trace.num_steps == 1
        assert x[0] == 1.5

    def test_linear_exact_one_step(self):
        fx = build_fixture("linear")
        x, _ = one_step(fx.problem, [0.7, -0.3])
        assert x == pytest.approx(fx.known_solution, abs=1e-14)

    def test_fixed_point_at_root(self):
        p = quad_problem(x0=math.sqrt(2.0))
        x, trace = one_step(p, p.x0, tol=1e-300)  # F(x0) = 4.4e-16 still takes the step
        assert trace.num_steps == 1
        assert x == pytest.approx(p.x0, abs=1e-15)

    def test_single_evaluation(self):
        calls = []
        base = quad_problem()
        counted = Problem(
            f=lambda x: (calls.append(1), x ** 2 - 2.0)[1],
            slope=base.slope, x0=base.x0, R=base.R)
        _, trace = one_step(counted, [1.8])
        assert trace.num_steps == 1
        assert len(calls) == 2  # one F per recorded iterate: at x0 and after the step


class TestFsiSolve:
    def test_quadratic_converges(self):
        fx = build_fixture("scalar_quadratic")
        cert = certify(analytic_model(fx))
        x, trace = fsi_solve(fx.problem, cert=cert)
        assert abs(x[0] - SQRT2) <= 1e-10
        # for this scalar case the containment bound is tight
        assert abs(abs(x[0] - 2.0) - cert.nu_star) <= 1e-9
        assert trace.converged

    def test_linear_one_step(self):
        fx = build_fixture("linear")
        x, trace = fsi_solve(fx.problem)
        assert trace.num_steps == 1
        assert trace.residual_norms[-1] == 0.0
        assert trace.stop_reason == "residual_tol"

    def test_tangency_converges(self):
        fx = build_fixture("scalar_quadratic", x0=1.0, b=0.5)
        cert = certify(analytic_model(fx))
        x, trace = fsi_solve(fx.problem, cert=cert, stop=StoppingRule(max_iter=10000))
        assert abs(x[0] - SQRT2) <= 1e-10
        report = verify_majorization(trace, cert.model)
        assert all(s >= -1e-9 for s in report.step_slacks)

    def test_trace_shapes(self):
        fx = build_fixture("scalar_quadratic")
        cert = certify(analytic_model(fx))
        _, trace = fsi_solve(fx.problem, cert=cert)
        assert len(trace.iterates) == trace.num_steps + 1
        assert len(trace.residual_norms) == trace.num_steps + 1
        report = verify_majorization(trace, cert.model)
        assert len(report.scalar_steps) == trace.num_steps
        assert len(report.step_slacks) == trace.num_steps
        assert len(report.error_bounds) == trace.num_steps

    def test_trace_and_verification_share_one_sequence(self):
        fx = build_fixture("scalar_quadratic", b=0.05)
        cert = certify(analytic_model(fx))
        _, trace = fsi_solve(fx.problem, cert=cert)
        assert trace.num_steps > 16
        report = verify_majorization(trace, cert.model)
        preview = cert.scalar_sequence
        assert report.scalar_steps[:15] == [b - a for a, b in zip(preview, preview[1:])]
        assert report.error_bounds[:16] == [cert.nu_star - v for v in preview]
        assert tuple(itertools.islice(majorizing_terms(cert.model), len(preview))) == preview

    def test_max_iter_stop(self):
        fx = build_fixture("scalar_quadratic")
        _, trace = fsi_solve(fx.problem, stop=StoppingRule(max_iter=3))
        assert trace.stop_reason == "max_iter"
        assert trace.num_steps == 3

    def test_left_ball_stop(self):
        # divergent setup: slope with the wrong sign pushes away from the root
        p = Problem(f=lambda x: x ** 2 - 2.0,
                    slope=np.array([[-0.25]]), x0=np.array([2.0]), R=1.0)
        _, trace = fsi_solve(p)
        assert trace.stop_reason == "left_ball"
        for it in trace.iterates:
            assert abs(it[0] - 2.0) <= 1.0 + 1e-9

    def test_left_ball_returns_last_iterate_inside(self):
        p = Problem(f=lambda x: x ** 2 - 2.0,
                    slope=np.array([[-0.25]]), x0=np.array([2.0]), R=1.0)
        x, trace = fsi_solve(p)
        assert trace.stop_reason == "left_ball"
        assert x.tobytes() == trace.iterates[-1].tobytes()

    @pytest.mark.parametrize("norm", norms.NORM_KINDS)
    @pytest.mark.parametrize("name", ["scalar_quadratic", "scalar_holder", "poly2d", "linear",
                                      "chandrasekhar"])
    def test_step_norms_are_the_norms_of_the_steps(self, name, norm):
        # the kernel takes the step norms and the ball distances in one reduction
        _, trace = fsi_solve(build_fixture(name, norm=norm).problem)
        assert trace.converged and trace.num_steps >= 1
        for k, step in enumerate(trace.step_norms):
            assert step == vector_norm(trace.iterates[k + 1] - trace.iterates[k], norm)

    @pytest.mark.parametrize("norm", norms.NORM_KINDS)
    @pytest.mark.parametrize("name", ["scalar_quadratic", "poly2d"])
    def test_left_ball_stops_where_the_ball_test_does(self, name, norm):
        # the negated slope pushes every step away from the root until one would leave
        problem = build_fixture(name, norm=norm).problem
        p = replace(problem, slope=-problem.slope, R=0.5)
        x, trace = fsi_solve(p)
        assert trace.stop_reason == "left_ball" and trace.num_steps >= 1
        it = p.x0
        for k, kept in enumerate(trace.iterates):
            assert kept.tobytes() == it.tobytes()
            ahead = it - np.matmul(p.slope, p.f(it[None])[..., None])[0, :, 0]
            if vector_norm(ahead - p.x0, norm) > p.R + solver._SLACK:
                break
            it = ahead
        assert k == trace.num_steps
        assert x.tobytes() == it.tobytes()

    # at max_iter = 1 the run converges at its last allowed iterate: step_tol still wins
    @pytest.mark.parametrize("max_iter", [10000, 1])
    def test_step_tol_wins_over_residual_tol_on_one_step(self, max_iter):
        # F(x) = x - 1, B = 1/2: the first step is 7.5e-4 and leaves a residual of 7.5e-4
        p = Problem(f=lambda x: x - 1.0, slope=np.array([[0.5]]), x0=np.array([1.0015]), R=1.0)
        _, trace = fsi_solve(p, StoppingRule(tol_step=1e-3, tol_residual=1e-3, max_iter=max_iter))
        assert trace.num_steps == 1
        assert trace.residual_norms[-1] <= 1e-3
        assert trace.stop_reason == "step_tol"

    @pytest.mark.parametrize("tols", [
        (0.0, 1e-12), (1e-12, -1.0), (math.nan, 1e-12), (1e-12, math.nan), (math.inf, 1e-12),
    ])
    def test_stopping_tolerances_finite_and_positive(self, tols):
        with pytest.raises(BadParameters):
            StoppingRule(*tols)

    @pytest.mark.parametrize("max_iter", [math.nan, math.inf, 2.5, 0])
    def test_max_iter_whole_and_positive(self, max_iter):
        # steps >= nan is never true, so a NaN max_iter never stopped a run
        with pytest.raises(BadParameters, match=rf"got {max_iter!r}$"):
            StoppingRule(max_iter=max_iter)

    def test_uncertified_certificate_rejected(self):
        fx = build_fixture("scalar_quadratic")
        cert = certify(MajorantModel(eta=1.0, R=10.0, omega=HoelderOmega(1.0, 1.0, 0.0)))
        with pytest.raises(NotCertifiedError):
            fsi_solve(fx.problem, cert=cert)

    @pytest.mark.parametrize("f, message", [
        (lambda x: np.full_like(x, np.nan), "operator returned non-finite values"),
        (_no_value, "operator evaluation raised: no value here"),
        (lambda x: np.zeros((len(x), 2)), "operator returned shape (1, 2), expected (1, 1)"),
    ], ids=["nan", "raises", "shape"])
    def test_evaluation_failure_propagates(self, f, message):
        p = Problem(f=f, slope=np.array([[1.0]]), x0=np.array([0.0]), R=1.0)
        with pytest.raises(EvaluationFailed) as info:
            fsi_solve(p)
        assert str(info.value) == message
        # the probe reports the same text per start instead of raising
        cert = certify(analytic_model(build_fixture("scalar_quadratic")))
        report = uniqueness_probe(replace(p, R=cert.lambda_star), cert, num_starts=3)
        assert report.failures == [(i, f"evaluation failed: {message}") for i in range(3)]

    def test_no_linear_solves(self, monkeypatch):
        # the iteration applies B but never inverts or solves with it
        def boom(*a, **k):
            raise AssertionError("linear solve attempted")

        for name in ("solve", "inv", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name, boom)
        fx = build_fixture("scalar_quadratic")
        cert = certify(analytic_model(fx))
        x, _ = fsi_solve(fx.problem, cert=cert)
        assert abs(x[0] - SQRT2) <= 1e-10
        one_step(fx.problem, [1.9])
        estimate_omega(fx.problem, "direct", radii=[0.5, 1.0], samples_per_radius=4)


class TestVerifyMajorization:
    def test_certified_fixtures_pass(self):
        for name, kw in [("scalar_quadratic", {}), ("scalar_holder", {}),
                         ("poly2d", {}), ("linear", {})]:
            fx = build_fixture(name, **kw)
            model = analytic_model(fx)
            cert = certify(model)
            assert cert.certified
            _, trace = fsi_solve(fx.problem, cert=cert)
            report = verify_majorization(trace, model)
            assert report.passed, f"{name}: worst slack {report.worst_slack}"

    def test_error_bounds_start_at_the_nu_star_of_analyze(self):
        # v_0 = 0, so the first a-priori bound is nu_star itself
        for name in ("scalar_quadratic", "scalar_holder", "poly2d"):
            fx = build_fixture(name)
            model = analytic_model(fx)
            _, trace = fsi_solve(fx.problem, cert=certify(model))
            report = verify_majorization(trace, model)
            assert report.error_bounds[0] == analyze(model).nu_star

    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_tail_slacks_match_per_iterate_loop(self, norm):
        fx = build_fixture("poly2d", norm=norm)
        model = analytic_model(fx)
        _, trace = fsi_solve(fx.problem, cert=certify(model))
        report = verify_majorization(trace, model)
        assert trace.converged and trace.num_steps > 2
        x_final = trace.iterates[-1]
        expected = [report.error_bounds[k] - vector_norm(x_final - trace.iterates[k], norm)
                    for k in range(trace.num_steps)]
        assert report.tail_slacks == expected

    def test_single_step_linear_equality(self):
        fx = build_fixture("linear")
        model = analytic_model(fx)
        _, trace = fsi_solve(fx.problem)
        report = verify_majorization(trace, model)
        # v_1 - v_0 = eta = ||x_1 - x_0|| by construction
        assert report.step_slacks[0] == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_cooked_model_fails_reported_not_raised(self):
        fx = build_fixture("scalar_quadratic")
        _, trace = fsi_solve(fx.problem)
        # certifiable model whose eta is far below the actual first step
        lying = MajorantModel(eta=0.05, R=10.0, omega=HoelderOmega(0.5, 1.0, 0.0))
        report = verify_majorization(trace, lying)
        assert not report.passed
        assert report.worst_slack < -0.1

    def test_run_that_left_its_ball_fails(self):
        # the model certifies nu_star = 0.513, but the solution sqrt(2) lies
        # 0.586 from x0 = 2: the second iterate would leave the ball
        fx = build_fixture("scalar_quadratic")
        wrong = MajorantModel(eta=0.5, R=10.0, omega=HoelderOmega(0.1, 1.0))
        cert = certify(wrong)
        assert cert.nu_star == pytest.approx(0.513, abs=1e-3)
        _, trace = fsi_solve(fx.problem, cert=cert)
        assert (trace.stop_reason, trace.num_steps) == ("left_ball", 1)
        report = verify_majorization(trace, wrong)
        assert min(report.step_slacks) >= -1e-9  # the one step taken is majorized
        assert not report.passed

    def test_uncertifiable_model_raises(self):
        fx = build_fixture("scalar_quadratic")
        _, trace = fsi_solve(fx.problem)
        bad = MajorantModel(eta=1.0, R=10.0, omega=HoelderOmega(1.0, 1.0, 0.0))
        with pytest.raises(NotCertifiedError):
            verify_majorization(trace, bad)

    def test_radius_too_small_model_raises(self):
        # the majorant's root 2 - sqrt(2) lies past R: certify refuses with radius_too_small
        fx = build_fixture("scalar_quadratic")
        _, trace = fsi_solve(fx.problem)
        short = MajorantModel(eta=0.5, R=0.3, omega=HoelderOmega(0.5, 1.0, 0.0))
        assert certify(short).reason == REASON_RADIUS_TOO_SMALL
        with pytest.raises(NotCertifiedError):
            verify_majorization(trace, short)

    def test_nu_too_large_tabulated_model_raises(self):
        fx = build_fixture("scalar_quadratic")
        _, trace = fsi_solve(fx.problem)
        flat = MajorantModel(eta=0.5, R=10.0, omega=TabulatedOmega(((0.0, 1.0), (10.0, 1.0))))
        assert certify(flat).reason == REASON_NU_TOO_LARGE
        with pytest.raises(NotCertifiedError, match=r"^omega\(0\) = 1\.0 >= 1: "):
            verify_majorization(trace, flat)

    def test_empty_trace_rejected(self):
        fx = build_fixture("scalar_quadratic", x0=math.sqrt(2.0))
        _, trace = fsi_solve(fx.problem)  # converges with zero steps
        with pytest.raises(ValueError):
            verify_majorization(trace, analytic_model(build_fixture("scalar_quadratic")))


class TestEstimateOmega:
    def test_linear_all_zero(self):
        fx = build_fixture("linear")
        om = estimate_omega(fx.problem, "direct", radii=[1.0, 2.0, 5.0])
        assert all(w <= 1e-14 for _, w in om.knots)

    def test_quadratic_direct_exact(self):
        fx = build_fixture("scalar_quadratic")
        radii = [0.25, 0.5, 1.0, 1.5, 2.0]
        om = estimate_omega(fx.problem, "direct", radii=radii)
        for r, w in om.knots:
            assert w == r / 2.0  # exact: two-point sphere, binary radii

    def test_quadratic_centered_equals_direct(self):
        # B F'(x0) = 1 exactly here, so the two modes coincide
        fx = build_fixture("scalar_quadratic")
        radii = [0.5, 1.0, 2.0]
        direct = estimate_omega(fx.problem, "direct", radii=radii)
        centered = estimate_omega(fx.problem, "centered", radii=radii)
        assert direct.knots[1:] == centered.knots[1:]
        assert centered.knots[0] == (0.0, 0.0)

    def test_monotone_output(self):
        fx = build_fixture("poly2d")
        om = estimate_omega(fx.problem, "direct", radii=[0.5, 1.0, 1.5, 2.0],
                            samples_per_radius=16, seed=3)
        values = [w for _, w in om.knots]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_jacobian_missing(self):
        p = Problem(f=lambda x: x, slope=np.eye(1), x0=np.zeros(1), R=1.0)
        with pytest.raises(JacobianMissing):
            estimate_omega(p, "direct", radii=[0.5])

    def test_non_finite_jacobian(self):
        p = Problem(f=lambda x: x, slope=np.eye(1), x0=np.zeros(1), R=1.0,
                    jacobian=lambda x: np.full(x.shape + (1,), np.nan))
        with pytest.raises(EvaluationFailed, match=r"^jacobian returned non-finite values$"):
            estimate_omega(p, "direct", radii=[0.5])

    @staticmethod
    def _far_jacobian(norm, far, farther=None, rows=None):
        """Slope [[1, -1], [1, 1]]; F' is I within max-distance 0.5 of x0 = (1, 1).

        F' is far up to max-distance 1.25 and farther (default far) beyond.
        Each call's row count is appended to rows, if given.
        """
        x0 = np.array([1.0, 1.0])
        farther = far if farther is None else farther

        def jacobian(x):
            if rows is not None:
                rows.append(len(x))
            d = np.abs(x - x0).max(axis=-1)[:, None, None]
            return np.where(d <= 0.5, np.eye(2), np.where(d <= 1.25, far, farther))

        return Problem(f=lambda x: x - 1.0, slope=np.array([[1.0, -1.0], [1.0, 1.0]]),
                       x0=x0, R=2.0, jacobian=jacobian, norm=norm)

    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    @pytest.mark.parametrize("far, farther", [
        (1e308, None), (np.nan, None), (np.inf, None), (1e308, np.nan), (np.nan, 1e308)])
    def test_non_finite_sample_raises(self, norm, far, farther):
        # 1e308: F' is finite, but a row of B F'(x) sums 1e308 + 1e308.  Every
        # sample at radius 1 is far, after the finite radius 0.25 has set the
        # running max, so a nan must not meet the two norm's SVD.  All three
        # radii share one stack; the first bad radius is named, and only its
        # rows are searched for non-finite F', so a nan at radius 2 (farther,
        # at least its axis points) does not hide an overflow at radius 1.
        message = (f"B F'(x) is not finite in the {norm} norm at radius 1.0" if far == 1e308
                   else "jacobian returned non-finite values")
        rows = []
        with pytest.raises(EvaluationFailed) as info:
            estimate_omega(self._far_jacobian(norm, far, farther, rows), "direct",
                           radii=[0.25, 1.0, 2.0], samples_per_radius=8)
        assert str(info.value) == message
        assert rows == [1, 24]

    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_non_finite_start_product_raises(self, norm):
        # B F'(x0) overflows while F'(x0) is finite: nu is not finite
        problem = replace(self._far_jacobian(norm, 1e308), x0=np.array([9.0, 9.0]), R=0.5)
        with pytest.raises(EvaluationFailed) as info:
            estimate_omega(problem, "direct", radii=[0.5])
        assert str(info.value) == f"B F'(x) is not finite in the {norm} norm at radius 0.0"

    @pytest.mark.parametrize("row", [(1e308, 1e308), (1e308, -1e308)], ids=["inf", "nan"])
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_non_finite_eta_raises(self, norm, row):
        # F(x0) = (2, 2) is finite, B F(x0) is not: eta is refused as nu is, never returned
        problem = Problem(f=lambda x: np.full_like(x, 2.0), slope=np.array([row, (0.0, 1.0)]),
                          x0=np.zeros(2), R=1.0, norm=norm)
        with pytest.raises(EvaluationFailed) as info:
            eta_at_start(problem)
        assert str(info.value) == f"B F(x0) is not finite in the {norm} norm"
        with pytest.raises(EvaluationFailed):
            estimate_majorant(problem, radii=[1.0])

    def test_radii_validation(self):
        fx = build_fixture("scalar_quadratic")
        with pytest.raises(BadParameters):
            estimate_omega(fx.problem, "direct", radii=[2.0, 1.0])
        with pytest.raises(BadParameters):
            estimate_omega(fx.problem, "direct", radii=[5.0, 20.0])
        with pytest.raises(BadParameters):
            estimate_omega(fx.problem, "direct", radii=[])
        linear = build_fixture("linear").problem  # samples a NaN radius without failing
        for bad in ([math.nan], [1.0, math.nan], [math.inf]):
            with pytest.raises(BadParameters):
                estimate_omega(linear, "direct", radii=bad)

    @pytest.mark.parametrize("mode", ["direct", "centered"])
    def test_nu_not_contractive(self, mode):
        # the estimate starts at nu of any size; only certify refuses it
        p = quad_problem(x0=2.0, b=0.5)  # |2 b x0 - 1| = 1, B F'(x) - 1 = x - 1
        assert estimate_omega(p, mode, radii=[0.5]).knots == ((0.0, 1.0), (0.5, 1.5))
        model = estimate_majorant(p, mode=mode, radii=[5.0, 10.0])
        assert model.omega.knots == ((0.0, 1.0), (5.0, 6.0), (10.0, 11.0))
        cert = certify(model)
        assert (cert.reason, cert.nu) == (REASON_NU_TOO_LARGE, 1.0)

    @pytest.mark.parametrize("samples", [2.5, math.nan, math.inf, 0, -1])
    def test_samples_whole_and_positive(self, samples):
        problem = build_fixture("poly2d").problem
        with pytest.raises(BadParameters, match=rf"^samples_per_radius must be a whole "
                                                rf"number >= 1, got {samples!r}$"):
            estimate_omega(problem, "direct", radii=[1.0], samples_per_radius=samples)

    def test_whole_float_samples_count(self):
        problem = build_fixture("poly2d").problem
        assert (estimate_omega(problem, "direct", radii=[1.0], samples_per_radius=4.0)
                == estimate_omega(problem, "direct", radii=[1.0], samples_per_radius=4))

    def test_estimator_consistency_two_percent(self):
        # analytic measures are reproduced within 2% at every radius
        for name, samples in [("scalar_quadratic", 8), ("scalar_holder", 8),
                              ("poly2d", 64)]:
            fx = build_fixture(name)
            radii = list(np.linspace(fx.problem.R / 8, fx.problem.R, 8))
            om = estimate_omega(fx.problem, "direct", radii=radii,
                                samples_per_radius=samples, seed=0)
            for r, w in om.knots[1:]:
                exact = EXACT[name](r)
                assert w <= exact * (1.0 + 1e-9)  # lower envelope
                assert w >= exact * 0.98, f"{name} at radius {r}"

    @pytest.mark.parametrize("mode", ["direct", "centered"])
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_batched_stacks_match_per_point_loop(self, norm, mode):
        # about 38 Jacobians a stack, so a stack boundary falls inside each
        # radius: 40 samples, or 2n signed axis directions in the one norm
        problem = build_fixture("chandrasekhar", n=holding(38), norm=norm).problem
        chunk = _STACK_FLOATS // problem.dim**2
        radii = [problem.R / 3.0, 2.0 * problem.R / 3.0, problem.R]
        om = estimate_omega(problem, mode, radii=radii, samples_per_radius=40, seed=5)

        eye = np.eye(problem.dim)
        bj0 = problem.slope @ problem.jacobian(problem.x0)
        nu = matrix_norm(bj0 - eye, norm)
        shift = eye if mode == "direct" else bj0
        running, lift = (nu, 0.0) if mode == "direct" else (0.0, nu)
        expected = [(0.0, nu)]
        rng = np.random.default_rng(5)
        for r in radii:
            points = _sphere_points(problem, r, 40, rng)
            assert chunk < len(points) and len(points) % chunk != 0
            worst = max(matrix_norm(problem.slope @ problem.jacobian(x) - shift, norm)
                        for x in points)
            running = max(running, worst)
            expected.append((r, running + lift))

        if norm == "two":
            assert np.allclose(om.knots, expected, rtol=0.0, atol=1e-12)
        else:
            assert om.knots == tuple(expected)

    def test_spectral_max_decomposes_few_matrices(self, monkeypatch):
        # 8 radii x 16 samples: each knot needs only the largest of its 16
        # spectral norms, and the Gram bounds rule most of the rest out
        decomposed = []

        def counting(a, kind="max"):
            if kind == "two":
                decomposed.append(np.asarray(a)[..., 0, 0].size)
            return matrix_norms(a, kind)

        problem = build_fixture("chandrasekhar", n=57, norm="two").problem
        monkeypatch.setattr(norms, "matrix_norms", counting)
        estimate_omega(problem, "centered", radii=default_radii(problem.R, 8),
                       samples_per_radius=16, seed=3)
        assert 0 < sum(decomposed) <= 16  # of 128


    @pytest.mark.parametrize("samples", [1, 3, 41])  # n > 1: 3 < 2n <= 38 < 41
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    @pytest.mark.parametrize("n", [1, 2, 19])
    def test_sphere_points_keep_the_per_direction_stream(self, n, norm, samples):
        # the sampled points, and so every estimate, are those of drawing one
        # direction at a time: axis vectors, then corners, then Gaussians; a
        # group of radii draws the points of its radii drawn one after another
        def per_direction(problem, radius, rng):
            if n == 1:  # the two-point sphere, enumerated
                return problem.x0 + radius * np.array([[-1.0], [1.0]])
            directions = []
            if norm == "one":
                for j in range(n):
                    for sign in (1.0, -1.0):
                        d = np.zeros(n)
                        d[j] = sign
                        directions.append(d)
            elif norm == "max":
                directions.extend(rng.choice([-1.0, 1.0], size=n)
                                  for _ in range((samples + 1) // 2))
            while len(directions) < samples:
                d = rng.standard_normal(n)
                directions.append(d / vector_norm(d, norm))
            return problem.x0 + radius * np.array(directions)

        problem = build_fixture("chandrasekhar", n=n, norm=norm).problem
        radii = (0.25, 0.5, 1.0)
        old, new, grouped = (np.random.default_rng(11) for _ in range(3))
        drawn = []
        for radius in radii:
            expected = per_direction(problem, radius, old)
            points = _sphere_points(problem, radius, samples, new)
            assert points.shape == expected.shape
            assert points.tobytes() == expected.tobytes()
            drawn.append(points)
        group = _sphere_points(problem, radii, samples, grouped)
        assert group.shape == (sum(map(len, drawn)), n)
        assert group.tobytes() == np.concatenate(drawn).tobytes()
        assert grouped.bit_generator.state == new.bit_generator.state


    @pytest.mark.parametrize("shape", [(1, 2), (3, 5), (32, 8), (7, 57)])
    def test_max_norm_corners_draw_as_rng_choice(self, shape):
        # the corners take rng.choice's draws and leave its stream where it would
        k, n = shape
        problem = build_fixture("chandrasekhar", n=n, norm="max").problem
        for seed in range(50):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            corners = old.choice([-1.0, 1.0], size=shape)
            points = _sphere_points(problem, 0.5, 2 * k - 1, new)
            assert points[:k].tobytes() == (problem.x0 + 0.5 * corners).tobytes()
            old.standard_normal((k - 1, n))  # the Gaussian directions after the corners
            assert old.random() == new.random()


@pytest.mark.parametrize("num, count", [(1, 1), (3, 3), (3.0, 3), (np.int64(4), 4)])
def test_default_radii_whole_count(num, count):
    radii = default_radii(2.0, num)
    assert len(radii) == count and radii[-1] == 2.0
    assert radii == default_radii(2.0, count)


@pytest.mark.parametrize("num", [2.5, math.nan, math.inf, -math.inf, 0, -3])
def test_default_radii_refuses_other_counts(num):
    with pytest.raises(BadParameters,
                       match=rf"^number of radii must be a whole number >= 1, got {num!r}$"):
        default_radii(2.0, num)


def fresh_array_omega(problem, mode, radii, samples, seed):
    """Knots of estimate_omega radius by radius, from fresh arrays and every matrix's own norm."""
    eye = np.eye(problem.dim)
    bj0 = problem.slope @ problem.jacobian(problem.x0[None])[0]
    nu = matrix_norm(bj0 - eye, problem.norm)
    shift = eye if mode == "direct" else bj0
    running, lift = (nu, 0.0) if mode == "direct" else (0.0, nu)
    chunk = max(1, _STACK_FLOATS // problem.dim**2)
    rng = np.random.default_rng(seed)
    knots = [(0.0, nu)]
    for r in radii:
        points = _sphere_points(problem, r, samples, rng)
        for lo in range(0, len(points), chunk):
            stack = np.matmul(problem.slope, problem.jacobian(points[lo:lo + chunk])) - shift
            running = max(running, float(matrix_norms(stack, problem.norm).max()))
        knots.append((r, running + lift))
    return tuple(knots)


class TestEstimatorWorkspace:
    @pytest.mark.parametrize("num_radii, samples", [(1, 1), (3, 4), (6, 12), (24, 64)])
    @pytest.mark.parametrize("mode", ["direct", "centered"])
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    @pytest.mark.parametrize("name, params", [
        ("chandrasekhar", {"n": 2}),
        ("chandrasekhar", {"n": 8}),
        # about 167 Jacobians a stack: whole radii leave part of it empty
        ("chandrasekhar", {"n": holding(167)}),
        ("chandrasekhar", {"n": 15}),
        ("chandrasekhar", {"n": holding(38)}),  # about 38: 64 samples span two stacks
        # about 20 a stack: 64 samples span four stacks, the last one partial
        ("chandrasekhar", {"n": holding(20)}),
        ("poly2d", {}),
        ("scalar_quadratic", {}),
        ("scalar_holder", {}),
    ])
    def test_knots_equal_fresh_arrays_per_stack(self, name, params, norm, mode,
                                                num_radii, samples):
        problem = build_fixture(name, norm=norm, **params).problem
        radii = default_radii(problem.R, num_radii)
        for seed in range(3):
            om = estimate_omega(problem, mode, radii=radii, samples_per_radius=samples,
                                seed=seed)
            assert om.knots == fresh_array_omega(problem, mode, radii, samples, seed)

    @pytest.mark.parametrize("norm, n, samples, num_radii, sizes", [
        ("max", 57, 16, 8, [8]),  # one radius a stack, all eight drawn at once
        ("one", 29, 16, 8, [8]),  # 58 points a radius: the 2n axis vectors
        ("max", 15, 64, 24, [16, 8]),  # four radii a stack, four stacks a draw
        ("two", 57, 320, 4, [1, 1, 1, 1]),  # a radius's points pass a quarter stack
    ])
    def test_sphere_points_drawn_for_whole_stacks(self, monkeypatch, norm, n, samples,
                                                  num_radii, sizes):
        drawn = []

        def counting(problem, radius, samples, rng):
            drawn.append(np.size(radius))
            return _sphere_points(problem, radius, samples, rng)

        problem = build_fixture("chandrasekhar", n=n, norm=norm).problem
        monkeypatch.setattr(solver, "_sphere_points", counting)
        estimate_omega(problem, "direct", radii=default_radii(problem.R, num_radii),
                       samples_per_radius=samples, seed=0)
        assert drawn == sizes

    @pytest.mark.parametrize("mode", ["direct", "centered"])
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    @pytest.mark.parametrize("n", [15, 29, 43, 57])
    def test_stack_budget_never_moves_a_result(self, monkeypatch, n, norm, mode):
        # 8 radii x 16 samples pack differently under each budget: all radii
        # in one stack, a few whole radii a stack, or each radius over
        # several stacks.  No product, shift or norm may span a stack: one
        # GEMM over a whole stack moves the two-norm knots at n = 57, seed 1
        # (OpenBLAS 0.3 on an AVX2 Xeon).
        problem = build_fixture("chandrasekhar", n=n, norm=norm).problem
        radii = default_radii(problem.R, 8)
        results = []
        for floats in (2**14, 2**15, 2**16):
            monkeypatch.setattr(solver, "_STACK_FLOATS", floats)
            model = estimate_majorant(problem, mode, radii=radii, samples_per_radius=16, seed=1)
            results.append((model.omega.knots, certify(model)))
        assert results[1] == results[0]
        assert results[2] == results[0]

    @pytest.mark.parametrize("mode", ["direct", "centered"])
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_jacobian_arrays_are_never_written(self, norm, mode):
        # every call returns a view of one cached array, as a caching
        # evaluator might; the estimator may only read it
        base = build_fixture("chandrasekhar", n=15, norm=norm).problem
        rng = np.random.default_rng(2)
        cached = base.jacobian(base.x0 + 0.1 * rng.standard_normal((64, base.dim)))
        before = cached.tobytes()
        problem = replace(base, jacobian=lambda x: cached[:len(x)])
        om = estimate_omega(problem, mode, radii=[1.0, 2.0], samples_per_radius=16, seed=0)
        assert cached.tobytes() == before
        assert all(math.isfinite(w) for _, w in om.knots)

    @pytest.mark.parametrize("mode", ["direct", "centered"])
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_read_only_jacobian(self, norm, mode):
        # linear's Jacobian is a read-only np.broadcast_to view: a write would raise
        problem = build_fixture("linear", norm=norm).problem
        assert not problem.jacobian(np.zeros((3, 2))).flags.writeable
        om = estimate_omega(problem, mode, radii=[1.0, 5.0], samples_per_radius=8)
        assert all(w <= 1e-14 for _, w in om.knots)

    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_memory_does_not_grow_with_the_budget(self, norm):
        # one radius of the smaller budget fills a whole stack, so 16 times
        # the samples may add only the larger point stacks, not larger
        # Jacobian stacks or norm scratch
        problem = build_fixture("chandrasekhar", n=57, norm=norm).problem
        radii = default_radii(problem.R, 4)
        small = _STACK_FLOATS // problem.dim**2

        def peak(samples):
            estimate_omega(problem, "centered", radii=radii, samples_per_radius=samples, seed=1)
            tracemalloc.start()
            try:
                estimate_omega(problem, "centered", radii=radii, samples_per_radius=samples,
                               seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rng = np.random.default_rng(0)
        extra = (len(_sphere_points(problem, 1.0, 16 * small, rng))
                 - len(_sphere_points(problem, 1.0, small, rng))) * problem.x0.nbytes
        assert 0 < extra
        assert peak(16 * small) - peak(small) <= 3 * extra


class TestEstimateMajorant:
    def test_centered_mode_shifts_by_nu(self):
        fx = build_fixture("poly2d")
        m = estimate_majorant(fx.problem, mode="centered", seed=0)
        assert m.eta == pytest.approx(analytic_model(fx).eta, abs=1e-12)
        assert m.omega.value_and_integral(0.0)[0] <= 1e-12  # nu is ~0 for the exact inverse slope
        assert m.R == fx.problem.R

    @pytest.mark.parametrize("mode", ["direct", "centered"])
    def test_non_contractive_start_is_sampled_then_refused(self, mode):
        problem = quad_problem(b=0.5)  # x0 = 2: nu = |2 b x0 - 1| = 1
        rows = []
        counted = replace(problem, jacobian=lambda x: rows.append(len(x)) or problem.jacobian(x))
        cert = certify(estimate_majorant(counted, mode=mode, radii=[5.0, 10.0]))
        assert (cert.reason, cert.nu) == (REASON_NU_TOO_LARGE, 1.0)
        assert rows == [1, 4]  # the start once, then both two-point spheres in one stack

    @pytest.mark.parametrize("estimate", [estimate_omega, estimate_majorant])
    @pytest.mark.parametrize("mode", ["direct", "centered"])
    def test_start_jacobian_evaluated_once(self, mode, estimate):
        problem = build_fixture("poly2d").problem  # R = 2
        rows = []
        counted = replace(problem, jacobian=lambda x: rows.append(len(x)) or problem.jacobian(x))
        estimate(counted, mode=mode, radii=[1.0, 2.0], samples_per_radius=4)
        assert rows == [1, 8]  # the start, then both radii in one stack

    @pytest.mark.parametrize("mode", ["direct", "centered"])
    def test_radii_short_of_R_refused_before_sampling(self, mode):
        problem = build_fixture("poly2d").problem  # R = 2
        rows = []
        counted = replace(problem, jacobian=lambda x: rows.append(len(x)) or problem.jacobian(x))
        with pytest.raises(BadParameters, match=r"largest radius 0\.5 is below R=2\.0"):
            estimate_majorant(counted, mode=mode, radii=[0.5], samples_per_radius=4)
        assert rows == []  # no Jacobian at all, not even the start's
        # estimate_omega only measures, so it still tabulates such radii
        om = estimate_omega(problem, mode, radii=[0.5], samples_per_radius=4)
        assert om.max_radius() == 0.5

    def test_solved_start_rejected(self):
        # c = x0^2 exactly in floats, so F(x0) = 0 and eta = 0
        fx = build_fixture("scalar_quadratic", c=4.0, x0=2.0)
        with pytest.raises(BadParameters):
            estimate_majorant(fx.problem)


class TestUniquenessProbe:
    def test_quadratic_hundred_starts(self):
        fx = build_fixture("scalar_quadratic")
        cert = certify(analytic_model(fx))
        report = uniqueness_probe(fx.problem, cert, num_starts=100, seed=0, tol=1e-8)
        assert report.passed
        assert not report.failures
        for lim in report.limits:
            assert abs(lim[0] - SQRT2) <= 1e-8

    def test_single_start_is_x0(self):
        fx = build_fixture("scalar_quadratic")
        cert = certify(analytic_model(fx))
        x_main, _ = fsi_solve(fx.problem)
        report = uniqueness_probe(fx.problem, cert, num_starts=1, seed=0, tol=1e-12)
        assert report.passed
        assert report.limits[0] == pytest.approx(x_main, abs=1e-12)

    def test_tangency_ball(self):
        # lambda_star = nu_star = 1 around x0 = 1: starts in (0, 2) all reach sqrt(2)
        fx = build_fixture("scalar_quadratic", x0=1.0, b=0.5)
        cert = certify(analytic_model(fx))
        report = uniqueness_probe(fx.problem, cert, num_starts=50, seed=4, tol=1e-8)
        assert report.passed
        for lim in report.limits:
            assert abs(lim[0] - SQRT2) <= 1e-8

    @pytest.mark.parametrize("fixture, norm", [
        ("poly2d", "max"), ("poly2d", "one"), ("poly2d", "two"), ("chandrasekhar", "one"),
        *((name, norm) for name in ("scalar_quadratic", "scalar_holder")
          for norm in norms.NORM_KINDS),
    ], ids=["max", "one", "two", "blocks",
            *(f"{name}-{norm}" for name in ("scalar_quadratic", "scalar_holder")
              for norm in norms.NORM_KINDS)])
    def test_max_pairwise_distance_matches_pair_loop(self, fixture, norm):
        # loose stopping keeps the limits apart, so the distances are not all 0
        if fixture == "chandrasekhar":
            # limits of n = 40 go in blocks of 13 rows, the last one partial
            problem = build_fixture(fixture, n=40, norm=norm).problem
            cert = certify(estimate_majorant(problem, seed=1))
            num_starts, stop = _STACK_FLOATS // (13 * problem.dim), StoppingRule(1e-3, 1e-3)
        else:
            fx = build_fixture(fixture, norm=norm)
            problem, cert = fx.problem, certify(analytic_model(fx))
            num_starts, stop = 30, StoppingRule(tol_step=1e-4, tol_residual=1e-4)
        report = uniqueness_probe(problem, cert, num_starts=num_starts, seed=2, tol=1.0,
                                  stop=stop)
        limits = report.limits
        assert len(limits) == num_starts
        if fixture == "chandrasekhar":
            assert _STACK_FLOATS // (num_starts * problem.dim) == 13
            assert 13 < num_starts - 1 and (num_starts - 1) % 13 != 0
        expected = max(vector_norm(a - b, norm)
                       for i, a in enumerate(limits) for b in limits[i + 1:])
        assert expected > 0.0
        assert report.max_pairwise_distance == expected

    @pytest.mark.parametrize("case, stop, outcomes", [
        (("poly2d", "max"), None, {"converged"}),
        (("poly2d", "one"), None, {"converged"}),
        (("poly2d", "two"), None, {"converged"}),
        (("linear", "max"), None, {"converged"}),
        (("chandrasekhar", "one"), None, {"converged"}),
        (("poly2d", "two"), StoppingRule(max_iter=3), {"stopped with max_iter"}),
        (("poly2d", "max"), StoppingRule(1e-3, 1e-3, max_iter=3),
         {"converged", "stopped with max_iter"}),
        (("flaky", "max"), None, {
            "converged", "evaluation failed: operator returned non-finite values",
            "evaluation failed: operator evaluation raised: outside the model's domain"}),
    ])
    def test_batched_probe_matches_per_start_solves(self, case, stop, outcomes):
        name, norm = case
        if name == "chandrasekhar":
            problem = build_fixture(name, n=8, norm=norm).problem
            cert = certify(estimate_majorant(problem, seed=1))
        else:
            fx = build_fixture("scalar_quadratic" if name == "flaky" else name, norm=norm)
            problem, cert = fx.problem, certify(analytic_model(fx))
        if name == "flaky":
            def flaky(x):  # NaN far right of the root 1.414, raises far left of it
                if np.any(x < 0.5):
                    raise RuntimeError("outside the model's domain")
                return np.where(x > 3.5, np.nan, x * x - 2.0)
            problem = replace(problem, f=flaky)
        assert cert.certified
        calls = []
        f = problem.f
        problem = replace(problem, f=lambda x: (calls.append(None), f(x))[1])

        report = uniqueness_probe(problem, cert, num_starts=40, seed=9, stop=stop)
        probe_calls = len(calls)
        limits, failures, evaluations = [], [], []
        for i, start in enumerate(_probe_starts(problem, cert.lambda_star, 40, 9)):
            rho = vector_norm(start - problem.x0, problem.norm)
            sub = replace(problem, x0=start, R=rho + cert.lambda_star)
            try:
                x, trace = fsi_solve(sub, stop)
            except EvaluationFailed as exc:
                failures.append((i, f"evaluation failed: {exc}"))
                evaluations.append(1)  # here every failure happens at the start
                continue
            evaluations.append(len(trace.residual_norms))  # one F per recorded iterate
            if trace.converged:
                limits.append(x)
            else:
                failures.append((i, f"stopped with {trace.stop_reason}"))
        assert [x.tobytes() for x in report.limits] == [x.tobytes() for x in limits]
        assert report.failures == failures
        # one stacked F call per kernel evaluation; for flaky the first call
        # raises, so each of the 40 starts is then evaluated alone once
        fallback = 40 if name == "flaky" else 0
        assert probe_calls == max(evaluations) + fallback
        seen = {msg for _, msg in failures} | ({"converged"} if limits else set())
        assert seen == outcomes

    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    @pytest.mark.parametrize("n", [1, 2, 19])
    def test_probe_starts_lie_inside_the_ball(self, n, norm):
        problem = Problem(f=None, slope=np.eye(n), x0=np.linspace(-1.0, 2.0, n), R=1.0,
                          norm=norm)
        starts = _probe_starts(problem, 0.6, 50, 3)
        assert starts.shape == (50, n)
        assert starts[0].tobytes() == problem.x0.tobytes()
        assert np.all(vector_norms(starts[1:] - problem.x0, norm) < 0.6 * (1.0 - 1e-6))
        assert starts.tobytes() == _probe_starts(problem, 0.6, 50, 3).tobytes()
        assert _probe_starts(problem, 0.6, 1, 3).tobytes() == problem.x0[None].tobytes()

    def test_needs_certified(self):
        from fixedslope.errors import NotCertifiedError
        fx = build_fixture("scalar_quadratic")
        bad = certify(MajorantModel(eta=1.0, R=10.0, omega=HoelderOmega(1.0, 1.0, 0.0)))
        with pytest.raises(NotCertifiedError):
            uniqueness_probe(fx.problem, bad, num_starts=2)

    @pytest.mark.parametrize("num_starts", [2.5, math.nan, math.inf, 0, -1])
    def test_num_starts_whole_and_positive(self, num_starts):
        fx = build_fixture("scalar_quadratic")
        cert = certify(analytic_model(fx))
        with pytest.raises(BadParameters, match=rf"^num_starts must be a whole number >= 1, "
                                                rf"got {num_starts!r}$"):
            uniqueness_probe(fx.problem, cert, num_starts=num_starts)
        assert uniqueness_probe(fx.problem, cert, num_starts=3.0).num_starts == 3


    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
    def test_tol_finite_and_non_negative(self, tol):
        # scalar_quadratic's root is unique: its limits agree to about 1e-13
        fx = build_fixture("scalar_quadratic")
        cert = certify(analytic_model(fx))
        calls = []
        problem = replace(fx.problem, f=lambda x: (calls.append(None), fx.problem.f(x))[1])
        with pytest.raises(BadParameters, match=rf"^tol must be finite and >= 0, got {tol!r}$"):
            uniqueness_probe(problem, cert, num_starts=3, tol=tol)
        assert not calls
        assert uniqueness_probe(problem, cert, num_starts=3, tol=1e-8).passed


def _screened(x):
    """F on the plane: raises left of u = -2, nan right of u = 2, and finite
    1e308 entries, whose one and two norms overflow, for u in [-2, -1);
    elsewhere x - 0.1, solved in one step by B = I."""
    u = x[..., :1]
    if np.any(u < -2.0):
        raise RuntimeError("outside the model's domain")
    return np.where(u > 2.0, np.nan, np.where(u < -1.0, 1e308, x - 0.1))


class TestFinitenessScreen:
    """Non-finite residuals are read from their norms; only a nan or inf entry fails a row."""

    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_fsi_solve(self, norm):
        p = Problem(f=_screened, slope=np.eye(2), x0=np.zeros(2), R=1.0, norm=norm)
        with pytest.raises(EvaluationFailed, match=r"^operator returned non-finite values$"):
            fsi_solve(replace(p, x0=np.array([2.5, 0.0])))
        with pytest.raises(EvaluationFailed,
                           match=r"^operator evaluation raised: outside the model's domain$"):
            fsi_solve(replace(p, x0=np.array([-2.5, 0.0])))
        # a finite residual whose norm overflows is not flagged: its step leaves the ball
        with np.errstate(over="ignore"):
            x, trace = fsi_solve(replace(p, x0=np.array([-1.5, 0.0])))
        assert trace.stop_reason == "left_ball"
        assert x.tolist() == [-1.5, 0.0]
        assert trace.residual_norms == [1e308 if norm == "max" else math.inf]
        x, trace = fsi_solve(p)
        assert trace.converged and x.tolist() == [0.1, 0.1]

    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_probe_rows_match_per_start_solves(self, norm):
        cert = certify(analytic_model(build_fixture("scalar_quadratic")))
        p = Problem(f=_screened, slope=np.eye(2), x0=np.zeros(2), R=cert.lambda_star,
                    norm=norm)
        with np.errstate(over="ignore"):
            report = uniqueness_probe(p, cert, num_starts=40, seed=4)
        failures = []
        for i, start in enumerate(_probe_starts(p, cert.lambda_star, 40, 4)):
            rho = vector_norm(start - p.x0, norm)
            try:
                with np.errstate(over="ignore"):
                    _, trace = fsi_solve(replace(p, x0=start, R=rho + cert.lambda_star))
            except EvaluationFailed as exc:
                failures.append((i, f"evaluation failed: {exc}"))
                continue
            if not trace.converged:
                failures.append((i, f"stopped with {trace.stop_reason}"))
        assert report.failures == failures
        assert {msg for _, msg in failures} == {
            "evaluation failed: operator returned non-finite values",
            "evaluation failed: operator evaluation raised: outside the model's domain",
            "stopped with left_ball"}
        assert len(report.limits) == 40 - len(failures) > 0


class TestContainment:
    def test_certified_iterates_stay_in_nu_star_ball(self):
        for name, kw in [("scalar_quadratic", {}), ("scalar_quadratic", dict(x0=1.0, b=0.5)),
                         ("scalar_holder", {}), ("poly2d", {}), ("linear", {})]:
            fx = build_fixture(name, **kw)
            cert = certify(analytic_model(fx))
            assert cert.certified
            _, trace = fsi_solve(fx.problem, cert=cert)
            assert trace.converged
            from fixedslope.norms import vector_norm
            for it in trace.iterates:
                assert vector_norm(it - fx.problem.x0, fx.problem.norm) <= cert.nu_star + 1e-9
