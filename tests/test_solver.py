"""Iteration engine, trace verification, measure estimation, uniqueness probe."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fixedslope.certificate import certify
from fixedslope.errors import (
    BadParameters,
    CertificateMissing,
    EvaluationFailed,
    JacobianMissing,
    NuNotContractive,
)
from fixedslope.majorant import HoelderOmega, MajorantModel, majorizing_terms
from fixedslope.norms import matrix_norm, vector_norm, vector_norms
from fixedslope.problems import analytic_model, build_fixture
from fixedslope.solver import (
    Problem,
    StoppingRule,
    _probe_starts,
    _sphere_points,
    estimate_majorant,
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
        preview = cert.scalar_sequence_preview
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

    def test_step_tol_wins_over_residual_tol_on_one_step(self):
        # F(x) = x - 1, B = 1/2: the first step is 7.5e-4 and leaves a residual of 7.5e-4
        p = Problem(f=lambda x: x - 1.0, slope=np.array([[0.5]]), x0=np.array([1.0015]), R=1.0)
        _, trace = fsi_solve(p, StoppingRule(tol_step=1e-3, tol_residual=1e-3))
        assert trace.num_steps == 1
        assert trace.residual_norms[-1] <= 1e-3
        assert trace.stop_reason == "step_tol"

    @pytest.mark.parametrize("tols", [
        (0.0, 1e-12), (1e-12, -1.0), (math.nan, 1e-12), (1e-12, math.nan), (math.inf, 1e-12),
    ])
    def test_stopping_tolerances_finite_and_positive(self, tols):
        with pytest.raises(BadParameters):
            StoppingRule(*tols)

    def test_uncertified_certificate_rejected(self):
        fx = build_fixture("scalar_quadratic")
        cert = certify(MajorantModel(eta=1.0, R=10.0, omega=HoelderOmega(1.0, 1.0, 0.0)))
        with pytest.raises(ValueError):
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
        with pytest.raises(CertificateMissing):
            verify_majorization(trace, bad)

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

    def test_nu_not_contractive(self):
        # estimate_omega only measures; estimate_majorant refuses the start
        p = quad_problem(x0=2.0, b=0.5)  # |2 b x0 - 1| = 1
        assert estimate_omega(p, "direct", radii=[0.5]).knots[0] == (0.0, 1.0)
        with pytest.raises(NuNotContractive):
            estimate_majorant(p, mode="direct", radii=[0.5])

    def test_estimator_consistency_two_percent(self):
        # analytic measures are reproduced within 2% at every radius
        for name, samples in [("scalar_quadratic", 8), ("scalar_holder", 8),
                              ("poly2d", 64)]:
            fx = build_fixture(name)
            radii = list(np.linspace(fx.problem.R / 8, fx.problem.R, 8))
            om = estimate_omega(fx.problem, "direct", radii=radii,
                                samples_per_radius=samples, seed=0)
            for r, w in om.knots[1:]:
                exact = fx.omega_exact(r)
                assert w <= exact * (1.0 + 1e-9)  # lower envelope
                assert w >= exact * 0.98, f"{name} at radius {r}"

    @pytest.mark.parametrize("mode", ["direct", "centered"])
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_batched_stacks_match_per_point_loop(self, norm, mode):
        # n = 19 puts 8192 // 19**2 = 22 Jacobians in a stack, which divides
        # neither the 40 samples per radius nor the 38 signed axis directions.
        problem = build_fixture("chandrasekhar", n=19, norm=norm).problem
        radii = [problem.R / 3.0, 2.0 * problem.R / 3.0, problem.R]
        om = estimate_omega(problem, mode, radii=radii, samples_per_radius=40, seed=5)

        eye = np.eye(problem.dim)
        bj0 = problem.slope @ problem.jacobian(problem.x0)
        shift = eye if mode == "direct" else bj0
        running = matrix_norm(bj0 - eye, norm) if mode == "direct" else 0.0
        expected = [(0.0, running)]
        rng = np.random.default_rng(5)
        for r in radii:
            points = _sphere_points(problem, r, 40, rng)
            assert len(points) % 22 != 0
            worst = max(matrix_norm(problem.slope @ problem.jacobian(x) - shift, norm)
                        for x in points)
            running = max(running, worst)
            expected.append((r, running))

        if norm == "two":
            assert np.allclose(om.knots, expected, rtol=0.0, atol=1e-12)
        else:
            assert om.knots == tuple(expected)


    @pytest.mark.parametrize("samples", [1, 3, 41])  # 3 < 2n <= 38 < 41
    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    @pytest.mark.parametrize("n", [2, 19])
    def test_sphere_points_keep_the_per_direction_stream(self, n, norm, samples):
        # the sampled points, and so every estimate, are those of drawing one
        # direction at a time: axis vectors, then corners, then Gaussians
        def per_direction(problem, radius, rng):
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
        old, new = np.random.default_rng(11), np.random.default_rng(11)
        for radius in (0.25, 0.5, 1.0):
            expected = per_direction(problem, radius, old)
            points = _sphere_points(problem, radius, samples, new)
            assert points.shape == expected.shape
            assert points.tobytes() == expected.tobytes()


class TestEstimateMajorant:
    def test_centered_mode_shifts_by_nu(self):
        fx = build_fixture("poly2d")
        m = estimate_majorant(fx.problem, mode="centered", seed=0)
        assert m.eta == pytest.approx(fx.analytic.eta, abs=1e-12)
        assert m.omega.value(0.0) <= 1e-12  # nu is ~0 for the exact inverse slope
        assert m.R == fx.problem.R

    @pytest.mark.parametrize("mode", ["direct", "centered"])
    def test_each_mode_refuses_before_sampling(self, mode):
        problem = quad_problem(b=0.5)  # x0 = 2: nu = |2 b x0 - 1| = 1
        calls = []

        def jacobian(x):
            calls.append(x)
            return problem.jacobian(x)

        counted = Problem(f=problem.f, slope=problem.slope, x0=problem.x0,
                          R=problem.R, jacobian=jacobian)
        with pytest.raises(NuNotContractive):
            estimate_majorant(counted, mode=mode)
        assert len(calls) <= 2

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

    @pytest.mark.parametrize("norm", ["max", "one", "two"])
    def test_max_pairwise_distance_matches_pair_loop(self, norm):
        # loose stopping keeps the limits apart, so the distances are not all 0
        fx = build_fixture("poly2d", norm=norm)
        cert = certify(analytic_model(fx))
        stop = StoppingRule(tol_step=1e-4, tol_residual=1e-4)
        report = uniqueness_probe(fx.problem, cert, num_starts=30, seed=2, tol=1.0,
                                  stop=stop)
        limits = report.limits
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
