"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single `criterion N PASS/FAIL` line (visible with
pytest -s).  Expected values come from independent oracles: closed-form
quadratics, dense grid scans of the raw scalar functions, and known
solutions of the bundled problems.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from fixedslope.certificate import certify
from fixedslope.comparison import (
    HoelderParams,
    _eta_max,
    check_holder_condition,
    compare_report,
)
from fixedslope.majorant import HoelderOmega, MajorantModel, analyze
from fixedslope.norms import vector_norm
from fixedslope.problems import analytic_model, build_fixture
from fixedslope.solver import (
    StoppingRule,
    estimate_majorant,
    estimate_omega,
    fsi_solve,
    uniqueness_probe,
    verify_majorization,
)

from test_majorant import truncated_sequence

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {summary}")
        raise
    print(f"criterion {num:2d} PASS: {summary}")


def certified_bundle():
    """Every bundled fixture that certifies, with the model used to do it."""
    bundle = []
    for name, kw in [
        ("scalar_quadratic", {}),
        ("scalar_quadratic", dict(x0=1.0, b=0.5)),  # eta = eta_max tangency
        ("scalar_holder", {}),
        ("poly2d", {}),
        ("linear", {}),
    ]:
        fx = build_fixture(name, **kw)
        model = analytic_model(fx)
        label = name if not kw else f"{name}{tuple(sorted(kw.items()))}"
        bundle.append((label, fx, model))
    fx = build_fixture("chandrasekhar", c=0.9, n=16, norm="one")
    model = estimate_majorant(fx.problem, mode="centered",
                              samples_per_radius=64, seed=0)
    bundle.append(("chandrasekhar", fx, model))
    return bundle


def test_criterion_1_threshold_reproduction():
    with criterion(1, "alpha=1, nu=0 thresholds are 2*l0*eta <= 1 (new) "
                      "and 4*l0*eta <= 1 (rival), exactly"):
        etas = list(np.linspace(0.001, 1.0, 1000)) + [0.25, 0.5]
        for eta in etas:
            p = HoelderParams(1.0, 1.0, 0.0, float(eta))
            assert check_holder_condition(p) == (2.0 * 1.0 * eta <= 1.0)
            assert compare_report(p, 10.0).ahues_holds == (4.0 * 1.0 * eta <= 1.0)


def test_criterion_2_eta_max_ratio_law():
    with criterion(2, "eta_max ratio new/rival equals (1+alpha)^(1/alpha) "
                      "within 1e-12 over the parameter grid"):
        for alpha in [0.25, 0.5, 0.75, 1.0]:
            for nu in [0.0, 0.3, 0.6, 0.9]:
                for l0 in [0.1, 1.0, 10.0]:
                    p = HoelderParams(l0, alpha, nu, 1.0)
                    rival_emax = compare_report(p, 10.0).ahues_eta_max
                    ratio = _eta_max(l0, alpha, nu) / rival_emax
                    assert abs(ratio - (1.0 + alpha) ** (1.0 / alpha)) <= 1e-12


def test_criterion_3_root_oracle_agreement():
    with criterion(3, "bisection roots match the quadratic closed form (1e-10), "
                      "the sequence limit (1e-8, <=500 iters) and a 1e6-point "
                      "grid scan on 50 random models"):
        m = MajorantModel(eta=0.5, R=10.0, omega=HoelderOmega(0.5, 1.0, 0.0))
        assert abs(analyze(m).nu_star - (2.0 - SQRT2)) <= 1e-10
        assert abs(analyze(m).nu_star_star - (2.0 + SQRT2)) <= 1e-10
        seq = truncated_sequence(m, tol=1e-9, max_iter=500)
        assert len(seq) <= 501
        assert abs(seq[-1] - (2.0 - SQRT2)) <= 1e-8

        rng = np.random.default_rng(42)
        grid = np.linspace(0.0, 10.0, 1_000_001)
        resolution = grid[1] - grid[0]
        for _ in range(50):
            alpha = rng.uniform(0.3, 1.0)
            nu = rng.uniform(0.0, 0.6)
            r_bar = rng.uniform(0.5, 6.0)
            l0 = (1.0 - nu) / r_bar ** alpha
            emax = _eta_max(l0, alpha, nu)
            eta = emax * rng.uniform(0.1, 0.9)
            model = MajorantModel(eta=eta, R=10.0, omega=HoelderOmega(l0, alpha, nu))
            # independent oracle: raw closed form of g on the dense grid
            scan = eta + nu * grid + l0 * grid ** (1.0 + alpha) / (1.0 + alpha) - grid
            flips = np.flatnonzero(np.diff(np.signbit(scan)))
            assert flips.size >= 1
            ns = analyze(model).nu_star
            assert abs(ns - grid[flips[0]]) <= 2.0 * resolution
            nss = analyze(model).nu_star_star
            if flips.size >= 2:
                assert nss is not None
                assert abs(nss - grid[flips[-1]]) <= 2.0 * resolution
            else:
                assert nss is None or 10.0 - nss <= 2.0 * resolution


def test_criterion_4_majorization_bounds():
    with criterion(4, "every step of every certified bundled fixture obeys "
                      "the scalar bounds within 1e-9"):
        for label, fx, model in certified_bundle():
            cert = certify(model)
            assert cert.certified, label
            _, trace = fsi_solve(fx.problem, cert=cert)
            assert trace.converged, label
            report = verify_majorization(trace, model)
            assert report.passed, f"{label}: worst slack {report.worst_slack}"


def test_criterion_5_containment():
    with criterion(5, "certified iterates stay within nu_star + 1e-9 of x0"):
        for label, fx, model in certified_bundle():
            cert = certify(model)
            _, trace = fsi_solve(fx.problem, cert=cert)
            for it in trace.iterates:
                dist = vector_norm(it - fx.problem.x0, fx.problem.norm)
                assert dist <= cert.nu_star + 1e-9, label


def test_criterion_6_solution_accuracy():
    with criterion(6, "scalar quadratic reaches sqrt(2) within 1e-10, "
                      "tangency case included"):
        fx = build_fixture("scalar_quadratic")
        x, trace = fsi_solve(fx.problem, cert=certify(analytic_model(fx)))
        assert trace.converged
        assert abs(x[0] - SQRT2) <= 1e-10

        fxt = build_fixture("scalar_quadratic", x0=1.0, b=0.5)
        xt, trace_t = fsi_solve(fxt.problem, cert=certify(analytic_model(fxt)),
                                stop=StoppingRule(max_iter=10000))
        assert trace_t.converged
        assert trace_t.num_steps <= 10000
        assert abs(xt[0] - SQRT2) <= 1e-10


def test_criterion_7_uniqueness_probe():
    with criterion(7, "100 seeded starts inside the uniqueness ball agree "
                      "within 1e-8"):
        fx = build_fixture("scalar_quadratic")
        cert = certify(analytic_model(fx))
        report = uniqueness_probe(fx.problem, cert, num_starts=100, seed=0, tol=1e-8)
        assert report.passed
        assert not report.failures
        assert report.max_pairwise_distance <= 1e-8


def test_criterion_8_estimator_fidelity():
    with criterion(8, "direct estimate reproduces omega(v) = v/2 exactly on "
                      "the quadratic; estimated and analytic certification "
                      "agree on poly2d outside a 2% margin"):
        fx = build_fixture("scalar_quadratic")
        radii = [0.25, 0.5, 1.0, 1.5, 2.0]
        om = estimate_omega(fx.problem, "direct", radii=radii)
        for r, w in om.knots:
            assert w == r / 2.0  # two-point spheres: exact

        for t in np.linspace(0.05, 1.6, 32):
            fx = build_fixture("poly2d", x0=(1.0 + t, 1.0 - t))
            q = 2.0 * fx.analytic.l0 * analytic_model(fx).eta
            if abs(q - 1.0) / max(q, 1.0) < 0.02:
                continue
            cert_analytic = certify(analytic_model(fx))
            model_est = estimate_majorant(fx.problem, mode="direct",
                                          samples_per_radius=256, seed=0)
            cert_est = certify(model_est)
            assert cert_est.certified == cert_analytic.certified, f"t={t}"


def test_criterion_9_chandrasekhar():
    with criterion(9, "H-equation (c=0.9, n=16) certifies from estimated "
                      "measures, residual <= 1e-10, majorization passes, "
                      "under 5 s"):
        start = time.perf_counter()
        fx = build_fixture("chandrasekhar", c=0.9, n=16, norm="one")
        model = estimate_majorant(fx.problem, mode="centered",
                                  samples_per_radius=64, seed=0)
        cert = certify(model)
        assert cert.certified
        x, trace = fsi_solve(fx.problem, cert=cert)
        assert trace.converged
        assert trace.residual_norms[-1] <= 1e-10
        report = verify_majorization(trace, model)
        assert report.passed, f"worst slack {report.worst_slack}"
        assert time.perf_counter() - start < 5.0


def test_criterion_10_dominance_witness():
    with criterion(10, "for each alpha some eta passes only the new "
                       "condition and none passes only the rival one"):
        for alpha in [0.25, 0.5, 1.0]:
            new_emax = _eta_max(1.0, alpha, 0.0)
            witness = 0
            for eta in np.linspace(0.001, 1.2 * new_emax, 400):
                p = HoelderParams(1.0, alpha, 0.0, float(eta))
                new_ok = check_holder_condition(p)
                rival_ok = compare_report(p, 10.0).ahues_holds
                if new_ok and not rival_ok:
                    witness += 1
                assert not (rival_ok and not new_ok)
            assert witness >= 1, f"alpha={alpha}"
