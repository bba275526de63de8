"""Bad input keeps failing with its typed error and its message.

One test per refusal that the other test files do not reach: each pins
the exception type and the whole message, or the CLI's exit code 2 and
its one error line.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fixedslope.certificate import certify
from fixedslope.cli import main
from fixedslope.comparison import HoelderParams
from fixedslope.errors import BadParameters, UnknownFixture
from fixedslope.majorant import HoelderOmega, MajorantModel, TabulatedOmega
from fixedslope.problems import (
    _finite,
    analytic_model,
    build_fixture,
    fixture_names,
    fixture_schema,
)
from fixedslope.solver import Problem, estimate_omega, uniqueness_probe


def refused(exc_type, message):
    """pytest.raises for exactly this type and this whole message."""
    return pytest.raises(exc_type, match=f"^{re.escape(message)}$")


def _problem(**kw):
    args = dict(f=lambda x: x, slope=np.eye(2), x0=np.zeros(2), R=1.0)
    return Problem(**{**args, **kw})


class TestProblem:
    def test_non_finite_x0(self):
        with refused(BadParameters, "x0 must be a finite vector"):
            _problem(x0=(0.0, math.nan))

    def test_slope_of_the_wrong_size(self):
        with refused(BadParameters, "slope must be a finite 2x2 matrix"):
            _problem(slope=np.eye(3))

    def test_infinite_trust_radius(self):
        with refused(BadParameters, "R must be finite and > 0, got inf"):
            _problem(R=math.inf)

    def test_unknown_norm(self):
        with refused(BadParameters, "norm must be one of ('max', 'one', 'two'), got 'maxx'"):
            _problem(norm="maxx")


def test_estimate_omega_unknown_mode():
    problem = build_fixture("poly2d").problem
    with refused(BadParameters, "mode must be 'direct' or 'centered', got 'sideways'"):
        estimate_omega(problem, mode="sideways")


def test_uniqueness_probe_ball_past_the_trust_radius():
    fx = build_fixture("linear")
    cert = certify(analytic_model(fx))
    assert cert.certified and cert.lambda_star == fx.problem.R
    problem = replace(fx.problem, R=cert.lambda_star / 2.0)
    with refused(BadParameters, "uniqueness radius exceeds the problem trust radius"):
        uniqueness_probe(problem, cert)


class TestModels:
    def test_majorant_model_zero_eta(self):
        with refused(ValueError, "eta must be finite and > 0, got 0.0"):
            MajorantModel(eta=0.0, R=1.0, omega=HoelderOmega(1.0, 1.0, 0.0))

    def test_majorant_model_measure_short_of_radius(self):
        omega = TabulatedOmega(((0.0, 0.0), (1.0, 0.5)))
        with refused(ValueError, "measure tabulated only up to 1.0, cannot cover radius R=2.0"):
            MajorantModel(eta=0.1, R=2.0, omega=omega)

    def test_hoelder_params_zero_eta(self):
        with refused(ValueError, "eta must be finite and > 0, got 0"):
            HoelderParams(1, 1, 0, 0)


class TestFixtures:
    def test_no_analytic_measure(self):
        with refused(BadParameters, "fixture 'chandrasekhar' has no analytic majorant data"):
            analytic_model(build_fixture("chandrasekhar"))

    @pytest.mark.parametrize("name, params, message", [
        ("scalar_holder", dict(alpha=1.0),
         "alpha must be in (0, 1); use scalar_quadratic for alpha=1"),
        ("scalar_holder", dict(b=0.0), "slope b must be > 0"),
        ("poly2d", dict(x0=(1.0, 1.0, 1.0)), "x0, root, lin and coupling must be pairs"),
        ("linear", dict(A=np.eye(3)), "A must be n x n and b_vec length n"),
        ("linear", dict(A=np.eye(3), b_vec=(1.0, 2.0), x0=(0.0, 0.0, 0.0)),
         "A must be n x n and b_vec length n"),
        ("linear", dict(A=[[2.0]], b_vec=[3.0], x0=0.0), "x0 must be a vector, got shape ()"),
        ("chandrasekhar", dict(n=65), "n must be between 1 and 64 at desk scale"),
        ("poly2d", dict(x0=(-1.0, -2.5)),
         "x0 must make F'(x0) invertible, got x0=[-1.0, -2.5]"),
    ], ids=["holder_alpha_one", "holder_b_zero", "poly2d_x0_triple", "linear_A_3x3",
            "linear_b_vec_pair_for_n3", "linear_scalar_x0", "chandrasekhar_n65",
            "poly2d_singular_x0"])
    def test_builder_refusals(self, name, params, message):
        with refused(BadParameters, message):
            build_fixture(name, **params)

    def test_unknown_schema(self):
        with refused(UnknownFixture, f"unknown fixture 'nope'; known: {fixture_names()}"):
            fixture_schema("nope")


@pytest.mark.parametrize("argv, message", [
    (["certify", "chandrasekhar", "--measure", "analytic"],
     "fixture 'chandrasekhar' has no analytic majorant data"),
    (["compare", "l0=1", "eta=0.1", "foo=2"], "unknown compare parameters: ['foo']"),
    (["compare", "l0=-1", "eta=0.1"], "l0 must be finite and >= 0, got -1.0"),
    (["certify", "linear", "x0=0"], "x0 must be a vector, got shape ()"),
    (["solve", "linear", "x0=0"], "x0 must be a vector, got shape ()"),
    (["certify", "poly2d", "x0=-1,-2.5", "--out", "certificate.json"],
     "x0 must make F'(x0) invertible, got x0=[-1.0, -2.5]"),
], ids=["certify_analytic_without_data", "compare_unknown_key", "compare_negative_l0",
        "certify_linear_scalar_x0", "solve_linear_scalar_x0", "certify_poly2d_singular_x0"])
def test_cli_refusals_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


# fixture parameters are checked before any builder runs
@pytest.mark.parametrize("value", [
    1.0, -3, 10 ** 300, np.float64(2.5), np.int64(4), np.float32(0.5), [1.0, 2], (0, -1.5),
    np.eye(2), [[1.0, 0.0], [0.0, 1.0]], [],
])
def test_finite_accepts_finite_numbers(value):
    assert _finite(value)


@pytest.mark.parametrize("name, key, value, shown", [
    ("scalar_quadratic", "c", True, "True"),
    ("scalar_quadratic", "c", False, "False"),
    ("scalar_quadratic", "c", np.bool_(True), "np.True_"),
    ("scalar_quadratic", "c", "2.0", "'2.0'"),
    ("scalar_quadratic", "c", math.nan, "nan"),
    ("scalar_quadratic", "c", -math.inf, "-inf"),
    ("scalar_quadratic", "c", np.float64(math.inf), "np.float64(inf)"),
    ("scalar_quadratic", "c", 1j, "1j"),
    ("poly2d", "x0", [1.0, None], "[1.0, None]"),
    ("poly2d", "x0", [1.0, True], "[1.0, True]"),
    ("poly2d", "x0", (1.0, math.nan), "(1.0, nan)"),
    ("poly2d", "x0", np.array([1.0, math.inf]), "array([ 1., inf])"),
    ("linear", "A", [[1.0, 0.0], [0.0, math.inf]], "[[1.0, 0.0], [0.0, inf]]"),
    ("linear", "A", [[1.0, "x"], [0.0, 1.0]], "[[1.0, 'x'], [0.0, 1.0]]"),
    ("linear", "A", np.array([[1.0, math.nan], [0.0, 1.0]]),
     "array([[ 1., nan],\n       [ 0.,  1.]])"),
])
def test_non_finite_parameters_are_refused_naming_their_key(name, key, value, shown):
    with refused(BadParameters, f"fixture parameter {key!r} must be finite numbers, got {shown}"):
        build_fixture(name, **{key: value})


@pytest.mark.parametrize("name, key, value", [
    ("scalar_quadratic", "c", 10 ** 400),
    ("linear", "A", [[1, 10 ** 400], [0, 1]]),
    ("poly2d", "x0", (1.0, -2 ** 1024)),
], ids=["scalar", "in_a_nested_list", "negative_in_a_tuple"])
def test_integers_past_the_floats_are_refused_naming_their_key(name, key, value):
    # math.isfinite cannot convert them: a refusal, not an OverflowError
    message = f"fixture parameter {key!r} must be finite numbers, got {value!r}"
    with refused(BadParameters, message):
        build_fixture(name, **{key: value})
