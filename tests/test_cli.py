"""Command-line interface: documents, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from fixedslope.certificate import REASON_NU_TOO_LARGE, certify
from fixedslope import __version__, cli
from fixedslope.cli import _build_parser, certificate_to_doc, main, read_certificate
from fixedslope.comparison import ConditionReport
from fixedslope.majorant import HoelderOmega, MajorantModel
from fixedslope.problems import analytic_model, build_fixture
from fixedslope.solver import estimate_majorant, fsi_solve

SQRT2 = math.sqrt(2.0)
SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = ["scalar_quadratic", "scalar_holder", "poly2d", "linear", "chandrasekhar"]
# Starts where F(x0) = 0 exactly, one per fixture with a closed-form measure.
SOLVED_STARTS = [
    ["scalar_quadratic", "c=4", "x0=2"],
    ["scalar_holder", "x0=1", "c=-0.6666666666666666"],
    ["poly2d", "x0=1,1"],
    ["linear", "x0=1,1"],
]
SOLVED = "x0 already solves the problem; nothing to certify"


def run(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


def trace_rows(path):
    """Data rows of a trace CSV, each split into its six fields."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestCertify:
    def test_quadratic(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch,
                   ["certify", "scalar_quadratic", "c=2", "x0=2", "b=0.25", "R=10"])
        assert code == 0
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["schema"] == 1
        assert doc["status"] == "certified"
        assert doc["nu_star"] == pytest.approx(0.585786, abs=1e-6)
        assert doc["uniqueness_boundary"] == "open"
        assert doc["scalar_sequence"][1] == 0.5

    def test_not_certified_exit_code(self, tmp_path, monkeypatch):
        # nu = 0, l0 = 0.5, eta = 0.25 |4 - 16| = 3 > eta_max = 1
        code = run(tmp_path, monkeypatch,
                   ["certify", "scalar_quadratic", "c=16", "--out", "c.json"])
        doc = json.loads((tmp_path / "c.json").read_text())
        assert code == 1
        assert doc["status"] == "not_certified"
        assert doc["reason"] == "constraint_a_fails"

    def test_nu_too_large_diagnostic(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch,
                   ["certify", "scalar_quadratic", "c=2", "x0=2", "b=0.5"])
        assert code == 1
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["reason"] == "nu_too_large"
        assert doc["nu"] == 1.0

    def test_refusal_evaluates_the_start_once(self, tmp_path, monkeypatch):
        # nu = |2 b x0 - 1| = 2 is refused: one F for eta and one Jacobian for nu
        calls = {"f": 0, "jacobian": 0}

        def counted(key, fn):
            def wrapped(x):
                calls[key] += 1
                return fn(x)
            return wrapped

        def counting_fixture(name, **kw):
            fx = build_fixture(name, **kw)
            p = fx.problem
            return replace(fx, problem=replace(p, f=counted("f", p.f),
                                               jacobian=counted("jacobian", p.jacobian)))

        monkeypatch.setattr("fixedslope.cli.build_fixture", counting_fixture)
        code = run(tmp_path, monkeypatch, ["certify", "scalar_quadratic", "b=0.5", "x0=3"])
        assert code == 1
        assert json.loads((tmp_path / "certificate.json").read_text())["nu"] == 2.0
        assert calls == {"f": 1, "jacobian": 1}

    def test_analytic_measure_refuses_a_non_contractive_start(self, tmp_path, monkeypatch):
        argv = ["scalar_quadratic", "b=0.5", "x0=3", "--measure", "analytic"]
        assert run(tmp_path, monkeypatch, ["certify", *argv]) == 1
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert (doc["reason"], doc["nu"]) == ("nu_too_large", 2.0)
        assert run(tmp_path, monkeypatch, ["solve", *argv]) == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["certificate"] == "refused: nu_too_large"

    def test_round_trip_bit_for_bit(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch, ["certify", "scalar_quadratic"])
        cert = read_certificate(tmp_path / "certificate.json")
        from fixedslope.certificate import certify
        from fixedslope.problems import analytic_model, build_fixture
        direct = certify(analytic_model(build_fixture("scalar_quadratic")))
        assert cert.nu_star == direct.nu_star
        assert cert.lambda_star == direct.lambda_star
        assert cert.scalar_sequence == direct.scalar_sequence

    def test_refusals_round_trip_every_field(self, tmp_path):
        needed = certify(MajorantModel(eta=0.5, R=0.3, omega=HoelderOmega(0.5, 1.0)))
        assert needed.nu_star_needed is not None
        problem = build_fixture("scalar_quadratic", b=0.5).problem
        estimated = certify(estimate_majorant(problem))
        assert estimated.reason == REASON_NU_TOO_LARGE
        for cert in (needed, estimated):
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(certificate_to_doc(cert)))
            back = read_certificate(path)
            for f in fields(cert):
                if f.name != "model":
                    assert getattr(back, f.name) == getattr(cert, f.name), f.name

    def test_estimated_measure_option(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch,
                   ["certify", "chandrasekhar", "c=0.9", "n=16", "--norm", "one",
                    "--measure", "centered"])
        assert code == 0
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["status"] == "certified"

    def test_unknown_fixture_exit_2(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch, ["certify", "bogus"]) == 2

    @pytest.mark.parametrize("problem", SOLVED_STARTS, ids=lambda p: p[0])
    def test_solved_start_exit_2(self, tmp_path, monkeypatch, capsys, problem):
        assert run(tmp_path, monkeypatch, ["certify", *problem]) == 2
        assert capsys.readouterr().err == f"error: {SOLVED}\n"
        assert not (tmp_path / "certificate.json").exists()

    def test_evaluation_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        # F(x0) = x0^2 - c overflows; the finiteness check reports it
        assert run(tmp_path, monkeypatch, ["certify", "scalar_quadratic", "x0=1e200"]) == 3
        assert capsys.readouterr().err == "error: operator returned non-finite values\n"
        assert not (tmp_path / "certificate.json").exists()

    @pytest.mark.parametrize("command", ["certify", "solve"])
    def test_overflowing_power_exit_3(self, tmp_path, monkeypatch, capsys, command):
        # Python's float power overflows at x0 = 1e300: a non-finite F, not a raised errno
        assert run(tmp_path, monkeypatch, [command, "scalar_holder", "x0=1e300"]) == 3
        assert capsys.readouterr().err == "error: operator returned non-finite values\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("warnings", ["default", "error"])
    def test_evaluation_failure_ignores_the_warnings_filter(self, tmp_path, warnings):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", warnings, "-m", "fixedslope.cli", "certify",
             "scalar_quadratic", "x0=1e200"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (3, "error: operator returned non-finite values\n")

    def test_auto_measure_is_centered_without_a_closed_form(self, tmp_path, monkeypatch):
        argv = ["certify", "chandrasekhar", "n=8", "--norm", "one", "--radii", "4",
                "--samples", "8"]
        run(tmp_path, monkeypatch, argv + ["--out", "auto.json"])
        run(tmp_path, monkeypatch, argv + ["--measure", "centered", "--out", "centered.json"])
        auto = (tmp_path / "auto.json").read_bytes()
        assert auto == (tmp_path / "centered.json").read_bytes()

    def test_bad_params_exit_2(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["certify", "scalar_quadratic", "c=-5"]) == 2

    def test_overflowing_closed_form_exit_2(self, tmp_path, monkeypatch, capsys):
        assert run(tmp_path, monkeypatch, ["certify", "scalar_quadratic", "b=1e308"]) == 2
        assert ("error: scalar_quadratic: b=1e+308 overflows its measure's l0 = 2|b|"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, message", [
        (["scalar_quadratic", "b=1e200", "x0=1e200"], "operator returned non-finite values"),
        (["scalar_holder", "b=1e308", "x0=4"], "B F(x0) is not finite in the max norm"),
        (["scalar_holder", "b=1e308", "x0=4", "c=-5.3"],
         "B F'(x) is not finite in the max norm at radius 0.0"),
        (["scalar_quadratic", "c=1e300", "b=1e10"], "B F(x0) is not finite in the max norm"),
        (["scalar_quadratic", "c=1e300", "b=1e10", "--measure", "centered"],
         "B F(x0) is not finite in the max norm"),
    ])
    def test_overflowing_start_exit_3(self, tmp_path, monkeypatch, capsys, argv, message):
        assert run(tmp_path, monkeypatch, ["certify", *argv]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "certificate.json").exists()


class TestSolve:
    def test_linear_trace(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch, ["solve", "linear"])
        assert code == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "k,step_norm,residual_norm,v_step,bound_slack,error_bound"
        assert len(lines) == 2  # exactly one step
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert float(fields[2]) == 4.0  # residual at x0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["stop_reason"] == "residual_tol"
        assert report["steps"] == 1
        assert report["final_residual_norm"] == 0.0

    def test_quadratic_with_certificate(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch, ["solve", "scalar_quadratic"])
        assert code == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["certificate"] == "attached"
        assert report["majorization"]["passed"] is True
        assert report["solution"][0] == pytest.approx(SQRT2, abs=1e-10)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert float(first[3]) == 0.5  # v_1 - v_0 = eta
        assert first[4] != "" and first[5] != ""

    def test_scalar_pairing_extends_past_preview(self, tmp_path, monkeypatch):
        # nu = 0.8: the run outlasts the 16-term preview of the certificate
        assert run(tmp_path, monkeypatch, ["solve", "scalar_quadratic", "b=0.05"]) == 0
        rows = trace_rows(tmp_path / "trace.csv")
        assert len(rows) > 16
        for _, step, _, v_step, slack, bound in rows:
            assert "" not in (v_step, slack, bound)
            assert float(slack) == float(v_step) - float(step)

    def test_certificate_read_back_solves_like_in_memory(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch, ["certify", "poly2d"]) == 0
        back = read_certificate(tmp_path / "certificate.json")
        fx = build_fixture("poly2d")
        cert = certify(analytic_model(fx))
        x_back, trace_back = fsi_solve(fx.problem, cert=back)
        x, trace = fsi_solve(fx.problem, cert=cert)
        assert x_back.tobytes() == x.tobytes()
        assert trace_back.stop_reason == trace.stop_reason
        assert trace_back.num_steps == trace.num_steps

    def test_no_certificate_flag(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch, ["solve", "scalar_quadratic", "--no-certificate"])
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["certificate"] == "none requested"
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[1].endswith(",,,")  # scalar columns empty

    def test_uncertifiable_still_solves(self, tmp_path, monkeypatch):
        # nu = |2 b x0 - 1| = 1: certify refuses, the same refusal as the certify command
        code = run(tmp_path, monkeypatch,
                   ["solve", "scalar_quadratic", "c=2", "x0=2", "b=0.5"])
        assert code == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["certificate"] == "refused: nu_too_large"

    @pytest.mark.parametrize("problem", SOLVED_STARTS, ids=lambda p: p[0])
    def test_solved_start_solves_in_no_steps(self, tmp_path, monkeypatch, problem):
        assert run(tmp_path, monkeypatch, ["solve", *problem]) == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["steps"] == 0
        assert report["certificate"] == f"unobtainable: {SOLVED}"

    def test_slack_tol_not_an_option(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch, ["solve", "scalar_quadratic", "--slack-tol", "1e-9"])
        assert code == 2
        assert not (tmp_path / "solve_report.json").exists()

    @pytest.mark.parametrize("flag", ["--tol-step", "--tol-residual"])
    def test_nan_tolerance_exit_2(self, tmp_path, monkeypatch, flag):
        code = run(tmp_path, monkeypatch, ["solve", "scalar_quadratic", flag, "nan"])
        assert code == 2
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("argv, norm", [
        (["poly2d", "--norm", "one"], "one"),
        (["spec.json"], "two"),
        (["spec.json", "--norm", "one"], "one"),
    ], ids=["flag", "spec", "flag-over-spec"])
    def test_report_states_its_norm(self, tmp_path, monkeypatch, argv, norm):
        spec = {"fixture": "linear", "norm": "two", "params": {"x0": [0.0, 0.0]}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert run(tmp_path, monkeypatch, ["solve", *argv]) == 0
        assert json.loads((tmp_path / "solve_report.json").read_text())["norm"] == norm

    def test_left_ball_fails_majorization(self, tmp_path, monkeypatch):
        # the sampled two-norm measure certifies too small a ball (n=64: nu_star
        # 3.95, solution at 4.55; n=16: 2.10 against 2.27), so the run leaves it
        for args, steps, worst_slack in [
            (["n=64", "--measure", "centered"], 1, pytest.approx(0.0, abs=1e-9)),
            (["n=16"], 2, pytest.approx(-0.0808, abs=1e-4)),
        ]:
            code = run(tmp_path, monkeypatch, ["solve", "chandrasekhar", *args, "--norm", "two"])
            assert code == 1
            assert len(trace_rows(tmp_path / "trace.csv")) == steps
            doc = json.loads((tmp_path / "solve_report.json").read_text())
            assert (doc["stop_reason"], doc["steps"]) == ("left_ball", steps)
            assert not doc["majorization"]["passed"]
            assert doc["majorization"]["worst_slack"] == worst_slack

    def test_determinism(self, tmp_path, monkeypatch):
        argv = ["solve", "chandrasekhar", "c=0.9", "n=8", "--norm", "one",
                "--measure", "centered", "--seed", "7"]
        run(tmp_path, monkeypatch, argv + ["--trace", "a.csv", "--report", "a.json"])
        run(tmp_path, monkeypatch, argv + ["--trace", "b.csv", "--report", "b.json"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        a.pop("trace_path"), b.pop("trace_path")
        assert a == b

    @pytest.mark.parametrize("radii", ["0", "-3"])
    def test_solve_radii_below_one_exit_2(self, tmp_path, monkeypatch, capsys, radii):
        # refused by the parser, like any bad flag, before a run starts
        code = run(tmp_path, monkeypatch, ["solve", "chandrasekhar", "--measure",
                                           "centered", "--radii", radii])
        assert code == 2
        assert (f"argument --radii: must be a whole number >= 1, got {radii!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "solve_report.json").exists()


class TestCompare:
    def test_document(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch,
                   ["compare", "l0=1", "alpha=1", "nu=0", "eta=0.3", "R=10"])
        assert code == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["new_holds"] is True
        assert doc["ahues_holds"] is False
        assert doc["kantorovich_holds"] is True
        assert doc["eta_max_ratio"] == pytest.approx(2.0, abs=1e-12)

    def test_overflowing_eta_max(self, tmp_path, monkeypatch):
        # eta_max = (rhs / 1e-300)^(1/0.3) overflows: it reads as unbounded
        code = run(tmp_path, monkeypatch,
                   ["compare", "l0=1e-300", "alpha=0.3", "eta=1", "R=10"])
        assert code == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["new_eta_max"] == doc["ahues_eta_max"] == "unbounded"
        assert doc["eta_max_ratio"] == pytest.approx(2.398, abs=1e-3)
        assert doc["nu_star"] == doc["r_star"] == 1.0

    def test_document_keys_follow_the_report_fields(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch, ["compare", "l0=1", "alpha=0.5", "eta=0.05"])
        doc = json.loads((tmp_path / "comparison.json").read_text())
        keys = list(doc)
        assert keys[:2] == ["schema", "kind"]
        assert keys[2:] == [f.name for f in fields(ConditionReport)]

    @pytest.mark.parametrize("R", ["nan", "-1", "0", "inf"])
    def test_bad_radius_exit_2_when_no_condition_holds(self, tmp_path, monkeypatch, R):
        code = run(tmp_path, monkeypatch, ["compare", "l0=1", "eta=0.6", f"R={R}"])
        assert code == 2
        assert not (tmp_path / "comparison.json").exists()

    def test_table_output(self, tmp_path, monkeypatch, capsys):
        run(tmp_path, monkeypatch,
            ["compare", "l0=1", "alpha=1", "nu=0", "eta=0.25"])
        out = capsys.readouterr().out
        assert "condition" in out and "eta_max" in out
        assert "kantorovich" in out
        assert "order" in out

    def test_missing_params_exit_2(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch, ["compare", "l0=1"]) == 2

    def test_unbounded_eta_max(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch, ["compare", "l0=0", "eta=5"])
        assert code == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["new_eta_max"] == "unbounded"


class TestEstimateOmega:
    def test_csv_rows(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch,
                   ["estimate-omega", "scalar_quadratic", "--radii", "4",
                    "--out", "om.csv"])
        assert code == 0
        lines = (tmp_path / "om.csv").read_text().splitlines()
        assert lines[0] == "radius,value"
        assert len(lines) == 6  # knot at 0 plus 4 radii... plus header
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        for r, w in rows:
            assert w == pytest.approx(r / 2.0, abs=1e-14)

    def test_centered_mode(self, tmp_path, monkeypatch):
        rows = {}
        for mode in ("direct", "centered"):
            code = run(tmp_path, monkeypatch,
                       ["estimate-omega", "poly2d", "--mode", mode,
                        "--radii", "3", "--samples", "16", "--out", "om.csv"])
            assert code == 0
            rows[mode] = (tmp_path / "om.csv").read_text().splitlines()
        # both modes start at nu, here rounding noise of B = F'(x0)^{-1}
        assert rows["centered"][1] == rows["direct"][1]
        assert float(rows["centered"][1].split(",")[1]) <= 1e-15

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_exit_2(self, tmp_path, monkeypatch, capsys, seed):
        code = run(tmp_path, monkeypatch, ["estimate-omega", "poly2d", "--seed", seed])
        assert code == 2
        assert (f"argument --seed: must be a non-negative integer, got {seed!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", [
        ["certify", "chandrasekhar", "--measure", "centered"],
        ["estimate-omega", "chandrasekhar"],
    ])
    @pytest.mark.parametrize("radii", ["0", "-3"])
    def test_radii_count_below_one_exit_2(self, tmp_path, monkeypatch, capsys,
                                          command, radii):
        code = run(tmp_path, monkeypatch, command + ["--radii", radii])
        assert code == 2
        assert (f"argument --radii: must be a whole number >= 1, got {radii!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, flag, value", [
        (["estimate-omega", "poly2d"], "--samples", "0"),
        (["estimate-omega", "poly2d"], "--samples", "2.5"),
        (["certify", "poly2d", "--measure", "direct"], "--samples", "-1"),
        (["solve", "poly2d"], "--samples", "2.5"),
        (["solve", "poly2d"], "--max-iter", "0"),
        (["solve", "poly2d"], "--max-iter", "1e3"),
        (["estimate-omega", "poly2d"], "--radii", "2.5"),
    ])
    def test_count_flags_name_themselves(self, tmp_path, monkeypatch, capsys, argv, flag, value):
        code = run(tmp_path, monkeypatch, argv + [flag, value])
        assert code == 2
        assert (f"argument {flag}: must be a whole number >= 1, got {value!r}"
                in capsys.readouterr().err)

    def test_non_contractive_start_is_measured(self, tmp_path, monkeypatch):
        # nu = |2 b x0 - 1| = 2: direct mode measures it, only certify refuses
        code = run(tmp_path, monkeypatch,
                   ["estimate-omega", "scalar_quadratic", "x0=3", "b=0.5"])
        assert code == 0
        assert (tmp_path / "omega.csv").read_text().splitlines()[1] == "0.0,2.0"


@pytest.mark.parametrize("argv", [
    ["certify", "scalar_quadratic"],
    ["solve", "scalar_quadratic"],
    ["compare", "l0=1", "eta=0.3"],
    ["estimate-omega", "scalar_quadratic"],
], ids=lambda argv: argv[0])
def test_root_tol_not_an_option(tmp_path, monkeypatch, capsys, argv):
    # the tangency tolerance is the constant majorant.ROOT_TOL
    assert run(tmp_path, monkeypatch, argv + ["--root-tol", "1e-9"]) == 2
    assert "unrecognized arguments: --root-tol" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, key", [
    (["certify", "scalar_quadratic", "c=nan"], "c"),
    (["solve", "scalar_quadratic", "c=nan"], "c"),
    (["certify", "scalar_holder", "a=nan"], "a"),
    (["certify", "poly2d", "lin=inf,4"], "lin"),
    (["certify", "scalar_quadratic", "c=abc"], "c"),
    (["certify", "chandrasekhar", "n=2.5"], "n"),
    (["certify", "linear", "b_vec=3,x"], "b_vec"),
    (["certify", "scalar_quadratic", "c=1" + "0" * 400], "c"),  # an int past the floats
    (["solve", "linear", "b_vec=3,-1" + "0" * 400], "b_vec"),
])
def test_non_finite_fixture_parameter_exit_2(tmp_path, monkeypatch, capsys, argv, key):
    assert run(tmp_path, monkeypatch, argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fixture parameter {key!r} must be finite")
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("params, message", [
    (["l0=x", "eta=1"], "compare parameter 'l0' must be a number, got 'x'"),
    (["l0=1", "eta=1,2"], "compare parameter 'eta' must be a number, got (1, 2)"),
    (["l0=1", "eta=0.1", "delta=1"], "delta must be in [0, 1), got 1.0"),
    (["l0=1e308", "eta=1"], "l0 = 1e+308 is too large"),
    (["l0=1" + "0" * 400, "eta=1"], "compare parameter 'l0' must be a number, got 1000"),
], ids=["text", "list", "delta", "rival_l0_overflows", "integer_past_float"])
def test_bad_compare_parameter_named_exit_2(tmp_path, monkeypatch, capsys, params, message):
    assert run(tmp_path, monkeypatch, ["compare"] + params) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("params, message", [
    ({"A": [[1, 2], [2, 4]]}, "A must be invertible"),
    ({"x0": 0}, "x0 must be a vector, got shape ()"),
], ids=["singular_A", "scalar_x0"])
def test_singular_matrix_spec_file_exit_2(tmp_path, monkeypatch, capsys, params, message):
    spec = {"fixture": "linear", "params": params}
    (tmp_path / "prob.json").write_text(json.dumps(spec))
    assert run(tmp_path, monkeypatch, ["certify", "prob.json"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["prob.json"]


def test_non_numeric_spec_file_parameter_exit_2(tmp_path, monkeypatch, capsys):
    spec = {"fixture": "linear", "params": {"b_vec": [3, "x"]}}
    (tmp_path / "prob.json").write_text(json.dumps(spec))
    assert run(tmp_path, monkeypatch, ["certify", "prob.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fixture parameter 'b_vec' must be finite")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["prob.json"]


@pytest.mark.parametrize("norm", ["maxx", ["max"]], ids=["unknown", "list"])
@pytest.mark.parametrize("fixture", ["chandrasekhar", "linear"])
def test_bad_spec_file_norm_exit_2(tmp_path, monkeypatch, capsys, fixture, norm):
    # refused before any builder runs, so every fixture gives the same message
    (tmp_path / "prob.json").write_text(json.dumps({"fixture": fixture, "norm": norm}))
    assert run(tmp_path, monkeypatch, ["certify", "prob.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: norm must be one of")
    assert [p.name for p in tmp_path.iterdir()] == ["prob.json"]


class TestListProblems:
    def test_catalog(self, tmp_path, monkeypatch, capsys):
        assert run(tmp_path, monkeypatch, ["list-problems"]) == 0
        out = capsys.readouterr().out
        for name in ["scalar_quadratic", "scalar_holder", "poly2d", "linear",
                     "chandrasekhar"]:
            assert name in out

    def test_catalog_in_a_fresh_process(self, tmp_path):
        # the console script's path: a new process builds its parser once
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "fixedslope.cli", "list-problems"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        for name in FIXTURES:
            assert name in done.stdout


class TestRepeatedCalls:
    """main() reuses one parser per process; no call leaves state for the next."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("argv", [
        [], ["--version"], ["-h"], ["bogus"], ["--"], ["--norm", "max", "certify", "poly2d"],
        ["certify"], ["certify", "--help"], ["certify", "poly2d"],
        ["certify", "poly2d", "--bogus"], ["certify", "poly2d", "--version"],
        ["certify", "--", "poly2d"], ["certify", "poly2d", "--=x"],
        ["solve", "poly2d", "--no"], ["solve", "poly2d", "--", "--x"],
        ["estimate-omega", "poly2d", "--radii", "2.5"], ["list-problems", "x"],
        ["compare", "l0=1", "eta=0.1"],
    ])
    def test_command_parser_answers_as_the_top_level_parser(self, tmp_path, monkeypatch,
                                                             capsys, argv):
        # a leading command is parsed by its own parser; exit code, output,
        # messages and documents are those of a parse by the top-level parser
        def outcome(path):
            path.mkdir()
            code = run(path, monkeypatch, argv)
            out, err = capsys.readouterr()
            docs = {p.name: p.read_bytes() for p in path.iterdir()}
            return code, out, err, docs

        own = outcome(tmp_path / "own")
        monkeypatch.setattr(cli, "_parse", lambda a: _build_parser()[0].parse_args(a))
        assert own == outcome(tmp_path / "top")

    def test_flag_does_not_stick(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch, ["solve", "scalar_quadratic", "--no-certificate"]) == 0
        assert run(tmp_path, monkeypatch, ["solve", "scalar_quadratic"]) == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["certificate"] == "attached"

    def test_interleaved_calls_write_identical_documents(self, tmp_path, monkeypatch):
        a = ["solve", "poly2d", "--measure", "direct", "--radii", "4", "--samples", "8"]
        b = ["solve", "scalar_quadratic", "--no-certificate", "--max-iter", "3"]
        names = ["trace.csv", "solve_report.json"]
        code = run(tmp_path, monkeypatch, a)
        first = [(tmp_path / n).read_bytes() for n in names]
        run(tmp_path, monkeypatch, b)
        assert [(tmp_path / n).read_bytes() for n in names] != first
        assert run(tmp_path, monkeypatch, a) == code
        assert [(tmp_path / n).read_bytes() for n in names] == first

    def test_patched_fixture_builder_is_used_after_caching(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch, ["list-problems"]) == 0
        seen = []

        def recording_fixture(name, **kw):
            seen.append(name)
            return build_fixture(name, **kw)

        monkeypatch.setattr("fixedslope.cli.build_fixture", recording_fixture)
        assert run(tmp_path, monkeypatch, ["certify", "poly2d"]) == 0
        assert seen == ["poly2d"]

    def test_failed_parse_leaves_the_parser_usable(self, tmp_path, monkeypatch):
        argv = ["certify", "scalar_quadratic"]
        assert run(tmp_path, monkeypatch, argv + ["--slack-tol", "1e-9"]) == 2
        assert not any(tmp_path.iterdir())
        assert run(tmp_path, monkeypatch, argv) == 0
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["status"] == "certified"

    def test_version_twice(self, tmp_path, monkeypatch, capsys):
        for _ in range(2):
            assert run(tmp_path, monkeypatch, ["--version"]) == 0
            assert capsys.readouterr().out == f"{__version__}\n"

    def test_help_follows_the_terminal_width(self, tmp_path, monkeypatch, capsys):
        outs = []
        for columns in (40, 120, 40):
            monkeypatch.setenv("COLUMNS", str(columns))
            assert run(tmp_path, monkeypatch, ["certify", "--help"]) == 0
            outs.append(capsys.readouterr().out)
        narrow, wide, narrow_again = outs
        help_line = "fixture name or path to a problem-spec .json"
        assert help_line in wide and help_line not in narrow
        assert len(narrow.splitlines()) > len(wide.splitlines())
        assert narrow_again == narrow


class TestWriters:
    """Documents are rewritten in place: same bytes as a fresh write, same inode."""

    def test_shorter_document_over_a_longer_one_equals_a_fresh_write(self, tmp_path,
                                                                      monkeypatch):
        longer = ["solve", "poly2d", "--measure", "direct", "--radii", "4", "--samples", "8"]
        shorter = ["solve", "scalar_quadratic", "--no-certificate", "--max-iter", "3"]
        names = ["trace.csv", "solve_report.json"]
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        fresh.mkdir()
        over.mkdir()
        assert run(fresh, monkeypatch, shorter) == 0
        assert run(over, monkeypatch, longer) == 0
        for name in names:
            assert (over / name).stat().st_size > (fresh / name).stat().st_size
        assert run(over, monkeypatch, shorter) == 0
        assert [(over / n).read_bytes() for n in names] == [(fresh / n).read_bytes()
                                                            for n in names]

    def test_character_device(self, tmp_path, monkeypatch, capsys):
        argv = ["certify", "scalar_quadratic", "--out", os.devnull]
        assert run(tmp_path, monkeypatch, argv) == 0
        assert capsys.readouterr().err == ""

    def test_pipe(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ["certify", "scalar_quadratic", "--out", "/dev/stdout"]
        done = subprocess.run([sys.executable, "-m", "fixedslope.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        doc = json.JSONDecoder().raw_decode(done.stdout)[0]  # the summary line follows
        assert doc["status"] == "certified"

    def test_symlink_is_followed_and_kept(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch, ["certify", "scalar_quadratic"]) == 0
        expected = (tmp_path / "certificate.json").read_bytes()
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(expected + b" " * 4096)
        target.chmod(0o600)
        link.symlink_to(target.name)
        inode = target.stat().st_ino
        argv = ["certify", "scalar_quadratic", "--out", link.name]
        assert run(tmp_path, monkeypatch, argv) == 0
        assert link.is_symlink()
        assert target.read_bytes() == expected
        assert (target.stat().st_ino, target.stat().st_mode & 0o777) == (inode, 0o600)

    def test_directory_exit_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "out").mkdir()
        argv = ["certify", "scalar_quadratic", "--out", "out"]
        assert run(tmp_path, monkeypatch, argv) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")


class TestProblemSpecFile:
    def test_fixture_from_file(self, tmp_path, monkeypatch):
        spec = {"fixture": "linear",
                "params": {"A": [[2.0, 1.0], [1.0, 3.0]], "b_vec": [3.0, 4.0],
                           "x0": [0.0, 0.0]},
                "norm": "max", "R": 10.0}
        (tmp_path / "prob.json").write_text(json.dumps(spec))
        code = run(tmp_path, monkeypatch, ["certify", "prob.json"])
        assert code == 0
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["status"] == "certified"
        assert doc["eta"] == 1.0  # ||x0 - solution|| = ||(1,1)||_max

    def test_broken_file_exit_2(self, tmp_path, monkeypatch):
        (tmp_path / "broken.json").write_text("{not json")
        assert run(tmp_path, monkeypatch, ["certify", "broken.json"]) == 2

    @pytest.mark.parametrize("spec", [
        {"fixture": "linear", "params": [1, 2]},
        {"fixture": "linear", "params": None},
        [1, 2],
        "linear",
        {"fixture": ["linear"]},
        {"params": {}},
    ], ids=["params-list", "params-null", "list", "string", "fixture-list", "no-fixture"])
    def test_malformed_spec_exit_2(self, tmp_path, monkeypatch, capsys, spec):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert run(tmp_path, monkeypatch, ["certify", "spec.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: problem spec ") and "Traceback" not in err

    def test_norm_flag_overrides_the_spec(self, tmp_path, monkeypatch):
        # x0 = (0, 0), solution (1, 1): nu_star = eta = ||(1, 1)||
        spec = {"fixture": "linear", "norm": "max", "params": {"x0": [0.0, 0.0]}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        for flags, nu_star in [(["--norm", "one"], 2.0), ([], 1.0)]:
            assert run(tmp_path, monkeypatch, ["certify", "spec.json", *flags]) == 0
            doc = json.loads((tmp_path / "certificate.json").read_text())
            assert doc["nu_star"] == nu_star
