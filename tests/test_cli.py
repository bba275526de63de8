"""Command-line interface: documents, exit codes, determinism."""

import json
import math
from dataclasses import fields, replace

import pytest

from fixedslope.certificate import REASON_NU_TOO_LARGE, certify, not_certified
from fixedslope.cli import certificate_to_doc, main, read_certificate
from fixedslope.comparison import ConditionReport
from fixedslope.majorant import HoelderOmega, MajorantModel
from fixedslope.problems import analytic_model, build_fixture
from fixedslope.solver import eta_at_start, fsi_solve, nu_at_start

SQRT2 = math.sqrt(2.0)


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
        # nu = |2 b x0 - 1| = 2: the estimator measures the start and refuses
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

    def test_round_trip_bit_for_bit(self, tmp_path, monkeypatch):
        run(tmp_path, monkeypatch, ["certify", "scalar_quadratic"])
        cert = read_certificate(tmp_path / "certificate.json")
        from fixedslope.certificate import certify
        from fixedslope.problems import analytic_model, build_fixture
        direct = certify(analytic_model(build_fixture("scalar_quadratic")))
        assert cert.nu_star == direct.nu_star
        assert cert.lambda_star == direct.lambda_star
        assert cert.scalar_sequence_preview == direct.scalar_sequence_preview

    def test_refusals_round_trip_every_field(self, tmp_path):
        needed = certify(MajorantModel(eta=0.5, R=0.3, omega=HoelderOmega(0.5, 1.0)))
        assert needed.nu_star_needed is not None
        problem = build_fixture("scalar_quadratic", b=0.5).problem
        estimated = not_certified(REASON_NU_TOO_LARGE, nu_at_start(problem),
                                  eta_at_start(problem), problem.R)
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

    def test_bad_params_exit_2(self, tmp_path, monkeypatch):
        assert run(tmp_path, monkeypatch,
                   ["certify", "scalar_quadratic", "c=-5"]) == 2


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
        code = run(tmp_path, monkeypatch,
                   ["solve", "scalar_quadratic", "c=2", "x0=2", "b=0.5"])
        assert code == 0
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["certificate"].startswith("unobtainable")

    def test_slack_tol_not_an_option(self, tmp_path, monkeypatch):
        code = run(tmp_path, monkeypatch, ["solve", "scalar_quadratic", "--slack-tol", "1e-9"])
        assert code == 2
        assert not (tmp_path / "solve_report.json").exists()

    @pytest.mark.parametrize("flag", ["--tol-step", "--tol-residual"])
    def test_nan_tolerance_exit_2(self, tmp_path, monkeypatch, flag):
        code = run(tmp_path, monkeypatch, ["solve", "scalar_quadratic", flag, "nan"])
        assert code == 2
        assert not (tmp_path / "trace.csv").exists()

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
    def test_solve_without_radii_runs_uncertified(self, tmp_path, monkeypatch, radii):
        code = run(tmp_path, monkeypatch, ["solve", "chandrasekhar", "--measure",
                                           "centered", "--radii", radii])
        assert code == 0
        doc = json.loads((tmp_path / "solve_report.json").read_text())
        note = f"unobtainable: number of radii must be >= 1, got {radii}"
        assert doc["certificate"] == note


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
        code = run(tmp_path, monkeypatch,
                   ["estimate-omega", "poly2d", "--mode", "centered",
                    "--radii", "3", "--samples", "16", "--out", "om.csv"])
        assert code == 0
        lines = (tmp_path / "om.csv").read_text().splitlines()
        assert float(lines[1].split(",")[1]) == 0.0  # centered knot at 0

    @pytest.mark.parametrize("command", [
        ["certify", "chandrasekhar", "--measure", "centered"],
        ["estimate-omega", "chandrasekhar"],
    ])
    @pytest.mark.parametrize("radii", ["0", "-3"])
    def test_radii_count_below_one_exit_2(self, tmp_path, monkeypatch, capsys,
                                          command, radii):
        code = run(tmp_path, monkeypatch, command + ["--radii", radii])
        assert code == 2
        assert "number of radii must be >= 1" in capsys.readouterr().err

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
])
def test_non_finite_fixture_parameter_exit_2(tmp_path, monkeypatch, capsys, argv, key):
    assert run(tmp_path, monkeypatch, argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fixture parameter {key!r} must be finite")
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_non_numeric_spec_file_parameter_exit_2(tmp_path, monkeypatch, capsys):
    spec = {"fixture": "linear", "params": {"b_vec": [3, "x"]}}
    (tmp_path / "prob.json").write_text(json.dumps(spec))
    assert run(tmp_path, monkeypatch, ["certify", "prob.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fixture parameter 'b_vec' must be finite")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["prob.json"]


class TestListProblems:
    def test_catalog(self, tmp_path, monkeypatch, capsys):
        assert run(tmp_path, monkeypatch, ["list-problems"]) == 0
        out = capsys.readouterr().out
        for name in ["scalar_quadratic", "scalar_holder", "poly2d", "linear",
                     "chandrasekhar"]:
            assert name in out


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
