"""Command-line front end.

Subcommands: certify, solve, compare, estimate-omega, list-problems.
Structured documents are JSON with a "schema": 1 field; traces and
measures are CSV.  Floats are serialized with their shortest round-trip
decimal representation, so re-reading a document reproduces the values
bit for bit.

Exit codes: 0 success, 1 certification refused by certify or a certified
solve that fails its majorization check (the documents are still
written), 2 invalid input, 3 runtime evaluation failure.
"""

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields

from . import __version__
from .certificate import (
    REASON_NU_TOO_LARGE,
    ConvergenceCertificate,
    HoelderParams,
    certify,
    not_certified,
)
from .comparison import ORDER_STATED, compare_report
from .errors import (
    BadParameters,
    FixedSlopeError,
    NuNotContractive,
    RadiusOutOfRange,
    UnknownFixture,
)
from .norms import NORM_KINDS
from .problems import analytic_model, build_fixture, fixture_names, fixture_schema
from .solver import (
    DEFAULT_NUM_RADII,
    DEFAULT_SAMPLES,
    StoppingRule,
    default_radii,
    estimate_majorant,
    estimate_omega,
    fsi_solve,
    verify_majorization,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_BAD_INPUT = 2
EXIT_RUNTIME = 3

DEFAULT_SEED = 0


def _fmt(x):
    """JSON value: numbers as floats (infinite ones as "unbounded"), tuples as lists."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, tuple):
        return [_fmt(v) for v in x]
    x = float(x)
    return "unbounded" if math.isinf(x) else x


def _write_json(doc, path):
    text = json.dumps(doc, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _write_lines(lines, path):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Document keys that differ from the field names of the result dataclasses.
_DOC_KEYS = {"scalar_sequence_preview": "scalar_sequence"}


def _doc_fields(cls):
    """(field, document key) pairs in declaration order; the model is never written."""
    return [(f, _DOC_KEYS.get(f.name, f.name)) for f in fields(cls) if f.name != "model"]


def _to_doc(kind, record):
    doc = {"schema": SCHEMA_VERSION, "kind": kind}
    for f, key in _doc_fields(type(record)):
        doc[key] = _fmt(getattr(record, f.name))
    return doc


def certificate_to_doc(cert):
    return _to_doc("certificate", cert)


def read_certificate(path):
    """Re-read an emitted certificate document (values only, no model)."""
    with open(path) as fh:
        doc = json.load(fh)
    values = {}
    for f, key in _doc_fields(ConvergenceCertificate):
        value = doc[key] if f.default is MISSING else doc.get(key, f.default)
        values[f.name] = tuple(value) if isinstance(value, list) else value
    return ConvergenceCertificate(**values)


def trace_to_csv_lines(trace, report=None):
    """CSV rows of a trace; the scalar columns come from its majorization report."""
    lines = ["k,step_norm,residual_norm,v_step,bound_slack,error_bound"]
    for k in range(trace.num_steps):
        scalar = ",,"
        if report is not None:
            scalar = (f"{report.scalar_steps[k]!r},{report.step_slacks[k]!r},"
                      f"{report.error_bounds[k]!r}")
        lines.append(f"{k},{trace.step_norms[k]!r},{trace.residual_norms[k]!r},{scalar}")
    return lines


def _parse_value(text):
    parts = text.split(",")
    if len(parts) > 1:
        return tuple(_parse_value(p) for p in parts)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_params(tokens):
    params = {}
    for token in tokens:
        if "=" not in token:
            raise BadParameters(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        params[key] = _parse_value(value)
    return params


def _load_fixture(args):
    """Fixture from a name plus key=value tokens, or from a spec file."""
    name = args.problem
    params = _parse_params(args.params)
    if name.endswith(".json"):
        with open(name) as fh:
            doc = json.load(fh)
        file_params = dict(doc.get("params", {}))
        if "R" in doc:
            file_params["R"] = doc["R"]
        file_params.update(params)  # command-line tokens win
        norm = doc.get("norm", args.norm)
        return build_fixture(doc["fixture"], norm=norm, **file_params)
    return build_fixture(name, norm=args.norm, **params)


def _sampling(fixture, args):
    """Estimator keywords from --radii, --samples and --seed."""
    return dict(radii=default_radii(fixture.problem.R, args.radii),
                samples_per_radius=args.samples, seed=args.seed)


def _obtain_model(fixture, args):
    """Majorant model per --measure: fixture closed form or estimated."""
    measure = args.measure
    if measure == "auto":
        measure = "analytic" if fixture.analytic is not None else "direct"
    if measure == "analytic":
        return analytic_model(fixture)
    return estimate_majorant(fixture.problem, mode=measure, **_sampling(fixture, args))


def _cmd_certify(args):
    fixture = _load_fixture(args)
    try:
        model = _obtain_model(fixture, args)
    except NuNotContractive as exc:
        # Not certifiable at radius 0; still emit the diagnostic document.
        cert = not_certified(REASON_NU_TOO_LARGE, exc.nu, exc.eta, fixture.problem.R)
        _write_json(certificate_to_doc(cert), args.out)
        print(f"not certified ({cert.reason}: nu={cert.nu!r}) -> {args.out}")
        return EXIT_NOT_CERTIFIED
    cert = certify(model)
    _write_json(certificate_to_doc(cert), args.out)
    if cert.certified:
        print(
            f"certified: nu_star={cert.nu_star!r} lambda_star={cert.lambda_star!r} "
            f"({cert.uniqueness_boundary} ball) -> {args.out}"
        )
        return EXIT_OK
    print(f"not certified ({cert.reason}) -> {args.out}")
    return EXIT_NOT_CERTIFIED


def _cmd_solve(args):
    fixture = _load_fixture(args)
    cert = None
    cert_note = "none requested"
    if not args.no_certificate:
        try:
            cert = certify(_obtain_model(fixture, args))
        except FixedSlopeError as exc:
            cert, cert_note = None, f"unobtainable: {exc}"
        else:
            if not cert.certified:
                cert_note, cert = f"refused: {cert.reason}", None
            else:
                cert_note = "attached"
    stop = StoppingRule(args.tol_step, args.tol_residual, args.max_iter)
    solution, trace = fsi_solve(fixture.problem, stop, cert)
    report = None
    if cert is not None and trace.num_steps > 0:
        report = verify_majorization(trace, cert.model)
    _write_lines(trace_to_csv_lines(trace, report), args.trace)

    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "solve_report",
        "stop_reason": trace.stop_reason,
        "steps": trace.num_steps,
        "final_residual_norm": _fmt(trace.residual_norms[-1]),
        "final_step_norm": _fmt(trace.step_norms[-1]) if trace.step_norms else None,
        "solution": [_fmt(v) for v in solution],
        "certificate": cert_note,
        "nu_star": _fmt(cert.nu_star) if cert else None,
        "trace_path": args.trace,
    }
    if report is not None:
        doc["majorization"] = {
            "passed": report.passed,
            "worst_slack": _fmt(report.worst_slack),
        }
    _write_json(doc, args.report)
    print(
        f"{trace.stop_reason} after {trace.num_steps} steps, "
        f"residual {trace.residual_norms[-1]!r} -> {args.trace}, {args.report}"
    )
    return EXIT_NOT_CERTIFIED if report is not None and not report.passed else EXIT_OK


def _format_compare_table(rep):
    def yn(flag):
        return "n/a" if flag is None else ("yes" if flag else "no")

    def num(x):
        return "-" if x is None else repr(float(x))

    rows = [
        ("condition", "holds", "eta_max"),
        ("new", yn(rep.new_holds), num(rep.new_eta_max)),
        ("ahues", yn(rep.ahues_holds), num(rep.ahues_eta_max)),
        ("kantorovich", yn(rep.kantorovich_holds), "-"),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(r[i].ljust(widths[i]) for i in range(3)) for r in rows]
    lines.append("")
    lines.append(f"eta_max ratio new/ahues: {num(rep.eta_max_ratio)}")
    for label, value in [
        ("nu_star", rep.nu_star),
        ("nu_star_star", rep.nu_star_star),
        ("lambda_star", rep.lambda_star),
        ("r_star", rep.r_star),
        ("r_star_star", rep.r_star_star),
    ]:
        lines.append(f"{label:<13} {num(value)}")
    lines.append(f"containment [r*, r**] in [nu*, nu**]: {yn(rep.containment_holds)}")
    lines.append(f"root order as stated elsewhere: {ORDER_STATED}")
    lines.append(f"root order computed here:       {rep.order_computed or 'n/a'}")
    return "\n".join(lines)


def _cmd_compare(args):
    params = _parse_params(args.params)
    try:
        p = HoelderParams(
            l0=float(params.pop("l0")),
            alpha=float(params.pop("alpha", 1.0)),
            nu=float(params.pop("nu", 0.0)),
            eta=float(params.pop("eta")),
        )
        R = float(params.pop("R", 10.0))
        delta = params.pop("delta", None)
        delta = None if delta is None else float(delta)
    except KeyError as exc:
        raise BadParameters(f"compare needs l0=... eta=... (missing {exc})") from exc
    except (TypeError, ValueError) as exc:
        raise BadParameters(str(exc)) from exc
    if params:
        raise BadParameters(f"unknown compare parameters: {sorted(params)}")
    rep = compare_report(p, R, delta=delta)
    _write_json(_to_doc("comparison", rep), args.out)
    print(_format_compare_table(rep))
    print(f"-> {args.out}")
    return EXIT_OK


def _cmd_estimate(args):
    fixture = _load_fixture(args)
    omega = estimate_omega(fixture.problem, mode=args.mode, **_sampling(fixture, args))
    lines = ["radius,value"] + [f"{r!r},{w!r}" for r, w in omega.knots]
    _write_lines(lines, args.out)
    print(f"{len(omega.knots)} knots ({args.mode} mode) -> {args.out}")
    return EXIT_OK


def _cmd_list(args):
    for name in fixture_names():
        print(f"{name}: {fixture_schema(name)}")
    return EXIT_OK


def _add_problem_arguments(sub, with_measure=True):
    sub.add_argument("problem", help="fixture name or path to a problem-spec .json")
    sub.add_argument("params", nargs="*", help="fixture parameters as key=value")
    sub.add_argument("--norm", choices=NORM_KINDS, default="max")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--radii", type=int, default=DEFAULT_NUM_RADII,
                     help="number of estimation radii (uniform up to R)")
    sub.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                     help="sphere samples per radius for estimation")
    if with_measure:
        sub.add_argument("--measure", choices=("auto", "analytic", "direct", "centered"),
                         default="auto",
                         help="where the continuity measure comes from")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fixedslope",
        description="Fixed slope iteration solver with a-priori convergence certificates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    cert = subs.add_parser("certify", help="compute a convergence certificate")
    _add_problem_arguments(cert)
    cert.add_argument("--out", default="certificate.json")
    cert.set_defaults(func=_cmd_certify)

    solve = subs.add_parser("solve", help="run the iteration, record a trace")
    _add_problem_arguments(solve)
    solve.add_argument("--no-certificate", action="store_true",
                       help="do not attach a certificate even if obtainable")
    solve.add_argument("--tol-step", type=float, default=StoppingRule.tol_step)
    solve.add_argument("--tol-residual", type=float, default=StoppingRule.tol_residual)
    solve.add_argument("--max-iter", type=int, default=StoppingRule.max_iter)
    solve.add_argument("--trace", default="trace.csv")
    solve.add_argument("--report", default="solve_report.json")
    solve.set_defaults(func=_cmd_solve)

    comp = subs.add_parser("compare", help="compare certification conditions")
    comp.add_argument("params", nargs="+",
                      help="l0=... eta=... [alpha=1] [nu=0] [delta=nu] [R=10]")
    comp.add_argument("--out", default="comparison.json")
    comp.set_defaults(func=_cmd_compare)

    est = subs.add_parser("estimate-omega", help="tabulate the continuity measure")
    _add_problem_arguments(est, with_measure=False)
    est.add_argument("--mode", choices=("direct", "centered"), default="direct")
    est.add_argument("--out", default="omega.csv")
    est.set_defaults(func=_cmd_estimate)

    lst = subs.add_parser("list-problems", help="show the bundled fixture catalog")
    lst.set_defaults(func=_cmd_list)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_BAD_INPUT if code else EXIT_OK
    try:
        return args.func(args)
    except (UnknownFixture, BadParameters, RadiusOutOfRange,
            OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FixedSlopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
