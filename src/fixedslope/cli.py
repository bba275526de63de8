"""Command-line front end.

Subcommands: certify, solve, compare, estimate-omega, list-problems.
Every JSON document (certificate, comparison, solve report) comes from
_to_doc: "schema": 1, its "kind", then each value under its name.  One
pass of _encode writes it: exactly the bytes json.dumps(..., indent=2)
writes for the document with each float as itself ("unbounded" if
infinite), each tuple or array as a list and each other number as a
float.  Both CSV tables (trace, measure) come from _write_csv.  Floats
are serialized with their shortest round-trip decimal representation, so
re-reading a document reproduces the values bit for bit.

Every document is rewritten in place: the path is opened without
truncation, written from the start, and a longer old file is cut to the
new length, so the file keeps its inode (a symbolic link is followed and
stays a link; mode and hard links stay).  A device or pipe such as
/dev/null is written and never cut.  Nothing is fsync'ed.

Exit codes: 0 success, 1 certification refused by certify or a certified
solve that fails its majorization check (the documents are still
written), 2 invalid input, 3 runtime evaluation failure.

main() may be called repeatedly in one process.  The argument parser is
built on the first call and reused: it holds no per-call state (parse_args
returns a fresh namespace, and help is sized when it is formatted).
Nothing else is kept between calls.  A call that starts with a command
name is parsed by that command's parser alone, which is what the top-level
parser hands the rest of the line to; its leftover arguments are refused
in the top-level parser's words.  Everything else (help, --version, no or
an unknown command, options before the command) goes through the
top-level parser.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import MISSING, fields
from gettext import gettext

import numpy as np

from . import __version__
from .certificate import ConvergenceCertificate, certify
from .comparison import HoelderParams, compare_report
from .errors import BadParameters, FixedSlopeError, RadiusOutOfRange, UnknownFixture
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


_TEXT = json.encoder.encode_basestring_ascii
_NON_FINITE = {"inf": '"unbounded"', "-inf": '"unbounded"', "nan": "NaN"}


def _encode(x, newline="\n"):
    """JSON text of x, byte for byte what json.dumps(x, indent=2) writes after this rule:

    a float as itself ("unbounded" if infinite); None, bools, text and ints
    as they are; a mapping value by value (its keys are text); a tuple, list
    or array as a list; other numbers as floats.  newline is the line break
    plus the indentation of the line x starts on.
    """
    if isinstance(x, float):  # the common case first; np.float64 is a float
        text = float.__repr__(x)
        return _NON_FINITE.get(text, text)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, str):
        return _TEXT(x)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = newline + "  "
        items = [_TEXT(k) + ": " + _encode(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(x, (tuple, list, np.ndarray)):
        if not len(x):
            return "[]"
        inner = newline + "  "
        try:  # all floats, the common case, without a call per item
            items = [_NON_FINITE.get(text, text) for text in map(float.__repr__, x)]
        except TypeError:
            items = [_encode(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _encode(float(x), newline)


def _write_text(text, path):
    """Write text over path in place (see the module docstring).

    Without O_TRUNC an overwrite does not look like a file replacement to
    ext4's auto_da_alloc heuristic, which starts writeback of a file
    truncated to zero when it is closed.  Only a longer old file is cut, so
    a device or pipe (size 0), where ftruncate fails, never is.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_json(doc, path):
    _write_text(_encode(doc) + "\n", path)


def _write_csv(header, rows, path):
    """A CSV table under its header line: each number as its repr, a None cell empty."""
    lines = [header]
    lines += [",".join(["" if x is None else repr(x) for x in row]) for row in rows]
    _write_text("\n".join(lines) + "\n", path)


@functools.cache
def _doc_fields(cls):
    """Fields in declaration order, each written under its own name; the model never is."""
    return tuple(f for f in fields(cls) if f.name != "model")


def _to_doc(kind, values):
    """The layout of every JSON document: schema, kind, then each value under its name.

    values is a mapping, or a record whose fields are taken in declaration
    order without its model.
    """
    if not isinstance(values, dict):
        values = {f.name: getattr(values, f.name) for f in _doc_fields(type(values))}
    return {"schema": SCHEMA_VERSION, "kind": kind, **values}


def certificate_to_doc(cert):
    """The certificate document as json.load reads it back."""
    return json.loads(_encode(_to_doc("certificate", cert)))


def read_certificate(path):
    """Re-read an emitted certificate document (values only, no model)."""
    with open(path) as fh:
        doc = json.load(fh)
    values = {}
    for f in _doc_fields(ConvergenceCertificate):
        value = doc[f.name] if f.default is MISSING else doc.get(f.name, f.default)
        values[f.name] = tuple(value) if isinstance(value, list) else value
    return ConvergenceCertificate(**values)


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
    """Fixture from a name plus key=value tokens, or from a spec file.

    The command line wins: key=value tokens over the spec's params and R,
    --norm over the spec's norm.  Without either the norm is "max".
    """
    name, norm = args.problem, args.norm
    params = _parse_params(args.params)
    if name.endswith(".json"):
        with open(name) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise BadParameters(f"problem spec must be a JSON object, got {type(doc).__name__}")
        name, file_params = doc.get("fixture"), doc.get("params", {})
        if not isinstance(name, str):
            raise BadParameters(f"problem spec 'fixture' must be a name, got {name!r}")
        if not isinstance(file_params, dict):
            kind = type(file_params).__name__
            raise BadParameters(f"problem spec 'params' must be an object, got {kind}")
        if "R" in doc:
            file_params = {**file_params, "R": doc["R"]}
        params = {**file_params, **params}
        norm = norm or doc.get("norm")
    return build_fixture(name, norm=norm or "max", **params)


def _sampling(fixture, args):
    """Estimator keywords from --radii, --samples and --seed."""
    return dict(radii=default_radii(fixture.problem.R, args.radii),
                samples_per_radius=args.samples, seed=args.seed)


def _obtain_model(fixture, args):
    """Majorant model per --measure: fixture closed form or estimated."""
    measure = args.measure
    if measure == "auto":
        measure = "analytic" if fixture.analytic is not None else "centered"
    if measure == "analytic":
        return analytic_model(fixture)
    return estimate_majorant(fixture.problem, mode=measure, **_sampling(fixture, args))


def _cmd_certify(args):
    cert = certify(_obtain_model(_load_fixture(args), args))
    _write_json(_to_doc("certificate", cert), args.out)
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
    cert, note = None, "none requested"
    if not args.no_certificate:
        try:
            cert = certify(_obtain_model(fixture, args))
            note = "attached" if cert.certified else f"refused: {cert.reason}"
        except FixedSlopeError as exc:
            note = f"unobtainable: {exc}"
    if note != "attached":
        cert = None
    stop = StoppingRule(args.tol_step, args.tol_residual, args.max_iter)
    solution, trace = fsi_solve(fixture.problem, stop, cert)
    report = None
    scalar = ([None] * trace.num_steps,) * 3  # empty scalar columns
    if cert is not None and trace.num_steps > 0:
        report = verify_majorization(trace, cert.model)
        scalar = (report.scalar_steps, report.step_slacks, report.error_bounds)
    _write_csv("k,step_norm,residual_norm,v_step,bound_slack,error_bound",
               zip(range(trace.num_steps), trace.step_norms, trace.residual_norms, *scalar),
               args.trace)

    doc = {
        "stop_reason": trace.stop_reason,
        "steps": trace.num_steps,
        "final_residual_norm": trace.residual_norms[-1],
        "final_step_norm": trace.step_norms[-1] if trace.step_norms else None,
        "solution": solution,
        "norm": fixture.problem.norm,
        "certificate": note,
        "nu_star": cert.nu_star if cert else None,
        "trace_path": args.trace,
    }
    if report is not None:
        doc["majorization"] = {"passed": report.passed, "worst_slack": report.worst_slack}
    _write_json(_to_doc("solve_report", doc), args.report)
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
    lines.append(f"root order computed here: {rep.order_computed or 'n/a'}")
    return "\n".join(lines)


def _pop_number(params, key, *default):
    """params.pop(key, *default) as a float; text, a list or a too large integer name the key."""
    value = params.pop(key, *default)
    if value is None or isinstance(value, float):
        return value
    if isinstance(value, int):
        try:
            return float(value)
        except OverflowError:
            pass
    raise BadParameters(f"compare parameter {key!r} must be a number, got {value!r}")


def _cmd_compare(args):
    params = _parse_params(args.params)
    try:
        p = HoelderParams(
            l0=_pop_number(params, "l0"),
            alpha=_pop_number(params, "alpha", 1.0),
            nu=_pop_number(params, "nu", 0.0),
            eta=_pop_number(params, "eta"),
        )
        R = _pop_number(params, "R", 10.0)
        delta = _pop_number(params, "delta", None)
    except KeyError as exc:
        raise BadParameters(f"compare needs l0=... eta=... (missing {exc})") from exc
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
    _write_csv("radius,value", omega.knots, args.out)
    print(f"{len(omega.knots)} knots ({args.mode} mode) -> {args.out}")
    return EXIT_OK


def _cmd_list(args):
    for name in fixture_names():
        print(f"{name}: {fixture_schema(name)}")
    return EXIT_OK


def _seed(text):
    """--seed: the non-negative integer that numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _count(text):
    """--radii, --samples and --max-iter: a whole number >= 1, in _whole's words."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return int(text)


def _add_problem_arguments(sub, with_measure=True):
    sub.add_argument("problem", help="fixture name or path to a problem-spec .json")
    sub.add_argument("params", nargs="*", help="fixture parameters as key=value")
    sub.add_argument("--norm", choices=NORM_KINDS,
                     help="vector norm (default: the spec file's norm, else max)")
    sub.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    sub.add_argument("--radii", type=_count, default=DEFAULT_NUM_RADII,
                     help="number of estimation radii (uniform up to R)")
    sub.add_argument("--samples", type=_count, default=DEFAULT_SAMPLES,
                     help="sphere samples per radius for estimation")
    if with_measure:
        sub.add_argument("--measure", choices=("auto", "analytic", "direct", "centered"),
                         default="auto",
                         help="where the continuity measure comes from (auto: the "
                              "fixture's closed form if it has one, else centered)")


@functools.cache
def _build_parser():
    """The top-level parser and its {command: subcommand parser} map."""
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
    solve.add_argument("--max-iter", type=_count, default=StoppingRule.max_iter)
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

    return parser, subs.choices


def _parse(argv):
    """parse_args of the top-level parser, with one parser pass for a leading command.

    The top-level parser reads every argument as one of its own options
    first, and refuses one that starts with "--=" as ambiguous between
    --help and --version, so such a line goes to it.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = commands.get(argv[0]) if argv else None
    if sub is None or any(a.startswith("--=") for a in argv):
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:  # argparse's own message, as the top-level parse_args gives it
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extra))
    return args


def main(argv=None):
    try:
        args = _parse(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return EXIT_BAD_INPUT if code else EXIT_OK
    try:
        with np.errstate(all="ignore"):  # finiteness checks report failed evaluations
            return args.func(args)
    except (UnknownFixture, BadParameters, RadiusOutOfRange,
            OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except FixedSlopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
