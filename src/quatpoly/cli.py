"""Command line interface: parse, compute, print, one document per run.

Every invocation handles a single command over one algebra and exits
with a code describing the failure class, so batch drivers can sort
outcomes without scraping messages: 0 success, 1 parse error, 2 zero
divisor (split algebra), 3 precondition violation, 4 numeric failure,
5 internal error (a failed invariant check, which is a bug).
``--format json`` emits a stable machine-readable document with fields
{command, algebra, backend, input, result, diagnostics}.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .algebra import AlgebraParams, Quaternion, SphereClass
from .decompose import beck_decompose, center_coordinates
from .errors import (
    InvariantViolation,
    NumericFailure,
    ParseError,
    PreconditionError,
    ZeroDivisorError,
)
from .numeric import (
    NumericSettings,
    SphereClassF,
    classify_f64,
    eval_f64,
    roots_in_subfield_f64,
)
from .parsing import parse_quaternion, parse_to_qpoly, poly_to_json_obj, quat_to_json
from .polynomials import eval_right, gcrd, right_divrem
from .roots import (
    IsolatedRoot,
    RootReport,
    UncertainStatus,
    analyze_sparse,
    classify,
    classify_cubic,
    nonroot_conjugates,
    roots_in_subfield,
    spherical_bound_report,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # command line misuse is a parse failure, not argparse's exit(2)
    def error(self, message):
        raise _UsageError(message)


def _parse_algebra(text: str) -> AlgebraParams:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ParseError(f"--algebra expects 'a,b', got {text!r}", 1, 1)
    try:
        a, b = Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"--algebra components must be rationals, got {text!r}", 1, 1)
    return AlgebraParams(a, b)


def _settings(eps: Optional[float]) -> NumericSettings:
    if eps is None:
        return NumericSettings()
    if eps <= 0:
        raise PreconditionError(f"--eps must be positive, got {eps}")
    # the default ratios, so --eps 1e-9 is the default
    return NumericSettings(eps_zero=eps, eps_class=10 * eps)


def _f(v: float) -> float:
    # trims float noise so documents stay tidy and reproducible
    return float(f"{v:.12g}")


def _quat_json(q) -> list:
    if isinstance(q, Quaternion):
        return quat_to_json(q)
    return [_f(q.w), _f(q.x), _f(q.y), _f(q.z)]


def _status_json(status) -> dict:
    entry = {"status": status.kind}
    if isinstance(status, IsolatedRoot):
        entry["representative"] = _quat_json(status.representative)
    elif isinstance(status, UncertainStatus):
        entry["reason"] = status.reason
    return entry


# -- result shapes: each returns (json result, text lines) ----------------------


def _named(algebra: AlgebraParams, **parts) -> tuple[dict, list[str]]:
    """Labelled polynomials and quaternions, one ``label: value`` line each."""
    result = {
        label: quat_to_json(value) if isinstance(value, Quaternion)
        else poly_to_json_obj(value, algebra)
        for label, value in parts.items()
    }
    return result, [f"{label}: {value}" for label, value in parts.items()]


def _quats(key: str, values) -> tuple[dict, list[str]]:
    return {key: [_quat_json(q) for q in values]}, [str(q) for q in values]


def _report(report: RootReport) -> tuple[dict, list[str]]:
    num = str if report.candidate_source == "exact" else _f
    classes = []
    for cls, status in report.class_entries:
        if isinstance(cls, (SphereClass, SphereClassF)):
            entry = {"trace": num(cls.trace), "norm": num(cls.norm)}
        else:
            entry = {"value": num(cls.value)}
        classes.append({**entry, **_status_json(status)})
    result = {
        "degree": report.degree,
        "central_roots": [num(r) for r in report.central_roots],
        "classes": classes,
        "candidate_source": report.candidate_source,
    }
    roots = ", ".join(str(r) for r in report.central_roots) or "none"
    lines = [f"degree: {report.degree}", f"central roots: {roots}"]
    lines += [f"{cls}: {status}" for cls, status in report.class_entries] or [
        "non-central classes: none"
    ]
    return result, lines


# -- runners: (args, poly, algebra, settings), settings None on the exact backend


def _eval(args, poly, algebra, settings):
    point = parse_quaternion(args.at, algebra)
    value = eval_right(poly, point) if settings is None else eval_f64(poly, point)
    return {"value": _quat_json(value)}, [f"P({args.at}) = {value}"]


def _divrem(args, poly, algebra, settings):
    quotient, remainder = right_divrem(poly, parse_to_qpoly(args.poly2, algebra))
    return _named(algebra, quotient=quotient, remainder=remainder)


def _gcrd(args, poly, algebra, settings):
    return _named(algebra, gcrd=gcrd(poly, parse_to_qpoly(args.poly2, algebra)))


def _mul(args, poly, algebra, settings):
    return _named(algebra, product=poly * parse_to_qpoly(args.poly2, algebra))


def _decompose(args, poly, algebra, settings):
    fact = beck_decompose(poly)
    return _named(algebra, leading=fact.leading, reduced=fact.reduced, central=fact.central)


def _coords(args, poly, algebra, settings):
    return _named(algebra, **dict(zip("1ijk", center_coordinates(poly).parts())))


def _classify(args, poly, algebra, settings):
    if settings is None:
        return _report(classify(poly))
    return _report(classify_f64(poly, settings))


def _spherical(args, poly, algebra, settings):
    if settings is None:
        rep = spherical_bound_report(poly)
        bound, spheres, num = rep.bound, rep.spherical, str
    else:
        report = classify_f64(poly, settings)
        bound, spheres, num = report.degree // 2, report.spherical_classes, _f
    result = {
        "bound": bound,
        "count": len(spheres),
        "classes": [{"trace": num(c.trace), "norm": num(c.norm)} for c in spheres],
    }
    lines = [f"spherical classes: {len(spheres)} (bound {bound})"] + [
        f"sphere(trace={num(c.trace)}, norm={num(c.norm)})" for c in spheres
    ]
    if settings is not None:
        return result, lines, "structure checks at the bound are exact-backend only"
    result["equality_parity"] = rep.equality_parity
    result["coefficients_central"] = rep.coefficients_central
    result["coefficients_commute"] = rep.coefficients_commute
    if rep.equality_parity is not None:
        lines.append(f"bound attained, {rep.equality_parity} structure verified")
    return result, lines


def _analyze(args, poly, algebra, settings):
    analysis = analyze_sparse(poly)
    factor = analysis.candidate_factor
    result = {
        "applicable": analysis.applicable,
        "reason": analysis.reason,
        "case": analysis.case,
        "low_position": analysis.low_position,
        "high_position": analysis.high_position,
        "bound": analysis.bound,
        "candidate_factor": None if factor is None else poly_to_json_obj(factor, algebra),
        "spherical_found": analysis.spherical_found,
    }
    if not analysis.applicable:
        return result, [f"not applicable: {analysis.reason}"]
    lines = [
        f"case: {analysis.case}",
        f"noncentral positions: {analysis.low_position}, {analysis.high_position}",
        f"spherical bound: {analysis.bound}",
        f"spherical found: {analysis.spherical_found}",
    ]
    if factor is not None:
        lines.append(f"candidate factor: {factor}")
    return result, lines


def _cubic(args, poly, algebra, settings):
    analysis = classify_cubic(poly)
    result = {
        "case": analysis.case,
        "bound": analysis.bound,
        "spherical_found": analysis.spherical_found,
    }
    lines = [
        f"case: {analysis.case}",
        f"spherical bound: {analysis.bound}",
        f"spherical found: {analysis.spherical_found}",
    ]
    return result, lines


def _nonroots(args, poly, algebra, settings):
    point = parse_quaternion(args.at, algebra)
    return _quats("conjugates", nonroot_conjugates(poly, point, args.k))


def _subfield_roots(args, poly, algebra, settings):
    generator = parse_quaternion(args.subfield, algebra)
    if settings is None:
        return _quats("roots", roots_in_subfield(poly, generator))
    return _quats("roots", roots_in_subfield_f64(poly, generator, settings))


# -- the command table ------------------------------------------------------------


class _Command(NamedTuple):
    help: str
    # returns (json result, text lines) plus any diagnostic notes
    run: Callable
    numeric: bool
    arguments: tuple = ()


def _operand(metavar: str):
    return ("poly2",), {"metavar": metavar, "help": f"{metavar} expression"}


_AT = ("--at",), {"required": True, "metavar": "QUAT",
                  "help": "quaternion point, literal syntax"}
_K = ("-k",), {"type": int, "default": 5, "metavar": "COUNT",
               "help": "how many conjugates to produce (default 5)"}
_SUBFIELD = ("--subfield",), {"required": True, "metavar": "QUAT",
                              "help": "non-central generator of the subfield"}

_COMMANDS = {
    "eval": _Command("right evaluation at a point", _eval, True, (_AT,)),
    "divrem": _Command("right division with remainder", _divrem, False,
                       (_operand("divisor"),)),
    "gcrd": _Command("greatest common right divisor", _gcrd, False, (_operand("other"),)),
    "mul": _Command("ordered product", _mul, False, (_operand("other"),)),
    "decompose": _Command("leading * reduced * central factorization", _decompose, False),
    "coords": _Command("coordinates over the center, basis 1 i j k", _coords, False),
    "classify": _Command("root classes: central, spherical, isolated", _classify, True),
    "spherical": _Command("spherical classes against the degree/2 bound", _spherical, True),
    "analyze": _Command("sparse two-noncentral-coefficient analysis", _analyze, False),
    "cubic": _Command("cubic case analysis", _cubic, False),
    "nonroots": _Command("distinct non-root conjugates of a point", _nonroots, False,
                         (_AT, _K)),
    "subfield-roots": _Command("roots inside one maximal subfield", _subfield_roots, True,
                               (_SUBFIELD,)),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", default="-1,-1", metavar="a,b",
                        help="structure constants, rationals (default -1,-1)")
    common.add_argument("--numeric", action="store_true",
                        help="use the float64 backend where supported")
    common.add_argument("--eps", type=float, default=None,
                        help="numeric residual tolerance (implies class tolerance "
                             "eps_class = 10*eps)")
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = _Parser(prog="quatpoly", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        p.add_argument("poly", help="polynomial expression")
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
    return parser


def _run(args) -> list[str]:
    """Execute one command; returns the lines to print."""
    algebra = _parse_algebra(args.algebra)
    command = _COMMANDS[args.command]
    if args.numeric and not command.numeric:
        raise PreconditionError(f"command {args.command!r} has no numeric backend")
    settings = _settings(args.eps)  # validates --eps on both backends
    poly = parse_to_qpoly(args.poly, algebra)
    result, lines, *diagnostics = command.run(
        args, poly, algebra, settings if args.numeric else None
    )
    if args.format == "text":
        return lines + [f"note: {note}" for note in diagnostics]
    doc = {
        "command": args.command,
        "algebra": {"a": str(algebra.a), "b": str(algebra.b)},
        "backend": "numeric" if args.numeric else "exact",
        "input": _input_echo(args),
        "result": result,
        "diagnostics": diagnostics,
    }
    return [json.dumps(doc, indent=2)]


def _input_echo(args) -> dict:
    echo = {"poly": args.poly}
    for field in ("poly2", "at", "subfield", "k", "eps"):
        value = getattr(args, field, None)
        if value is not None:
            echo[field] = value
    return echo


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help and friends
        return int(err.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        output = _run(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except ZeroDivisorError as err:
        print(f"algebra error: {err}", file=sys.stderr)
        return 2
    except (PreconditionError, ZeroDivisionError) as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return 3
    except NumericFailure as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 4
    except InvariantViolation as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 5
    for line in output:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
