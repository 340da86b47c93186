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
from typing import Optional, Sequence

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
    QuatF,
    SphereClassF,
    classify_f64,
    eval_f64,
    roots_in_subfield_f64,
)
from .parsing import parse_quaternion, parse_to_qpoly, poly_to_json_obj, quat_to_json
from .polynomials import CentralPoly, QPoly, eval_right, gcrd, right_divrem
from .roots import (
    IsolatedRoot,
    NoRootInClass,
    RootReport,
    SphericalRoots,
    UncertainStatus,
    analyze_sparse,
    classify,
    classify_cubic,
    nonroot_conjugates,
    roots_in_subfield,
    spherical_bound_report,
)

COMMANDS = (
    "eval",
    "divrem",
    "gcrd",
    "mul",
    "decompose",
    "coords",
    "classify",
    "spherical",
    "analyze",
    "cubic",
    "nonroots",
    "subfield-roots",
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
    return NumericSettings(eps_zero=eps, eps_class=10 * eps)


def _f(v: float) -> float:
    # trims float noise so documents stay tidy and reproducible
    return float(f"{v:.12g}")


def _quatf_json(q: QuatF) -> list[float]:
    return [_f(q.w), _f(q.x), _f(q.y), _f(q.z)]


def _status_json(status) -> dict:
    if isinstance(status, SphericalRoots):
        return {"status": "spherical"}
    if isinstance(status, IsolatedRoot):
        rep = status.representative
        payload = (
            quat_to_json(rep) if isinstance(rep, Quaternion) else _quatf_json(rep)
        )
        return {"status": "isolated", "representative": payload}
    if isinstance(status, NoRootInClass):
        return {"status": "no-root"}
    if isinstance(status, UncertainStatus):
        return {"status": "uncertain", "reason": status.reason}
    return {"status": type(status).__name__}


def _report_json(report: RootReport, exact: bool) -> dict:
    classes = []
    for cls, status in report.class_entries:
        if isinstance(cls, (SphereClass, SphereClassF)):
            entry = {
                "trace": str(cls.trace) if exact else _f(cls.trace),
                "norm": str(cls.norm) if exact else _f(cls.norm),
            }
        else:
            entry = {"value": str(cls.value) if exact else _f(cls.value)}
        entry.update(_status_json(status))
        classes.append(entry)
    return {
        "degree": report.degree,
        "central_roots": [str(r) if exact else _f(r) for r in report.central_roots],
        "classes": classes,
        "candidate_source": report.candidate_source,
    }


def _status_text(status) -> str:
    if isinstance(status, SphericalRoots):
        return "spherical roots (the whole class)"
    if isinstance(status, IsolatedRoot):
        return f"isolated root {status.representative}"
    if isinstance(status, NoRootInClass):
        return "no root"
    if isinstance(status, UncertainStatus):
        return f"uncertain ({status.reason})"
    return str(status)


def _report_text(report: RootReport) -> list[str]:
    lines = [f"degree: {report.degree}"]
    if report.central_roots:
        roots = ", ".join(str(r) for r in report.central_roots)
    else:
        roots = "none"
    lines.append(f"central roots: {roots}")
    if not report.class_entries:
        lines.append("non-central classes: none")
    for cls, status in report.class_entries:
        lines.append(f"{cls}: {_status_text(status)}")
    return lines


def _poly_text(label: str, poly) -> str:
    return f"{label}: {poly}"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", default="-1,-1", metavar="a,b",
                        help="structure constants, rationals (default -1,-1)")
    common.add_argument("--numeric", action="store_true",
                        help="use the float64 backend where supported")
    common.add_argument("--eps", type=float, default=None,
                        help="numeric zero tolerance (implies class tolerance 10*eps)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0,
                        help="random seed echoed into the run config")

    parser = _Parser(prog="quatpoly", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def cmd(name: str, help_text: str, *, poly2: Optional[str] = None,
            at: bool = False, k: bool = False, subfield: bool = False):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("poly", help="polynomial expression")
        if poly2 is not None:
            p.add_argument("poly2", metavar=poly2, help=f"{poly2} expression")
        if at:
            p.add_argument("--at", required=True, metavar="QUAT",
                           help="quaternion point, literal syntax")
        if k:
            p.add_argument("-k", type=int, default=5, metavar="COUNT",
                           help="how many conjugates to produce (default 5)")
        if subfield:
            p.add_argument("--subfield", required=True, metavar="QUAT",
                           help="non-central generator of the subfield")
        return p

    cmd("eval", "right evaluation at a point", at=True)
    cmd("divrem", "right division with remainder", poly2="divisor")
    cmd("gcrd", "greatest common right divisor", poly2="other")
    cmd("mul", "ordered product", poly2="other")
    cmd("decompose", "leading * reduced * central factorization")
    cmd("coords", "coordinates over the center, basis 1 i j k")
    cmd("classify", "root classes: central, spherical, isolated")
    cmd("spherical", "spherical classes against the degree/2 bound")
    cmd("analyze", "sparse two-noncentral-coefficient analysis")
    cmd("cubic", "cubic case analysis")
    cmd("nonroots", "distinct non-root conjugates of a point", at=True, k=True)
    cmd("subfield-roots", "roots inside one maximal subfield", subfield=True)
    return parser


_EXACT_ONLY = {
    "divrem", "gcrd", "mul", "decompose", "coords", "analyze", "cubic", "nonroots",
}


def _run(args) -> tuple[dict, list[str], list[str]]:
    """Execute one command; returns (json result, text lines, diagnostics)."""
    algebra = _parse_algebra(args.algebra)
    numeric = args.numeric
    if numeric and args.command in _EXACT_ONLY:
        raise PreconditionError(f"command {args.command!r} has no numeric backend")
    st = _settings(args.eps)
    poly = parse_to_qpoly(args.poly, algebra)
    diagnostics: list[str] = []

    if args.command == "eval":
        point = parse_quaternion(args.at, algebra)
        if numeric:
            value = eval_f64(poly, point)
            return {"value": _quatf_json(value)}, [f"P({args.at}) = {value}"], diagnostics
        value = eval_right(poly, point)
        return {"value": quat_to_json(value)}, [f"P({args.at}) = {value}"], diagnostics

    if args.command == "divrem":
        divisor = parse_to_qpoly(args.poly2, algebra)
        quotient, remainder = right_divrem(poly, divisor)
        result = {
            "quotient": poly_to_json_obj(quotient),
            "remainder": poly_to_json_obj(remainder),
        }
        lines = [_poly_text("quotient", quotient), _poly_text("remainder", remainder)]
        return result, lines, diagnostics

    if args.command == "gcrd":
        other = parse_to_qpoly(args.poly2, algebra)
        g = gcrd(poly, other)
        return {"gcrd": poly_to_json_obj(g)}, [_poly_text("gcrd", g)], diagnostics

    if args.command == "mul":
        other = parse_to_qpoly(args.poly2, algebra)
        product = poly * other
        return {"product": poly_to_json_obj(product)}, [_poly_text("product", product)], diagnostics

    if args.command == "decompose":
        fact = beck_decompose(poly)
        result = {
            "leading": quat_to_json(fact.leading),
            "reduced": poly_to_json_obj(fact.reduced),
            "central": poly_to_json_obj(fact.central, algebra),
        }
        lines = [
            f"leading: {fact.leading}",
            _poly_text("reduced", fact.reduced),
            _poly_text("central", fact.central),
        ]
        return result, lines, diagnostics

    if args.command == "coords":
        coords = center_coordinates(poly)
        result = {
            "1": poly_to_json_obj(coords.scalar_part, algebra),
            "i": poly_to_json_obj(coords.i_part, algebra),
            "j": poly_to_json_obj(coords.j_part, algebra),
            "k": poly_to_json_obj(coords.k_part, algebra),
        }
        lines = [
            _poly_text("1", coords.scalar_part),
            _poly_text("i", coords.i_part),
            _poly_text("j", coords.j_part),
            _poly_text("k", coords.k_part),
        ]
        return result, lines, diagnostics

    if args.command == "classify":
        if numeric:
            report = classify_f64(poly, st)
            return _report_json(report, exact=False), _report_text(report), diagnostics
        report = classify(poly)
        return _report_json(report, exact=True), _report_text(report), diagnostics

    if args.command == "spherical":
        if numeric:
            report = classify_f64(poly, st)
            spheres = [
                cls
                for cls, status in report.class_entries
                if isinstance(status, SphericalRoots)
            ]
            bound = report.degree // 2
            diagnostics.append("structure checks at the bound are exact-backend only")
            result = {
                "bound": bound,
                "count": len(spheres),
                "classes": [
                    {"trace": _f(c.trace), "norm": _f(c.norm)} for c in spheres
                ],
            }
            lines = [f"spherical classes: {len(spheres)} (bound {bound})"] + [
                f"sphere(trace={_f(c.trace)}, norm={_f(c.norm)})" for c in spheres
            ]
            return result, lines, diagnostics
        rep = spherical_bound_report(poly)
        result = {
            "bound": rep.bound,
            "count": rep.count,
            "classes": [
                {"trace": str(c.trace), "norm": str(c.norm)} for c in rep.spherical
            ],
            "equality_parity": rep.equality_parity,
            "coefficients_central": rep.coefficients_central,
            "coefficients_commute": rep.coefficients_commute,
        }
        lines = [f"spherical classes: {rep.count} (bound {rep.bound})"]
        lines += [str(c) for c in rep.spherical]
        if rep.equality_parity is not None:
            lines.append(f"bound attained, {rep.equality_parity} structure verified")
        return result, lines, diagnostics

    if args.command == "analyze":
        analysis = analyze_sparse(poly)
        result = {
            "applicable": analysis.applicable,
            "reason": analysis.reason,
            "case": analysis.case,
            "low_position": analysis.low_position,
            "high_position": analysis.high_position,
            "bound": analysis.bound,
            "candidate_factor": (
                None
                if analysis.candidate_factor is None
                else poly_to_json_obj(analysis.candidate_factor, algebra)
            ),
            "spherical_found": analysis.spherical_found,
        }
        if not analysis.applicable:
            lines = [f"not applicable: {analysis.reason}"]
        else:
            lines = [
                f"case: {analysis.case}",
                f"noncentral positions: {analysis.low_position}, {analysis.high_position}",
                f"spherical bound: {analysis.bound}",
                f"spherical found: {analysis.spherical_found}",
            ]
            if analysis.candidate_factor is not None:
                lines.append(_poly_text("candidate factor", analysis.candidate_factor))
        return result, lines, diagnostics

    if args.command == "cubic":
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
        return result, lines, diagnostics

    if args.command == "nonroots":
        point = parse_quaternion(args.at, algebra)
        conjugates = nonroot_conjugates(poly, point, args.k)
        result = {"conjugates": [quat_to_json(c) for c in conjugates]}
        return result, [str(c) for c in conjugates], diagnostics

    if args.command == "subfield-roots":
        generator = parse_quaternion(args.subfield, algebra)
        if numeric:
            roots_f = roots_in_subfield_f64(poly, generator, st)
            result = {"roots": [_quatf_json(r) for r in roots_f]}
            return result, [str(r) for r in roots_f], diagnostics
        roots = roots_in_subfield(poly, generator)
        result = {"roots": [quat_to_json(r) for r in roots]}
        return result, [str(r) for r in roots], diagnostics

    raise _UsageError(f"unknown command {args.command!r}")


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
        result, lines, diagnostics = _run(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
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

    if args.format == "json":
        algebra = _parse_algebra(args.algebra)
        doc = {
            "command": args.command,
            "algebra": {"a": str(algebra.a), "b": str(algebra.b)},
            "backend": "numeric" if args.numeric else "exact",
            "input": _input_echo(args),
            "result": result,
            "diagnostics": diagnostics,
        }
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
        for note in diagnostics:
            print(f"note: {note}")
    return 0


def _input_echo(args) -> dict:
    echo = {"poly": args.poly}
    for field in ("poly2", "at", "subfield"):
        value = getattr(args, field, None)
        if value is not None:
            echo[field] = value
    if getattr(args, "k", None) is not None and args.command == "nonroots":
        echo["k"] = args.k
    if args.eps is not None:
        echo["eps"] = args.eps
    if args.seed:
        echo["seed"] = args.seed
    return echo


if __name__ == "__main__":
    sys.exit(main())
