"""Output checks, run outside the timed region of every operation.

Each workload reduces an operation's output to a small, hashable
*summary* right after timing it; every distinct summary is checked
here once the timed loop is over.  A check returns a verdict, ok, miss
or failed, with a one-line reason.

* ``exact-classify`` is checked against an independent oracle: sympy
  factors the companion ``N(P) = P0^2 - a P1^2 - b P2^2 + ab P3^2``
  (the norm form on the centre coordinates ``P = P0 + P1 i + P2 j + P3 k``)
  over QQ.  Its linear factors are the central roots and its monic
  irreducible quadratics ``x^2 - t x + n`` the non-central classes that
  hold roots; a class is spherical exactly when its quadratic divides all
  four coordinates.
* ``float-classify`` is checked against the planted classes.
* ``cli-batch`` is checked against the golden documents and in-process
  library calls.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from corpus import algebra_of

# -- summaries -----------------------------------------------------------------


def exact_summary(report, quatpoly) -> tuple:
    """Central roots and (trace, norm, status) of each class, exactly."""
    entries = []
    for cls, status in report.class_entries:
        if isinstance(cls, quatpoly.SphereClass):
            entries.append((cls.trace, cls.norm, type(status).__name__))
        else:
            entries.append((cls.value, None, type(status).__name__))
    return (tuple(report.central_roots), tuple(sorted(entries, key=repr)))


def float_summary(report, quatpoly) -> tuple:
    entries = []
    for cls, status in report.class_entries:
        if isinstance(cls, quatpoly.SphereClassF):
            entries.append((cls.trace, cls.norm, type(status).__name__))
        else:
            entries.append((cls.value, None, type(status).__name__))
    return (tuple(report.central_roots), tuple(entries))


# -- exact oracle --------------------------------------------------------------


def _sympy_poly(values, x, sympy):
    return sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in reversed(values)],
                      x, domain="QQ")


def exact_oracle(poly) -> dict:
    """The root classes of ``poly`` according to sympy's factorization.

    Returns central roots, and for each irreducible quadratic factor of
    the companion its (trace, norm) with whether the class is spherical.
    """
    import sympy

    x = sympy.Symbol("x")
    a = sympy.Rational(poly.algebra.a.numerator, poly.algebra.a.denominator)
    b = sympy.Rational(poly.algebra.b.numerator, poly.algebra.b.denominator)
    coords = [_sympy_poly([c.coords()[m] for c in poly.coeffs], x, sympy) for m in range(4)]
    p0, p1, p2, p3 = coords
    companion = p0**2 - a * p1**2 - b * p2**2 + a * b * p3**2
    common = coords[0]
    for part in coords[1:]:
        common = sympy.gcd(common, part)
    central, classes = [], {}
    for factor, _ in companion.factor_list()[1]:
        cs = [Fraction(int(c.p), int(c.q)) for c in factor.all_coeffs()]
        if factor.degree() == 1:
            central.append(-cs[1] / cs[0])
        elif factor.degree() == 2:
            t, n = -cs[1] / cs[0], cs[2] / cs[0]
            spherical = common.degree() >= 2 and common.rem(factor).is_zero
            classes[(t, n)] = spherical
    return {"central": sorted(central), "classes": classes}


OK, MISS, FAILED = "ok", "miss", "failed"


def _verdict(hard: list, soft: list) -> tuple:
    """("ok", None), ("miss", reason) or ("failed", reason).

    A *miss* is the documented incompleteness of a backend: a class the
    exact backend does not report on an input of ``known_misses.json``,
    or a planted class the float backend locates only to its eigenvalue
    scatter.  It counts in ``error_rate`` and is listed by input.  A
    *failure* contradicts what the backend certifies, or is a miss of
    the exact backend on an unlisted input, and makes the run incorrect.
    """
    if hard:
        return FAILED, "; ".join(hard + soft)
    if soft:
        return MISS, "; ".join(soft)
    return OK, None


def check_exact(summary: tuple, oracle: dict, known_miss: bool = False) -> tuple:
    """Compare a classification with the oracle.  Missed classes are a
    miss on a ``known_miss`` input and a failure on any other."""
    central, entries = summary
    hard, soft = [], []
    if list(central) != oracle["central"]:
        hard.append(f"central roots {[str(v) for v in central]} != oracle "
                    f"{[str(v) for v in oracle['central']]}")
    reported = {}
    for first, second, status in entries:
        if second is None:
            hard.append(f"unexpected central class entry {first}")
            continue
        reported[(first, second)] = status
    want = oracle["classes"]
    missing = sorted(set(want) - set(reported))
    extra = sorted(set(reported) - set(want))
    if missing:
        (soft if known_miss else hard).append(
            "missed classes " + ", ".join(f"(t={t}, n={n})" for t, n in missing))
    if extra:
        hard.append("extra classes " + ", ".join(f"(t={t}, n={n})" for t, n in extra))
    for key in sorted(set(want) & set(reported)):
        expected = "SphericalRoots" if want[key] else "IsolatedRoot"
        if reported[key] != expected:
            hard.append(f"class (t={key[0]}, n={key[1]}) is {reported[key]}, "
                        f"oracle says {expected}")
    return _verdict(hard, soft)


# -- float check ---------------------------------------------------------------


#: Eigenvalues of a double companion root scatter like the square root of
#: machine epsilon times the root's conditioning.  A planted class found
#: within this relative distance but outside ``eps_class`` is located
#: only to that scatter (the README's documented resolution limit): a
#: miss.  Planted classes are at least 1 apart, so a reported class
#: stands for at most one of them, and nothing farther away can.
SCATTER_TOL = 1e-4


def _close(value: float, target: Fraction, eps: float) -> bool:
    return abs(value - float(target)) <= eps * (1.0 + abs(float(target)))


def _stands_for(item: tuple, tag: tuple, eps: float) -> bool:
    """Whether a reported (value-or-trace, norm-or-None, status) lies
    within ``eps`` of a planted tag of the same kind."""
    first, second, _ = item
    if tag[0] == "central":
        return second is None and _close(first, tag[1], eps)
    return second is not None and _close(first, tag[1], eps) and _close(second, tag[2], eps)


def check_planted(summary: tuple, planted: tuple, eps_class: float) -> tuple:
    """Every planted class appears within eps_class, in its category, and
    every central root and root-bearing class reported stands for exactly
    one planted class.

    A planted product's root classes are exactly its planted classes, so
    a reported root or class that matches no planted class, or a second
    one that matches the same class, is a failure.
    """
    central, entries = summary
    roots = [(v, None, "CentralRoot") for v in central]
    bearing = [item for item in entries if item[2] != "NoRootInClass"]
    hard, soft = [], []
    for item in roots + bearing:
        if not any(_stands_for(item, tag, SCATTER_TOL) for tag in planted):
            hard.append(f"reported {item} matches no planted class")
    for tag in planted:
        label = (f"central root {tag[1]}" if tag[0] == "central"
                 else f"class (t={tag[1]}, n={tag[2]})")
        near = [item for item in roots + list(entries) if _stands_for(item, tag, SCATTER_TOL)]
        matches = [item for item in near if item[2] != "NoRootInClass"]
        if len(matches) > 1:
            hard.append(f"planted {label} reported {len(matches)} times: "
                        f"{[item[2] for item in matches]}")
        want = ("CentralRoot" if tag[0] == "central"
                else "SphericalRoots" if tag[0] == "sphere" else "IsolatedRoot")
        statuses = [item[2] for item in near]
        if any(item[2] == want for item in near if _stands_for(item, tag, eps_class)):
            continue
        if not near:
            hard.append(f"planted {label} not reported")
        elif want in statuses or "UncertainStatus" in statuses:
            soft.append(f"planted {label} reported as {statuses} outside eps_class")
        else:
            hard.append(f"planted {label} reported as {statuses}, want {want}")
    return _verdict(hard, soft)


# -- CLI check -----------------------------------------------------------------


def golden_text(root: Path, index: int) -> str:
    return (root / "tests" / "golden" / f"classify_cubic_{index}.json").read_text()


def _f12(value: float) -> float:
    return float(f"{value:.12g}")


def expected_cli_result(op, quatpoly) -> dict:
    """The ``result`` field of the CLI document, rebuilt from library calls."""
    algebra = algebra_of(op.ab, quatpoly)
    poly = quatpoly.parse_to_qpoly(op.text, algebra)
    to_json = quatpoly.poly_to_json_obj
    command = op.argv[0]
    if command == "classify":
        numeric = "--numeric" in op.argv
        report = quatpoly.classify_f64(poly) if numeric else quatpoly.classify(poly)
        value = _f12 if numeric else str
        classes = []
        for cls, status in report.class_entries:
            if hasattr(cls, "norm"):
                entry = {"trace": value(cls.trace), "norm": value(cls.norm)}
            else:
                entry = {"value": value(cls.value)}
            if isinstance(status, quatpoly.SphericalRoots):
                entry["status"] = "spherical"
            elif isinstance(status, quatpoly.IsolatedRoot):
                rep = status.representative
                entry["status"] = "isolated"
                entry["representative"] = (
                    [_f12(c) for c in (rep.w, rep.x, rep.y, rep.z)] if numeric
                    else quatpoly.quat_to_json(rep))
            elif isinstance(status, quatpoly.NoRootInClass):
                entry["status"] = "no-root"
            else:
                entry["status"] = "uncertain"
                entry["reason"] = status.reason
            classes.append(entry)
        return {"degree": report.degree,
                "central_roots": [value(r) for r in report.central_roots],
                "classes": classes,
                "candidate_source": report.candidate_source}
    if command == "divrem":
        quotient, remainder = quatpoly.right_divrem(
            poly, quatpoly.parse_to_qpoly(op.extra["other"], algebra))
        return {"quotient": to_json(quotient), "remainder": to_json(remainder)}
    if command == "gcrd":
        g = quatpoly.gcrd(poly, quatpoly.parse_to_qpoly(op.extra["other"], algebra))
        return {"gcrd": to_json(g)}
    if command == "decompose":
        fact = quatpoly.beck_decompose(poly)
        return {"leading": quatpoly.quat_to_json(fact.leading),
                "reduced": to_json(fact.reduced),
                "central": to_json(fact.central, algebra)}
    if command == "eval":
        point = quatpoly.parse_quaternion(op.extra["at"], algebra)
        return {"value": quatpoly.quat_to_json(quatpoly.eval_right(poly, point))}
    raise ValueError(f"no expected result for command {command!r}")


def check_cli(op, stdout: str, returncode: int, quatpoly, root: Path) -> tuple:
    if returncode != 0:
        return FAILED, f"exit code {returncode}"
    if op.kind == "golden":
        if stdout != golden_text(root, op.extra["golden"]):
            return FAILED, (f"document differs from "
                            f"tests/golden/classify_cubic_{op.extra['golden']}.json")
        return OK, None
    try:
        doc = json.loads(stdout)
    except ValueError as err:
        return FAILED, f"output is not JSON: {err}"
    if doc.get("result") != expected_cli_result(op, quatpoly):
        return FAILED, "result differs from the in-process library call"
    return OK, None
