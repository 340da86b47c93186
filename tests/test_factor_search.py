"""The p-adic factor search and the exact classification built on it.

Exact ``classify`` takes its classes from the rational factors of
degree 1 and 2 of two parts of Beck's split P = c * G * H: sqfree(H)
and sqfree(N(G)) / gcd(., sqfree(H)).  These tests check the factor
search and the classification against sympy's ``factor_list`` on
adversarial inputs, pin the inputs the earlier eigenvalue search
missed, and check the integer-row evaluation and the coprimality
certificate of the isolated part.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpoly import (
    HAMILTON,
    AlgebraParams,
    CentralPoly,
    InvariantViolation,
    IsolatedRoot,
    QPoly,
    SphericalRoots,
    classify,
    parse_to_qpoly,
)
from quatpoly import decompose
from quatpoly.decompose import _padic_factors, _Structure
from quatpoly.polynomials import (
    _int_gcd, _int_norm_form, _int_quotient, _int_squarefree, _primitive, _to_ints)
from quatpoly.roots import RootReport, _check_report

from conftest import DIVISION_ALGEBRAS, FRACTIONAL_ALGEBRAS, qpolys, quaternions

_HUGE = 10**18 + 9
_NEAR = Fraction(1, 10**9)

# -- adversarial rationals and factors -----------------------------------------


@st.composite
def rationals(draw):
    """Small fractions, denominators near 10^18, and values 10^-9 apart."""
    kind = draw(st.sampled_from(["small", "huge", "near"]))
    if kind == "small":
        return Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    if kind == "huge":
        return Fraction(draw(st.integers(-40, 40)), _HUGE)
    return 1 + draw(st.integers(-2, 2)) * _NEAR


@st.composite
def central_factors(draw):
    """x - r, or x^2 - t x + n with complex roots 10^-9 from the axis,
    norms near 10^30, ordinary ones, or real irrational roots."""
    if draw(st.booleans()):
        return CentralPoly((-draw(rationals()), 1))
    t = draw(rationals())
    gap = draw(st.sampled_from([_NEAR**2, Fraction(10**30 + 7), Fraction(3, 2),
                                Fraction(-2), Fraction(-3, 5)]))
    return CentralPoly((t * t / 4 + gap, -t, 1))


def _product(factors) -> CentralPoly:
    out = CentralPoly((1,))
    for f in factors:
        out = out * f
    return out


def _sympy_poly(values, sympy):
    return sympy.Poly([sympy.Rational(v.numerator, v.denominator) for v in reversed(values)],
                      sympy.Symbol("x"), domain="QQ")


def _ints(factor) -> list[int]:
    return [int(c) for c in reversed(factor.all_coeffs())]


# -- the factor search -----------------------------------------------------------


class TestPadicFactors:
    @given(st.lists(central_factors(), min_size=1, max_size=4),
           st.lists(st.integers(-9, 9), min_size=3, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy_factor_list(self, sympy, factors, noise):
        # the noise factor, of degree 2-4, is mostly irreducible
        poly = _product(factors) * CentralPoly(noise[:-1] + [abs(noise[-1]) + 1])
        f = _int_squarefree(_primitive(_to_ints(poly.coeffs)[0]))
        expected = {tuple(_ints(factor.primitive()[1] * factor.LC().p // abs(factor.LC().p)))
                    for factor, _ in _sympy_poly(poly.coeffs, sympy).factor_list()[1]
                    if factor.degree() <= 2}
        found = _padic_factors(f, 2)
        assert len(found) == len(expected)
        assert {tuple(factor) for factor in found} == expected
        assert {tuple(factor) for factor in _padic_factors(f, 1)} == {
            factor for factor in expected if len(factor) == 2}

    def test_constant_has_no_factors(self):
        assert _padic_factors([5], 2) == []

    def test_failing_prime_bound(self):
        # (x - 1)^2 (x + 2) is not square-free: every prime fails
        with pytest.raises(InvariantViolation, match="no prime separates"):
            _padic_factors([2, -3, 0, 1], 2)


# -- classification against the oracle ---------------------------------------


def oracle(poly: QPoly, sympy) -> tuple[list, dict]:
    """Central roots and {(t, n): status} from sympy's factorization of
    the companion: a quadratic factor is spherical when it divides all
    four coordinates, and holds one root otherwise.  A definite algebra
    (a, b < 0) has no element whose quadratic has real roots."""
    alg = poly.algebra
    a, b = (sympy.Rational(v.numerator, v.denominator) for v in (alg.a, alg.b))
    p0, p1, p2, p3 = coords = [_sympy_poly([c.coords()[m] for c in poly.coeffs], sympy)
                               for m in range(4)]
    common = coords[0]
    for part in coords[1:]:
        common = sympy.gcd(common, part)
    central, classes = [], {}
    for factor, _ in (p0**2 - a * p1**2 - b * p2**2 + a * b * p3**2).factor_list()[1]:
        cs = [Fraction(int(c.p), int(c.q)) for c in factor.monic().all_coeffs()]
        if factor.degree() == 1:
            central.append(-cs[1])
        elif factor.degree() == 2:
            t, n = -cs[1], cs[2]
            spherical = common.rem(factor).is_zero
            if not (spherical and alg.is_definitely_division and t * t > 4 * n):
                classes[(t, n)] = "SphericalRoots" if spherical else "IsolatedRoot"
    return sorted(central), classes


def summary(report: RootReport) -> tuple[list, dict]:
    return (list(report.central_roots),
            {(cls.trace, cls.norm): type(status).__name__ for cls, status in report.class_entries})


@st.composite
def adversarial_products(draw):
    """(x - q_1) ... (x - q_k) H over a division algebra, with the q_m
    and the central H built from adversarial rationals."""
    alg = draw(st.sampled_from(DIVISION_ALGEBRAS + FRACTIONAL_ALGEBRAS))
    poly = _product(draw(st.lists(central_factors(), max_size=2))).lift(alg)
    for _ in range(draw(st.integers(0 if poly.degree > 0 else 1, 2))):
        w, x, y, z = (draw(rationals()) for _ in range(4))
        if draw(st.booleans()):  # a class 10^-9 from the axis
            x, y, z = _NEAR, 0, 0
        q = alg.quat(w, x, y, z)
        poly = QPoly(alg, [-q, alg.one]) * poly
    return poly


class TestClassifyOracle:
    @given(adversarial_products())
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, sympy, poly):
        assert summary(classify(poly)) == oracle(poly, sympy)

    @given(qpolys(max_degree=5, bound=6).filter(lambda p: not p.is_zero and p.degree >= 1))
    @settings(max_examples=30, deadline=None)
    def test_random_polynomials_match_sympy(self, sympy, poly):
        assert summary(classify(poly)) == oracle(poly, sympy)


def _q(alg: AlgebraParams, text: str):
    return parse_to_qpoly(text, alg).coeffs[0]


_INDEFINITE_1_3 = AlgebraParams(Fraction(-1), Fraction(3))
_INDEFINITE_2_5 = AlgebraParams(Fraction(2), Fraction(5))

#: (algebra, input, central roots, {(t, n): status or isolated root})
REGRESSIONS = [
    # the three probes of bench/known_misses.json
    (HAMILTON, "(x^2 - 2/1000003 x + 1)(x - i)", [],
     {(0, 1): "i", (Fraction(2, 1000003), 1): "spherical"}),
    (HAMILTON, "(x^2 + 1)(x^2 + 1 + 1/1000000)", [],
     {(0, 1): "spherical", (0, Fraction(1000001, 1000000)): "spherical"}),
    (HAMILTON, "(x - i)(x^2 + 1000000000039)(x - 3)", [3],
     {(0, 1): "i", (0, 10**12 + 39): "spherical"}),
    # classes 10^-9 from the axis, and spheres within 10^-14 of a double root
    (HAMILTON, "x - 1 - 1/1000000000 i", [],
     {(2, 1 + _NEAR**2): "1 + 1/1000000000 i"}),
    (HAMILTON, "x^2 - 2x + 1 + 1/100000000000000", [],
     {(2, 1 + Fraction(1, 10**14)): "spherical"}),
    (HAMILTON, "(x^2 - 2x + 1 + 1/10000000000)(x - 1)", [1],
     {(2, 1 + Fraction(1, 10**10)): "spherical"}),
    (HAMILTON, "(x - i)(x - i - 1/1000000000 j)", [],
     {(0, 1): "3999999999999999999/4000000000000000001 i + 4000000000/4000000000000000001 j",
      (0, 1 + _NEAR**2): "i + 1/1000000000 j"}),
    # indefinite division algebras: classes whose quadratic has real roots
    (_INDEFINITE_1_3, "x - j", [], {(0, -3): "j"}),
    (_INDEFINITE_1_3, "(x - j)(x - i)", [], {(0, -3): "3i + 2j", (0, 1): "i"}),
    (_INDEFINITE_2_5, "x - i", [], {(0, -2): "i"}),
    # over Hamilton, x^2 - 2 names no class; over (-1, 3) its class is spherical
    (HAMILTON, "x^2 - 2", [], {}),
    (_INDEFINITE_1_3, "x^2 - 2", [], {(0, -2): "spherical"}),
]


class TestRegressions:
    @pytest.mark.parametrize("alg, text, central, classes", REGRESSIONS)
    def test_classes(self, alg, text, central, classes):
        report = classify(parse_to_qpoly(text, alg))
        assert list(report.central_roots) == central
        got = {}
        for cls, status in report.class_entries:
            if isinstance(status, SphericalRoots):
                got[(cls.trace, cls.norm)] = "spherical"
            else:
                assert isinstance(status, IsolatedRoot)
                got[(cls.trace, cls.norm)] = status.representative
        want = {key: value if value == "spherical" else _q(alg, value)
                for key, value in classes.items()}
        assert got == want


# -- the isolated part and the evaluation on integer rows -------------------------


def _isolated_by_gcd(structure: _Structure) -> list[int]:
    part = _int_squarefree(_primitive(
        _int_norm_form(structure.beck[1], structure.poly.algebra)[0]))
    common = _int_gcd([part, structure.central_squarefree])
    return part if len(common) == 1 else _int_quotient(part, common)


@st.composite
def shared_class_products(draw):
    """G H with G's norm sharing a planted class quadratic with H; the
    entries of 1/3 put 9 into the isolated part's leading coefficient."""
    alg = draw(st.sampled_from(DIVISION_ALGEBRAS))
    entries = st.sampled_from([0, 1, -2, Fraction(1, 3), Fraction(-2, 3)])
    roots = [alg.quat(*(draw(entries) for _ in range(4))) for _ in range(draw(st.integers(1, 3)))]
    poly = QPoly(alg, [alg.one])
    for q in roots:
        poly = poly * QPoly(alg, [-q, alg.one])
    shared = draw(st.sampled_from(roots))
    if draw(st.booleans()) and not shared.is_central:
        poly = poly * CentralPoly((shared.norm(), -shared.trace(), 1)).lift(alg)
    return poly


class TestIsolatedPart:
    @given(shared_class_products(), st.sampled_from([3, 5, 7, 2**61 - 1, 1073741789]))
    @settings(max_examples=60, deadline=None)
    def test_certificate_agrees_with_the_gcd(self, poly, prime):
        structure = _Structure(poly)
        expected = _isolated_by_gcd(structure)
        with mock.patch.object(decompose, "_CERT_PRIME", prime):
            assert structure.isolated_part == expected

    def test_prime_dividing_the_leading_coefficient_falls_back(self):
        # N(x - i/3) = x^2 + 1/9, primitive 9 x^2 + 1: the prime 3 divides
        # its leading coefficient, so the gcd must run
        structure = _Structure(parse_to_qpoly("(x - 1/3 i)(x - 2)"))
        structure.central_squarefree
        calls = []
        spy = lambda polys: calls.append(1) or _int_gcd(polys)
        with mock.patch.object(decompose, "_CERT_PRIME", 3), \
                mock.patch.object(decompose, "_int_gcd", spy):
            assert structure.isolated_part == [1, 0, 9]
        assert calls


class TestRowEvaluation:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_qpoly_evaluate(self, data):
        alg = data.draw(st.sampled_from(DIVISION_ALGEBRAS + FRACTIONAL_ALGEBRAS))
        poly = data.draw(qpolys(alg, max_degree=5).filter(lambda p: not p.is_zero))
        q = data.draw(quaternions(alg))
        assert _Structure(poly).evaluate(q) == poly.evaluate(q)

    def test_perturbed_isolated_root_is_caught(self):
        poly = parse_to_qpoly("(x - i)(x - 2 - j)")
        structure = _Structure(poly)
        report = classify(poly)
        ((cls, status), *rest) = report.class_entries
        moved = status.representative + HAMILTON.quat(0, 0, 0, Fraction(1, 10**12))
        bad = RootReport(report.degree, report.central_roots,
                         ((cls, IsolatedRoot(moved)), *rest), report.candidate_source)
        with pytest.raises(InvariantViolation, match="fails evaluation"):
            _check_report(structure, bad)


# -- no numpy on the exact path ------------------------------------------------------


def test_exact_classify_never_imports_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = ("import sys\n"
            "from quatpoly import classify, parse_to_qpoly\n"
            "from quatpoly.cli import main\n"
            "classify(parse_to_qpoly('(x - i)(x^2 + 2)(x - 3)'))\n"
            "assert main(['classify', '(x - j)(x^2 + 1)', '--format', 'json']) == 0\n"
            "assert 'numpy' not in sys.modules, 'the exact path imported numpy'\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
