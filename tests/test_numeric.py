"""Floating-point backend: classification on the exact split, and agreement."""

import functools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quatpoly import (
    HAMILTON,
    CentralClassF,
    CentralPoly,
    IsolatedRoot,
    NumericFailure,
    NumericSettings,
    PreconditionError,
    QPoly,
    QuatF,
    SphereClassF,
    SphericalRoots,
    agree_with_exact,
    class_remainder,
    classify_f64,
    companion_roots_f64,
    conjugacy_class,
    eval_f64,
    eval_right,
    parse_to_qpoly,
    roots_in_subfield_f64,
)
from quatpoly import numeric

from conftest import qpolys, quaternions, separated_class_product

A = HAMILTON


def entry_kinds(report):
    return sorted(type(status).__name__ for _, status in report.class_entries)


class TestQuatF:
    def test_from_exact_and_arithmetic(self):
        p = QuatF.from_exact(A.quat(1, 2, 3, 4))
        q = QuatF(0.5, -1.0, 0.0, 2.0)
        assert (p * q).norm() == pytest.approx(p.norm() * q.norm())
        assert (p + q - q).w == pytest.approx(p.w)

    def test_inverse(self):
        q = QuatF(1.0, 2.0, -1.0, 0.5)
        r = q * q.inverse()
        assert r.w == pytest.approx(1.0)
        assert abs(r.x) + abs(r.y) + abs(r.z) < 1e-12

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            QuatF(0.0, 0.0, 0.0, 0.0).inverse()

    def test_non_finite_rejected(self):
        with pytest.raises(PreconditionError):
            QuatF(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(PreconditionError):
            QuatF(float("inf"), 0.0, 0.0, 0.0)

    @given(st.data())
    @settings(max_examples=30)
    def test_matches_exact_arithmetic(self, data):
        p = data.draw(quaternions(bound=5))
        q = data.draw(quaternions(bound=5))
        exact = QuatF.from_exact(p * q)
        approx = QuatF.from_exact(p) * QuatF.from_exact(q)
        assert math.isclose(exact.w, approx.w, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(exact.x, approx.x, rel_tol=1e-12, abs_tol=1e-12)


class TestFloatKernels:
    """The float-tuple kernels of the backend against the exact core."""

    @given(qpolys(max_degree=6, bound=5))
    @settings(max_examples=40, deadline=None)
    def test_companion_matches_exact(self, poly):
        assume(poly.coeffs)
        got = numeric._float_companion(numeric._as_float_coeffs(poly))
        want = [float(c) for c in poly.companion().coeffs]
        # every term <c_m, c_n> is at most |c_m| |c_n| in size
        size = sum(float(c.norm()) ** 0.5 for c in poly.coeffs) ** 2
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12 * size)

    @given(qpolys(max_degree=6, bound=5), quaternions(bound=3))
    @settings(max_examples=40, deadline=None)
    def test_quadratic_remainder_matches_exact(self, poly, q):
        assume(poly.coeffs and not q.is_central)
        cls = conjugacy_class(q)
        t, n = float(cls.trace), float(cls.norm)
        got = numeric._quat_quadratic_remainder(numeric._as_float_coeffs(poly), t, n)
        want = [QuatF.from_exact(r)._coords() for r in class_remainder(poly, cls)]
        # synthetic division by x^2 - t x + n grows like (1 + |t| + |n|)^m
        size = sum(float(c.norm()) ** 0.5 * (1 + abs(t) + abs(n)) ** m
                   for m, c in enumerate(poly.coeffs))
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12 * size)


class TestNonFinite:
    """Non-finite inputs are precondition errors; non-finite results are
    numeric failures."""

    # the companion's x^2 coefficient is 1 + 1e400, which overflows
    OVERFLOWING = [QuatF(1.0, 0.0, 0.0, 0.0), QuatF(0.0, 1e200, 0.0, 0.0),
                   QuatF(1.0, 0.0, 0.0, 0.0)]

    @pytest.mark.parametrize("call", [
        classify_f64,
        companion_roots_f64,
        lambda coeffs: roots_in_subfield_f64(coeffs, A.j),
        lambda coeffs: eval_f64(coeffs, QuatF(1e200, 0.0, 0.0, 0.0)),
    ], ids=["classify_f64", "companion_roots_f64", "roots_in_subfield_f64", "eval_f64"])
    def test_overflow_is_numeric_failure(self, call):
        with pytest.raises(NumericFailure, match="non-finite"):
            call(self.OVERFLOWING)

    def test_overflowing_generator_norm_is_numeric_failure(self):
        with pytest.raises(NumericFailure, match="subfield generator norm"):
            roots_in_subfield_f64(parse_to_qpoly("x^2 + 1"), QuatF(0.0, 0.0, 1e300, 0.0))

    def test_overflowing_norm(self):
        # float ** raises OverflowError; the norm follows * and reads inf
        q = QuatF(1e200, 0.0, 0.0, 0.0)
        assert q.norm() == math.inf
        with pytest.raises(NumericFailure, match="quaternion norm"):
            q.inverse()

    def test_exact_value_too_large_for_float(self):
        with pytest.raises(PreconditionError, match="component x is too large"):
            QuatF.from_exact(A.quat(0, 10**400, 0, 0))

    @pytest.mark.parametrize("call", [
        lambda poly: roots_in_subfield_f64(poly, A.j),
        lambda poly: eval_f64(poly, A.one),
    ], ids=["roots_in_subfield_f64", "eval_f64"])
    def test_exact_coefficient_too_large_for_float(self, call):
        poly = QPoly(A, [A.quat(1, 0, 0, 0), A.quat(0, 0, 10**400, 0), A.one])
        with pytest.raises(PreconditionError, match="component y is too large for float64"):
            call(poly)

    @pytest.mark.parametrize("call", [classify_f64, companion_roots_f64,
                                      lambda poly: eval_f64(poly, A.one)],
                             ids=["classify_f64", "companion_roots_f64", "eval_f64"])
    def test_non_hamilton_poly_rejected(self, call):
        from quatpoly import AlgebraParams

        B = AlgebraParams(Fraction(-1), Fraction(-2))
        with pytest.raises(PreconditionError, match=r"Hamilton algebra \(-1, -1\); "
                                                    r"got \(a, b\) = \(-1, -2\)"):
            call(QPoly(B, [B.i, B.one]))


class TestEvalF64:
    @given(st.data())
    @settings(max_examples=40)
    def test_tracks_exact_evaluation(self, data):
        from conftest import qpolys

        poly = data.draw(qpolys(max_degree=4, bound=4))
        q = data.draw(quaternions(bound=3))
        exact = QuatF.from_exact(eval_right(poly, q))
        approx = eval_f64(poly, q)
        scale = 1.0 + max(abs(exact.w), abs(exact.x), abs(exact.y), abs(exact.z))
        assert abs(exact.w - approx.w) <= 1e-9 * scale
        assert abs(exact.z - approx.z) <= 1e-9 * scale


class TestClassifyF64:
    def test_central_roots_of_cubic(self):
        rep = classify_f64(parse_to_qpoly("x^3 - x"))
        assert sorted(rep.central_roots) == pytest.approx([-1.0, 0.0, 1.0])
        assert rep.class_entries == ()
        assert rep.candidate_source == "numeric"

    def test_sphere_detected(self):
        rep = classify_f64(parse_to_qpoly("x^3 + x"))
        assert list(rep.central_roots) == pytest.approx([0.0])
        ((cls, status),) = rep.class_entries
        assert isinstance(status, SphericalRoots)
        assert cls.trace == pytest.approx(0.0, abs=1e-9)
        assert cls.norm == pytest.approx(1.0, abs=1e-9)

    def test_isolated_root_detected(self):
        rep = classify_f64(parse_to_qpoly("(x - i)(x^2 - 1)"))
        assert sorted(rep.central_roots) == pytest.approx([-1.0, 1.0])
        ((cls, status),) = rep.class_entries
        assert isinstance(status, IsolatedRoot)
        r = status.representative
        assert (r.w, r.x, r.y, r.z) == pytest.approx((0, 1, 0, 0), abs=1e-7)

    def test_triple_central_root(self):
        rep = classify_f64(parse_to_qpoly("(x - 2)^3"))
        assert len(rep.central_roots) == 1
        assert rep.central_roots[0] == pytest.approx(2.0, abs=1e-4)

    def test_repeated_noncentral_classes_heal(self):
        # (x - i)(x - j)(x - k) has the lone root k; the companion is
        # (x^2 + 1)^3, and its square-free isolated part x^2 + 1 is
        # solved instead
        rep = classify_f64(parse_to_qpoly("(x - i)(x - j)(x - k)"))
        assert rep.central_roots == ()
        ((cls, status),) = rep.class_entries
        assert isinstance(status, IsolatedRoot)
        assert cls.trace == pytest.approx(0.0, abs=1e-6)
        assert cls.norm == pytest.approx(1.0, abs=1e-6)
        r = status.representative
        assert (r.w, r.x, r.y, r.z) == pytest.approx((0, 0, 0, 1), abs=1e-6)

    def test_repeated_sphere(self):
        rep = classify_f64(parse_to_qpoly("(x^2 + 1)^2"))
        ((cls, status),) = rep.class_entries
        assert isinstance(status, SphericalRoots)
        assert cls.trace == pytest.approx(0.0, abs=1e-6)

    def test_close_spheres_resolve_above_scatter(self):
        rep = classify_f64(parse_to_qpoly("(x^2 + 1)(x^2 + 101/100)"))
        norms = sorted(cls.norm for cls, _ in rep.class_entries)
        assert len(norms) == 2
        assert norms[0] == pytest.approx(1.0, abs=1e-4)
        assert norms[1] == pytest.approx(1.01, abs=1e-4)

    def test_nearby_spheres_stay_separate(self):
        # the companion's double roots 5e-5 apart would scatter into one
        # cluster; sqfree(H) has them as simple roots
        rep = classify_f64(parse_to_qpoly("(x^2 + 1)(x^2 + 10001/10000)"))
        norms = sorted(cls.norm for cls, _ in rep.class_entries)
        assert norms == pytest.approx([1.0, 1.0001], abs=1e-9)
        assert entry_kinds(rep) == ["SphericalRoots", "SphericalRoots"]
        agreement = agree_with_exact(parse_to_qpoly("(x^2 + 1)(x^2 + 10001/10000)"))
        assert agreement.agreed
        assert agreement.mismatches == ()
        assert agreement.flagged == ()

    def test_irrational_spheres_found(self):
        rep = classify_f64(parse_to_qpoly("x^5 + x"))
        assert list(rep.central_roots) == pytest.approx([0.0])
        traces = sorted(cls.trace for cls, _ in rep.class_entries)
        assert traces == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-9)
        assert entry_kinds(rep) == ["SphericalRoots", "SphericalRoots"]

    def test_degree_zero_rejected(self):
        with pytest.raises(PreconditionError):
            classify_f64(QPoly.constant(A.i))

    def test_float_coefficients_are_split_exactly(self):
        # (x - i/2)(x - 1/4) in floats: a float is a dyadic rational, so
        # the split sees the central factor exactly as the QPoly does
        coeffs = [QuatF(0.0, 0.125, 0.0, 0.0), QuatF(-0.25, -0.5, 0.0, 0.0),
                  QuatF(1.0, 0.0, 0.0, 0.0)]
        rep = classify_f64(coeffs)
        assert rep == classify_f64(parse_to_qpoly("(x - 1/2 i)(x - 1/4)"))
        assert rep.central_roots == (0.25,)
        assert entry_kinds(rep) == ["IsolatedRoot"]

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_matches_exact_on_separated_products(self, rng):
        poly, tags = separated_class_product(rng)
        if poly.degree < 1:
            return
        rep = classify_f64(poly)
        want_central = sorted(float(v) for kind, *rest in tags
                              if kind == "central" for v in rest)
        assert sorted(rep.central_roots) == pytest.approx(want_central, abs=1e-6)
        # round the sort key so float jitter cannot reorder tied traces
        key = lambda pair: (round(pair[0], 6), round(pair[1], 6))
        got = sorted(((cls.trace, cls.norm) for cls, _ in rep.class_entries),
                     key=key)
        want = sorted(((float(t), float(n)) for kind, t, n in
                       (tag for tag in tags if tag[0] == "sphere")), key=key)
        assert len(got) == len(want)
        for (gt, gn), (wt, wn) in zip(got, want):
            assert gt == pytest.approx(wt, abs=1e-6)
            assert gn == pytest.approx(wn, abs=1e-6)


class TestAgreement:
    EXAMPLES = [
        "x^3 - x",
        "x^3 + x",
        "(x - i)(x^2 - 1)",
        "(x - i)(x^2 + 1)",
        "(x - i)(x + 1)^2",
        "(x - i)(x^2 + x + 1)",
    ]

    @pytest.mark.parametrize("text", EXAMPLES)
    def test_example_cubics_agree_cleanly(self, text):
        agreement = agree_with_exact(parse_to_qpoly(text))
        assert agreement.agreed
        assert agreement.mismatches == ()
        assert agreement.flagged == ()
        assert agreement.matched

    def test_irrational_classes_flagged_not_mismatched(self):
        # exact backend cannot certify the sqrt(2)-trace spheres, so
        # they surface as near-sphere flags on the numeric side
        agreement = agree_with_exact(parse_to_qpoly("x^5 + x"))
        assert agreement.agreed
        assert len(agreement.flagged) == 2
        assert all("near-spherical" in f for f in agreement.flagged)

    def test_tiny_perturbation_stays_agreed(self):
        # the exact backend finds the sphere (-1e-12, 1) by p-adic factor
        # search, and the numeric backend places it within eps_class
        text = "x^2 + 1/1000000000000 x + 1"
        agreement = agree_with_exact(parse_to_qpoly(text))
        assert agreement.agreed
        ((cls, status),) = agreement.exact_report.class_entries
        assert (cls.trace, cls.norm) == (Fraction(-1, 10**12), 1)
        assert isinstance(status, SphericalRoots)
        assert agreement.flagged == ()

    def test_non_hamilton_rejected(self):
        from quatpoly import AlgebraParams

        B = AlgebraParams(Fraction(-1), Fraction(-2))
        with pytest.raises(PreconditionError):
            agree_with_exact(QPoly(B, [B.i, B.one]))


class TestCompanionRootsF64:
    def test_simple_companion_roots(self):
        roots = companion_roots_f64(parse_to_qpoly("x^2 + 1"))
        # companion (x^2 + 1)^2 has double roots at +-1j
        assert len(roots) == 4
        for r in roots:
            assert abs(r.real) < 1e-6 and abs(abs(r.imag) - 1.0) < 1e-6

    def test_extreme_spread_fails(self):
        poly = parse_to_qpoly("1/10000000000000 x^2 + 10000000000000")
        with pytest.raises(NumericFailure):
            companion_roots_f64(poly)

    def test_classify_surfaces_the_failure(self):
        poly = parse_to_qpoly("1/10000000000000 x^2 + 10000000000000")
        with pytest.raises(NumericFailure):
            classify_f64(poly)


class TestRealPolyRoots:
    """The direct companion eigensolve is numpy.roots, bit for bit."""

    @given(
        st.lists(st.floats(-1e6, 1e6) | st.just(0.0), min_size=1, max_size=12),
        st.floats(1e-3, 1e6), st.booleans(), st.integers(0, 3), st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_roots(self, lower, lead, negate, zero_constants, zero_lead):
        # degree 1-12 after trimming, with up to 3 zero constant terms
        coeffs = ([0.0] * zero_constants + lower)[:12] + [-lead if negate else lead]
        if zero_lead:
            coeffs.append(0.0)  # a zero leading entry, trimmed as numpy trims it
        want = [complex(z) for z in np.roots(np.array(coeffs[::-1], dtype=float))]
        got = numeric.real_poly_roots(coeffs)
        assert [repr(z) for z in got] == [repr(z) for z in want]

    @pytest.mark.parametrize("coeffs", [[2.0, -4.0], [0.0, 3.0], [0.0, 0.0, 1.0, 0.0], [5.0], []])
    def test_small_cases_match_numpy_roots(self, coeffs):
        want = [complex(z) for z in np.roots(np.array(coeffs[::-1], dtype=float))]
        assert [repr(z) for z in numeric.real_poly_roots(coeffs)] == [repr(z) for z in want]


class TestQuadraticParts:
    """Degree-2 parts of the split are real or not by their exact
    discriminant, so near-double roots keep their kind."""

    def test_near_double_root_is_a_sphere(self):
        # disc = -4 / 10^20 < 0: the sphere (2, 1 + 10^-20), not two central 1s
        report = classify_f64(parse_to_qpoly(f"x^2 - 2x + 1 + 1/{10**20}"))
        assert counts(report) == (0, 1, 0)
        ((cls, _),) = report.class_entries
        eps = NumericSettings().eps_class
        assert (cls.trace, cls.norm) == pytest.approx((2.0, 1.0), rel=eps, abs=eps)

    def test_nearly_real_isolated_root(self):
        report = classify_f64(parse_to_qpoly(f"x - 1 - 1/{10**9} i"))
        assert counts(report) == (0, 0, 1)
        ((cls, status),) = report.class_entries
        eps = NumericSettings().eps_class
        assert (cls.trace, cls.norm) == pytest.approx((2.0, 1.0), rel=eps, abs=eps)
        r = status.representative
        assert (r.w, r.x, r.y, r.z) == pytest.approx((1.0, 1e-9, 0.0, 0.0), rel=1e-12, abs=1e-20)

    def test_close_central_roots_stay_central(self):
        # disc = 10^-16 > 0: central roots 1 and 1 + 10^-8, not a sphere
        report = classify_f64(parse_to_qpoly(f"(x - 1)(x - 1 - 1/{10**8})"))
        assert counts(report) == (2, 0, 0)
        assert report.central_roots == pytest.approx((1.0, 1.0 + 1e-8), rel=1e-14)

    def test_closed_form_roots_are_residual_checked(self):
        with pytest.raises(NumericFailure, match="residual"):
            classify_f64(parse_to_qpoly("x^2 - 2"), NumericSettings(eps_zero=1e-30))

    def test_subnormal_roots_keep_their_bits(self):
        # |disc| / (4 c2^2) = 2^-2122 underflows to 0 when taken as one ratio
        report = classify_f64(parse_to_qpoly(f"x (x + 1/{2**1060})"))
        assert report.central_roots == (-2.0**-1060, 0.0)
        roots = numeric._part_roots([1, 0, 2**2100], NumericSettings())
        assert roots == [complex(0.0, 2.0**-1050), complex(0.0, -2.0**-1050)]

    @given(st.integers(-9, 9), st.integers(1, 9), st.integers(1, 9), st.integers(0, 515))
    @example(0, 1, 1, 505)  # scaled by 4^6: the bits must still match
    @example(0, 3, 5, 509)  # ratio just above the smallest normal float
    def test_normal_discriminant_ratio_keeps_its_bits(self, c0, c1, m, e):
        c2 = m << e
        disc = c1 * c1 - 4 * c0 * c2
        assume(disc != 0 and abs(disc) / (4 * c2 * c2) >= sys.float_info.min)
        # the one-ratio formula, exact for every normal |disc| / (4 c2^2)
        h, s = -c1 / (2 * c2), math.sqrt(abs(disc) / (4 * c2 * c2))
        r1 = h + math.copysign(s, h)
        expected = ([complex(r1), complex(c0 / c2 / r1)] if disc > 0
                    else [complex(h, s), complex(h, -s)])
        assert numeric._part_roots([c0, c1, c2], NumericSettings()) == expected


def random_monic(rng: random.Random, degree: int) -> QPoly:
    coeffs = [A.quat(*[rng.randint(-3, 3) for _ in range(4)]) for _ in range(degree)]
    return QPoly(A, coeffs + [A.one])


def census(poly: QPoly, sympy) -> tuple[int, int, int]:
    """(central, spherical, isolated) counts of P = c G H from sympy: the
    real roots of sqfree(H), its other roots in pairs, and the root pairs
    of sqfree(N(G)) / gcd(., sqfree(H))."""
    x = sympy.Symbol("x")
    coords = [sympy.Poly([sympy.Rational(c.coords()[m].numerator, c.coords()[m].denominator)
                          for c in reversed(poly.coeffs)], x, domain="QQ") for m in range(4)]
    h = functools.reduce(sympy.gcd, coords)
    h_sf = h.sqf_part()
    isolated = sum((c**2 for c in coords[1:]), coords[0]**2).quo(h**2).sqf_part()
    isolated = isolated.quo(isolated.gcd(h_sf))
    real = h_sf.count_roots()
    return real, (h_sf.degree() - real) // 2, isolated.degree() // 2


def counts(report) -> tuple[int, int, int]:
    return (len(report.central_roots), len(report.spherical_classes),
            len(report.isolated_roots))


class TestCensus:
    """Float counts equal the exact census of the Beck split."""

    @given(st.integers(16, 32), st.randoms(use_true_random=False))
    @settings(max_examples=12, deadline=None)
    def test_random_monic_with_planted_factors(self, sympy, degree, rng):
        v = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        t = rng.randint(-4, 4)
        n = Fraction(t * t, 4) + rng.randint(1, 9)
        central = CentralPoly((-v, 1)) ** rng.randint(1, 2)
        sphere = CentralPoly((n, -t, 1)) ** rng.randint(1, 2)
        planted = (central * sphere).lift(A)
        poly = random_monic(rng, degree - planted.degree) * planted
        report = classify_f64(poly)
        assert counts(report) == census(poly, sympy)
        assert any(abs(r - float(v)) <= 1e-8 * (1 + abs(float(v))) for r in report.central_roots)
        assert any(abs(cls.trace - t) <= 1e-8 * (1 + abs(t))
                   and abs(cls.norm - float(n)) <= 1e-8 * (1 + float(n))
                   for cls in report.spherical_classes)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_degree_24_matches_census(self, sympy, seed):
        # clustering the full companion's eigenvalues finds false spheres here
        poly = random_monic(random.Random(seed), 24)
        assert counts(classify_f64(poly)) == census(poly, sympy) == (0, 0, 24)

    # products whose full companion scatters a double sphere root beyond
    # eps_class: (text, central roots, spheres, isolated classes)
    PROBES = [
        ("(x - (-2)) (x - (3 + 3 i + 2 j + 3 k)) (x - (-1 - j - 2 k))^2 (x^2 - (-2) x + (2)) "
         "(x - (1)) (x^2 - (-4) x + (7)) (x - (-2 + 3 i + j - k))",
         [-2, 1], [(-4, 7), (-2, 2)], [(-4, 15), (6, 31), (-2, 6)]),
        ("(x - (2)) (x - (-1)) (x - (2 - 2 i + j + 2 k)) (x^2 - (2) x + (4)) (x - (1)) "
         "(x - (-2 - 3 i + j - 3 k)) (x^2 - (4) x + (5)) (x^2 - (-2) x + (6)) "
         "(x - (3 - 2 i - 2 j + 3 k))",
         [-1, 1, 2], [(-2, 6), (2, 4), (4, 5)], [(-4, 23), (4, 13), (6, 26)]),
        ("(x - (2 - j - 3 k)) (x^2 - (3) x + (13/4)) (x - 0) (x - (1)) (x - (-2 + i + 2 k)) "
         "(x - (3)) (x^2 - (2) x + (6)) (x - (-2 i + 3 j + k)) (x^2 - 0 x + (1))",
         [0, 1, 3], [(0, 1), (2, 6), (3, 13 / 4)], [(-4, 9), (0, 14), (4, 14)]),
        ("(x - (-2 + 3 i - j - 3 k)) (x - (-5/2)) (x - (2 - 3 j - k)) (x^2 - (-4) x + (7)) "
         "(x - (-3 + 3 i - j + 2 k)) (x - (-3/2)) (x^2 - (-4) x + (13)) (x - (1)) "
         "(x^2 - 0 x + (1))",
         [-2.5, -1.5, 1], [(-4, 13), (-4, 7), (0, 1)], [(-6, 23), (-4, 23), (4, 14)]),
    ]

    @pytest.mark.parametrize("text, central, spheres, isolated", PROBES)
    def test_former_scatter_misses(self, text, central, spheres, isolated):
        report = classify_f64(parse_to_qpoly(text))
        eps = NumericSettings().eps_class
        assert report.central_roots == pytest.approx(central, rel=eps, abs=eps)
        for kind, want in (("SphericalRoots", spheres), ("IsolatedRoot", isolated)):
            # rounded keys, so float jitter cannot reorder tied traces
            got = sorted(((cls.trace, cls.norm) for cls, status in report.class_entries
                          if type(status).__name__ == kind),
                         key=lambda pair: (round(pair[0], 6), round(pair[1], 6)))
            assert len(got) == len(want)
            for (gt, gn), (wt, wn) in zip(got, sorted(want)):
                assert gt == pytest.approx(wt, rel=eps, abs=eps)
                assert gn == pytest.approx(wn, rel=eps, abs=eps)


class TestCountInvariant:
    """central + isolated + 2 * spherical <= degree (Pogorui-Shapiro)."""

    def test_overcount_is_numeric_failure(self, monkeypatch):
        # the split makes an overcount impossible on a sound eigensolver;
        # one that reports every root twice must be caught
        solve = numeric.real_poly_roots
        monkeypatch.setattr(numeric, "real_poly_roots", lambda comp: 2 * solve(comp))
        with pytest.raises(NumericFailure, match="= 6 exceeds the degree 3") as err:
            classify_f64(parse_to_qpoly("x^3 - x"))
        assert err.value.partial.root_count == 6


class TestSettings:
    def test_defaults(self):
        s = NumericSettings()
        assert s.eps_zero == 1e-9 and s.eps_class == 1e-8

    def test_invalid_tolerances_rejected(self):
        with pytest.raises(PreconditionError):
            NumericSettings(eps_zero=0.0)
        with pytest.raises(PreconditionError):
            NumericSettings(eps_class=-1e-9)
        with pytest.raises(PreconditionError):
            NumericSettings(max_condition=float("nan"))

    def test_unattainable_tolerance_is_refused(self):
        # the irrational roots of x^4 + 1 cannot have residuals below
        # 1e-30, so the solve reports failure instead of inventing certainty
        with pytest.raises(NumericFailure):
            classify_f64(parse_to_qpoly("x^5 + x"),
                         NumericSettings(eps_zero=1e-30, eps_class=1e-8))


class TestSubfieldRootsF64:
    def test_sees_rational_and_irrational_meetings(self):
        # exact subfield search reports only +-j here; the float
        # backend also resolves the (-1, 1) sphere hitting F(j) at
        # -1/2 +- sqrt(3)/2 j
        p = parse_to_qpoly("(x^2 + 1)(x^2 + x + 1)")
        roots = roots_in_subfield_f64(p, A.j)
        got = sorted((round(r.w, 6), round(r.y, 6)) for r in roots)
        assert len(got) == 4
        assert got[0] == pytest.approx((-0.5, -math.sqrt(3) / 2), abs=1e-6)
        assert got[1] == pytest.approx((-0.5, math.sqrt(3) / 2), abs=1e-6)
        assert got[2] == pytest.approx((0.0, -1.0), abs=1e-6)
        assert got[3] == pytest.approx((0.0, 1.0), abs=1e-6)

    def test_irrational_beta_now_visible(self):
        # the (-1, 1) sphere meets F(j) at -1/2 +- sqrt(3)/2 j, which
        # the exact backend skips; the float backend reports it
        p = parse_to_qpoly("x^2 + x + 1")
        roots = roots_in_subfield_f64(p, A.j)
        assert len(roots) == 2
        for r in roots:
            assert r.w == pytest.approx(-0.5, abs=1e-9)
            assert abs(r.y) == pytest.approx(math.sqrt(3) / 2, abs=1e-9)

    def test_central_generator_rejected(self):
        with pytest.raises(PreconditionError):
            roots_in_subfield_f64(parse_to_qpoly("x^2 + 1"), A.one)

    def test_accepts_float_generator(self):
        roots = roots_in_subfield_f64(parse_to_qpoly("x^2 + 1"),
                                      QuatF(0.0, 0.0, 2.0, 0.0))
        assert len(roots) == 2
