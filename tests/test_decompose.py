"""Coordinate expansions and the central-factor decomposition."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpoly import (
    HAMILTON,
    CentralPoly,
    InvariantViolation,
    PreconditionError,
    QPoly,
    beck_decompose,
    center_coordinates,
    commutes,
    eval_right,
    max_central_right_divisor,
    parse_to_qpoly,
    rational_roots,
    right_divrem,
    roots_in_center,
    subfield_coordinates,
    subfield_gcd,
    transverse_unit_for,
)
from quatpoly import decompose

from conftest import DIVISION_ALGEBRAS, qpolys, quaternions

algebras = st.sampled_from(DIVISION_ALGEBRAS)


class TestCenterCoordinates:
    @given(algebras, st.data())
    @settings(max_examples=60)
    def test_recombine_round_trip(self, A, data):
        p = data.draw(qpolys(A, max_degree=6))
        coords = center_coordinates(p)
        assert coords.recombine() == p

    def test_parts_read_off_components(self):
        A = HAMILTON
        p = QPoly(A, [A.quat(1, 2, 3, 4), A.quat(0, -1, 0, Fraction(1, 2))])
        coords = center_coordinates(p)
        assert coords.scalar_part == CentralPoly((Fraction(1),))
        assert coords.i_part == CentralPoly((Fraction(2), Fraction(-1)))
        assert coords.j_part == CentralPoly((Fraction(3),))
        assert coords.k_part == CentralPoly((Fraction(4), Fraction(1, 2)))


class TestBeckDecomposition:
    @given(algebras, st.data())
    @settings(max_examples=80)
    def test_round_trip_and_normalization(self, A, data):
        p = data.draw(qpolys(A, max_degree=6).filter(lambda f: not f.is_zero))
        beck = beck_decompose(p)
        assert beck.recombine() == p
        assert beck.leading == p.leading
        assert beck.reduced.is_monic
        assert beck.central.is_monic
        # the quotient has no nonconstant central right divisor left
        assert max_central_right_divisor(beck.reduced).degree == 0

    def test_central_factor_can_exceed_the_visible_one(self):
        # (x^2 + 1) x is divisible by the central x, but its maximal
        # central right divisor is the full product x^3 + x
        A = HAMILTON
        x = QPoly.x(A)
        p = (x * x + QPoly.constant(A.one)) * x
        beck = beck_decompose(p)
        assert beck.central == CentralPoly((0, 1, 0, 1))
        assert beck.reduced == QPoly.constant(A.one)
        assert beck.leading == A.one
        # the visible right factor divides, with strictly smaller degree
        _, rem = right_divrem(p, x)
        assert rem.is_zero
        assert x.degree < beck.central.degree

    def test_no_central_divisor(self):
        A = HAMILTON
        p = QPoly(A, [-A.i, A.one])
        beck = beck_decompose(p)
        assert beck.central == CentralPoly((1,))
        assert beck.reduced == p

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            beck_decompose(QPoly(HAMILTON, []))

    @pytest.mark.parametrize("fake, message", [
        ([-1, 1], "still has a central right divisor"),  # x - 1, not maximal
        ([-5, 1], "does not right-divide"),  # x - 5, not a divisor
    ])
    def test_faulty_gcd_is_caught(self, monkeypatch, fake, message):
        # H = (x - 1)(x - 2); a coordinate gcd that came out wrong must
        # fail one of the two Beck checks
        A = HAMILTON
        p = QPoly(A, [-A.i, A.one]) * CentralPoly((2, -3, 1)).lift(A)
        true_gcd = decompose._int_gcd
        calls = []

        def first_call_faulty(polys):
            calls.append(None)
            return fake if len(calls) == 1 else true_gcd(polys)

        monkeypatch.setattr(decompose, "_int_gcd", first_call_faulty)
        with pytest.raises(InvariantViolation, match=message):
            max_central_right_divisor(p)

    @given(st.data())
    @settings(max_examples=40)
    def test_planted_central_factor_recovered(self, data):
        g = data.draw(qpolys(max_degree=3).filter(lambda f: not f.is_zero))
        r = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
        central = CentralPoly((-r, 1))
        beck = beck_decompose(g * central.lift(HAMILTON))
        assert central.divides(beck.central)


class TestRationalRoots:
    def test_integer_and_fraction_roots(self):
        # (2x - 3)(x + 2) x
        p = CentralPoly((0, -6, 1, 2))
        assert rational_roots(p) == [Fraction(-2), Fraction(0), Fraction(3, 2)]

    def test_no_rational_roots(self):
        assert rational_roots(CentralPoly((1, 0, 1))) == []

    def test_pure_power_of_x(self):
        assert rational_roots(CentralPoly((0, 0, 1))) == [Fraction(0)]

    def test_zero_poly_rejected(self):
        with pytest.raises(PreconditionError):
            rational_roots(CentralPoly())

    @given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                    min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_planted_roots_found(self, roots):
        p = CentralPoly((1,))
        for r in roots:
            p = p * CentralPoly((-r, 1))
        assert rational_roots(p) == sorted(set(roots))

    # huge primes in a denominator or in the constant term

    def test_denominator_near_10_to_18(self):
        p = CentralPoly((Fraction(-7, 10**18 + 9), 1))
        assert rational_roots(p) == [Fraction(7, 10**18 + 9)]

    def test_large_prime_in_constant(self):
        # (x - 3)(x^2 + 1000000000039)
        n = 10**12 + 39
        assert rational_roots(CentralPoly((-3 * n, n, -3, 1))) == [Fraction(3)]

    def test_repeated_roots_and_factors(self):
        # (x - 1)^3 (x + 2)^2 (x^2 + 2)^2: needs the square-free part, since
        # a repeated root is a repeated root modulo every prime
        p = (CentralPoly((-1, 1)) ** 3 * CentralPoly((2, 1)) ** 2
             * CentralPoly((2, 0, 1)) ** 2)
        assert rational_roots(p) == [Fraction(-2), Fraction(1)]

    def test_faulty_squarefree_step_is_caught(self, monkeypatch):
        # with the repeated root left in, every prime fails; the prime
        # search must give up instead of running forever
        monkeypatch.setattr(decompose, "_int_squarefree", lambda f: f)
        p = CentralPoly((-1, 1)) ** 2 * CentralPoly((2, 1))
        with pytest.raises(InvariantViolation, match="no prime separates"):
            rational_roots(p)


_HUGE_PRIMES = (10**18 + 9, 2**61 - 1)


@st.composite
def products_with_rational_roots(draw):
    """Planted rational roots of multiplicity 1-3 times random integer
    factors of degree 2-3, under a nonmonic leading coefficient."""
    p = CentralPoly((draw(st.sampled_from([1, -1, 2, 3, -4, 6, 35])),))
    for _ in range(draw(st.integers(0, 3))):
        num = draw(st.integers(-40, 40))
        den = draw(st.one_of(st.integers(1, 12), st.sampled_from(_HUGE_PRIMES)))
        p = p * CentralPoly((-Fraction(num, den), 1)) ** draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        body = draw(st.lists(st.integers(-30, 30), min_size=2, max_size=3))
        p = p * CentralPoly(body + [draw(st.integers(1, 9))])
    return p


class TestRationalRootsOracle:
    @given(products_with_rational_roots())
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy_linear_factors(self, sympy, p):
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        factors = sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ").factor_list()[1]
        expected = sorted({-Fraction(int(c0.p), int(c0.q)) / Fraction(int(c1.p), int(c1.q))
                           for f, _ in factors if f.degree() == 1
                           for c1, c0 in [f.all_coeffs()]})
        assert rational_roots(p) == expected


class TestRootsInCenter:
    def test_central_roots_of_mixed_product(self):
        A = HAMILTON
        x = QPoly.x(A)
        p = (x - QPoly.constant(A.i)) * (x + QPoly.constant(A.one)) ** 2
        assert roots_in_center(p) == [Fraction(-1)]

    def test_probe_with_large_prime_norm(self):
        p = parse_to_qpoly("(x - i)(x^2 + 1000000000039)(x - 3)")
        assert roots_in_center(p) == [Fraction(3)]

    @given(st.data())
    @settings(max_examples=40)
    def test_planted_central_root(self, data):
        g = data.draw(qpolys(max_degree=3).filter(lambda f: not f.is_zero))
        r = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
        p = g * QPoly(HAMILTON, [HAMILTON.scalar(-r), HAMILTON.one])
        assert r in roots_in_center(p)
        assert eval_right(p, HAMILTON.scalar(r)).is_zero


class TestSubfieldExpansion:
    def test_transverse_unit(self):
        A = HAMILTON
        u = transverse_unit_for(A.i)
        assert not commutes(u, A.i)
        with pytest.raises(PreconditionError):
            transverse_unit_for(A.one)

    @given(st.data())
    @settings(max_examples=60)
    def test_recombine_and_membership(self, data):
        A = HAMILTON
        p = data.draw(qpolys(A, max_degree=5))
        s = data.draw(quaternions(A).filter(lambda q: not q.is_central))
        coords = subfield_coordinates(p, s)
        assert coords.recombine() == p
        for c in coords.aligned.coeffs:
            assert commutes(c, s)
        for c in coords.transverse.coeffs:
            assert commutes(c, s)

    def test_dependent_unit_rejected(self):
        A = HAMILTON
        with pytest.raises(PreconditionError):
            subfield_coordinates(QPoly.x(A), A.i, u=A.i)

    def test_subfield_gcd_collects_subfield_roots(self):
        A = HAMILTON
        x = QPoly.x(A)
        p = (x - QPoly.constant(A.i)) * (x - QPoly.constant(A.j))
        coords = subfield_coordinates(p, A.j)
        g = subfield_gcd(coords)
        # j is a right root of P lying in F(j), so the gcd vanishes there
        assert eval_right(p, A.j).is_zero
        assert eval_right(g, A.j).is_zero
        assert g.is_monic
        for c in g.coeffs:
            assert commutes(c, A.j)

    def test_subfield_gcd_zero_pair_rejected(self):
        A = HAMILTON
        coords = subfield_coordinates(QPoly(A, []), A.i)
        with pytest.raises(PreconditionError):
            subfield_gcd(coords)
