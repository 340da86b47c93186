"""Polynomial ring operations: division, gcrd, evaluation, companion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpoly import (
    HAMILTON,
    AlgebraParams,
    CentralPoly,
    PreconditionError,
    QPoly,
    ZeroDivisorError,
    beck_decompose,
    central_gcd,
    class_remainder,
    conjugacy_class,
    eval_product,
    eval_right,
    gcrd,
    minimal_polynomial,
    right_divrem,
)

from quatpoly.polynomials import _CERT_PRIME

from conftest import (
    DIVISION_ALGEBRAS,
    FRACTIONAL_ALGEBRAS,
    monic_qpolys,
    nonzero_quaternions,
    product_count,
    qpolys,
    quaternions,
    small_fractions,
)

algebras = st.sampled_from(DIVISION_ALGEBRAS)
parity_algebras = st.sampled_from(DIVISION_ALGEBRAS + FRACTIONAL_ALGEBRAS)


def central_polys(min_degree: int = 0, max_degree: int = 4):
    coeffs = st.lists(small_fractions(6, 4), min_size=min_degree + 1,
                      max_size=max_degree + 1)
    return coeffs.map(CentralPoly).filter(lambda f: f.degree >= min_degree)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        A = HAMILTON
        p = QPoly(A, [A.one, A.i, A.zero, A.zero])
        assert p.degree == 1
        assert p == QPoly(A, [A.one, A.i])

    def test_zero_polynomial(self):
        p = QPoly(HAMILTON, [])
        assert p.is_zero and p.degree == float("-inf")

    def test_x_and_monomial(self):
        A = HAMILTON
        assert QPoly.x(A) == QPoly.monomial(A.one, 1)
        assert QPoly.monomial(A.i, 3).coefficient(3) == A.i
        assert QPoly.monomial(A.i, 3).coefficient(1) == A.zero

    def test_coefficients_central(self):
        A = HAMILTON
        assert QPoly(A, [A.one, A.scalar(Fraction(1, 2))]).coefficients_central()
        assert not QPoly(A, [A.i, A.one]).coefficients_central()


# the two rings' shared skeleton, each built from the same integer coefficients
RINGS = [pytest.param(lambda coeffs: QPoly(HAMILTON, coeffs), HAMILTON.zero, id="QPoly"),
         pytest.param(CentralPoly, Fraction(0), id="CentralPoly")]


@pytest.mark.parametrize("make,zero", RINGS)
class TestRingContract:
    def test_setting_an_attribute_names_the_class(self, make, zero):
        p = make((1, 2))
        for name in ("_coeffs", "other"):
            with pytest.raises(AttributeError, match=f"^{type(p).__name__} is immutable$"):
                setattr(p, name, ())

    def test_repr_has_the_class_prefix(self, make, zero):
        p = make((1, -1, 3))
        assert repr(p) == f"{type(p).__name__}(3 x^2 - x + 1)"

    def test_equal_polynomials_hash_alike(self, make, zero):
        p, q = make((1, 2)), make((Fraction(2, 2), 2, 0))
        assert p == q and hash(p) == hash(q)
        assert p != make((1, 3))

    def test_coefficient_past_the_degree_is_the_rings_zero(self, make, zero):
        p = make((1, 2))
        for power in (-1, 2, 7):
            assert p.coefficient(power) == zero
            assert type(p.coefficient(power)) is type(zero)

    def test_power_zero_is_one_and_difference_is_zero(self, make, zero):
        p = make((1, 2, 3))
        assert p ** 0 == make((1,))
        assert (p - p).is_zero and p - p == make(())


def test_rings_never_compare_equal():
    assert QPoly(HAMILTON, (1, 2)) != CentralPoly((1, 2))
    assert CentralPoly((1, 2)) != QPoly(HAMILTON, (1, 2))


@given(st.lists(small_fractions(6, 4), max_size=6).map(CentralPoly))
def test_central_prints_as_its_lift(c):
    assert str(c) == str(c.lift(HAMILTON))


class TestRingStructure:
    @given(algebras, st.data())
    @settings(max_examples=40)
    def test_multiplication_associative(self, A, data):
        p = data.draw(qpolys(A, max_degree=3, bound=5))
        q = data.draw(qpolys(A, max_degree=3, bound=5))
        r = data.draw(qpolys(A, max_degree=3, bound=5))
        assert (p * q) * r == p * (q * r)

    @given(algebras, st.data())
    @settings(max_examples=40)
    def test_distributive(self, A, data):
        p = data.draw(qpolys(A, max_degree=4))
        q = data.draw(qpolys(A, max_degree=4))
        r = data.draw(qpolys(A, max_degree=4))
        assert p * (q + r) == p * q + p * r
        assert (p - q) * r == p * r - q * r

    def test_x_is_central(self):
        A = HAMILTON
        x = QPoly.x(A)
        c = QPoly.constant(A.i + A.j)
        assert x * c == c * x

    def test_coefficient_order_matters(self):
        A = HAMILTON
        p = QPoly.constant(A.i) * QPoly.constant(A.j)
        q = QPoly.constant(A.j) * QPoly.constant(A.i)
        assert p == QPoly.constant(A.k)
        assert q == QPoly.constant(-A.k)

    @given(st.data())
    def test_degree_of_product(self, data):
        p = data.draw(qpolys(min_degree=0, max_degree=4))
        q = data.draw(qpolys(min_degree=0, max_degree=4))
        if not p.is_zero and not q.is_zero:
            # no zero divisors among Hamilton coefficients
            assert (p * q).degree == p.degree + q.degree


class TestPowers:
    def test_square_and_multiply_count(self, monkeypatch):
        # bit_length - 1 squarings and popcount - 1 products, none by 1
        x = QPoly.x(HAMILTON)
        for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3), (13, 5), (16, 4)):
            assert product_count(monkeypatch, QPoly, lambda: x**n) == products, n
        f = CentralPoly((1, 1))
        assert product_count(monkeypatch, CentralPoly, lambda: f**8) == 3

    @given(st.sampled_from(FRACTIONAL_ALGEBRAS), st.integers(0, 9), st.data())
    @settings(max_examples=40)
    def test_power_is_repeated_product(self, A, n, data):
        p = data.draw(qpolys(A, max_degree=2, bound=4))
        expected = QPoly(A, (1,))
        for _ in range(n):
            expected = expected * p
        assert p**n == expected
        f = data.draw(central_polys(max_degree=2))
        expected = CentralPoly((1,))
        for _ in range(n):
            expected = expected * f
        assert f**n == expected


class TestRightDivision:
    @given(parity_algebras, st.data())
    @settings(max_examples=80)
    def test_divrem_round_trip(self, A, data):
        p = data.draw(qpolys(A, max_degree=6))
        d = data.draw(qpolys(A, min_degree=0, max_degree=4).filter(
            lambda f: not f.is_zero))
        q, r = right_divrem(p, d)
        assert q * d + r == p
        assert r.degree < d.degree

    def test_zero_divisor_poly_rejected(self):
        A = HAMILTON
        with pytest.raises(PreconditionError):
            right_divrem(QPoly.x(A), QPoly(A, []))

    def test_split_algebra_noninvertible_leading(self):
        A = AlgebraParams(Fraction(1), Fraction(1))
        p = QPoly.monomial(A.one, 2)
        d = QPoly(A, [A.one, A.one + A.i])  # leading coeff has norm 0
        with pytest.raises(ZeroDivisorError):
            right_divrem(p, d)

    @given(st.data())
    @settings(max_examples=60)
    def test_remainder_theorem(self, data):
        # dividing by x - q on the right leaves the right evaluation
        p = data.draw(qpolys(max_degree=5))
        q = data.draw(quaternions())
        A = HAMILTON
        d = QPoly(A, [-q, A.one])
        _, r = right_divrem(p, d)
        assert r == QPoly.constant(eval_right(p, q))


class TestGcrd:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_gcrd_divides_both(self, data):
        a = data.draw(qpolys(min_degree=1, max_degree=5).filter(
            lambda f: not f.is_zero))
        b = data.draw(qpolys(min_degree=1, max_degree=5))
        g = gcrd(a, b)
        assert g.is_monic
        _, ra = right_divrem(a, g)
        _, rb = right_divrem(b, g)
        assert ra.is_zero and rb.is_zero

    @given(st.data())
    @settings(max_examples=40)
    def test_common_right_factor_survives(self, data):
        a = data.draw(qpolys(max_degree=3))
        b = data.draw(qpolys(max_degree=3))
        w = data.draw(qpolys(min_degree=1, max_degree=3))
        if (a * w).is_zero or (b * w).is_zero:
            return
        g = gcrd(a * w, b * w)
        _, r = right_divrem(g, w.monic())
        assert r.is_zero

    def test_gcrd_with_zero(self):
        p = QPoly(HAMILTON, [HAMILTON.i, HAMILTON.scalar(2)])
        assert gcrd(p, QPoly(HAMILTON, [])) == p.monic()

    def test_gcrd_coprime(self):
        A = HAMILTON
        x = QPoly.x(A)
        p = x - QPoly.constant(A.i)
        q = x - QPoly.constant(A.j)
        assert gcrd(p, q) == QPoly.constant(A.one)


class TestEvaluation:
    def test_left_coefficients_power_on_right(self):
        A = HAMILTON
        q = A.quat(0, 1, 1, 0)
        p = QPoly(A, [A.zero, A.j])  # j x
        assert eval_right(p, q) == A.j * q

    @given(st.data())
    def test_central_point_evaluation(self, data):
        p = data.draw(qpolys(max_degree=5))
        v = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        A = HAMILTON
        expected = A.zero
        for m, c in enumerate(p.coeffs):
            expected = expected + c * A.scalar(v**m)
        assert eval_right(p, A.scalar(v)) == expected

    @given(st.data())
    @settings(max_examples=80)
    def test_product_rule(self, data):
        g = data.draw(qpolys(max_degree=4))
        h = data.draw(qpolys(max_degree=4))
        q = data.draw(quaternions())
        assert eval_product(g, h, q) == eval_right(g * h, q)

    def test_naive_product_rule_fails(self):
        # (x - i)(x - j) does not vanish at i even though the left
        # factor does; pointwise multiplication of values gets it wrong
        A = HAMILTON
        x = QPoly.x(A)
        g = x - QPoly.constant(A.i)
        h = x - QPoly.constant(A.j)
        q = A.i
        naive = eval_right(g, q) * eval_right(h, q)
        true = eval_right(g * h, q)
        assert naive == A.zero
        assert true == A.scalar(2) * A.k
        assert eval_product(g, h, q) == true

    def test_product_rule_zero_branch(self):
        # when the right factor vanishes the product vanishes too
        A = HAMILTON
        g = QPoly(A, [A.quat(1, 2, 3, 4)])
        h = QPoly(A, [-A.i, A.one])
        assert eval_product(g, h, A.i) == A.zero


class TestCompanion:
    @given(parity_algebras, st.data())
    @settings(max_examples=60)
    def test_companion_is_conjugate_product(self, A, data):
        p = data.draw(qpolys(A, min_degree=1, max_degree=5))
        comp = p.companion()
        assert isinstance(comp, CentralPoly)
        assert comp.lift(A) == p * p.conjugate_coeffs()
        assert comp.degree == 2 * p.degree

    @given(st.data())
    @settings(max_examples=40)
    def test_companion_multiplicative(self, data):
        p = data.draw(qpolys(min_degree=1, max_degree=3))
        q = data.draw(qpolys(min_degree=1, max_degree=3))
        assert (p * q).companion() == p.companion() * q.companion()

    @given(st.data())
    def test_companion_value_is_norm(self, data):
        p = data.draw(qpolys(min_degree=1, max_degree=5))
        v = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
        assert p.companion().evaluate(v) == eval_right(p, HAMILTON.scalar(v)).norm()


class TestCentralPoly:
    def test_divmod_and_divides(self):
        f = CentralPoly((Fraction(1), Fraction(0), Fraction(1)))  # x^2 + 1
        g = f * CentralPoly((Fraction(-2), Fraction(1)))
        q, r = divmod(g, f)
        assert r.is_zero and q == CentralPoly((Fraction(-2), Fraction(1)))
        assert f.divides(g)
        assert not CentralPoly((Fraction(1), Fraction(1))).divides(g)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_divides_agrees_with_remainder(self, data):
        d = data.draw(central_polys(min_degree=1, max_degree=3))
        f = data.draw(central_polys(max_degree=4))
        for g in (f, f * d):
            assert d.divides(g) == (g % d).is_zero

    def test_squarefree_part(self):
        x2p1 = CentralPoly((Fraction(1), Fraction(0), Fraction(1)))
        lin = CentralPoly((Fraction(-2), Fraction(1)))
        p = x2p1 * x2p1 * lin
        sq = p.squarefree_part()
        assert sq == x2p1 * lin
        assert sq.is_monic

    def test_squarefree_part_of_squarefree(self):
        p = CentralPoly((Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)))
        assert p.squarefree_part() == p

    def test_central_gcd(self):
        x2p1 = CentralPoly((Fraction(1), Fraction(0), Fraction(1)))
        a = x2p1 * CentralPoly((Fraction(-1), Fraction(1)))
        b = x2p1 * CentralPoly((Fraction(3), Fraction(1)))
        assert central_gcd(a, b) == x2p1

    def test_lift_round_trip(self):
        p = CentralPoly((Fraction(1, 2), Fraction(0), Fraction(3)))
        lifted = p.lift(HAMILTON)
        assert lifted.coefficients_central()
        assert [c.w for c in lifted.coeffs] == list(p.coeffs)

    def test_derivative(self):
        p = CentralPoly((Fraction(5), Fraction(3), Fraction(1)))
        assert p.derivative() == CentralPoly((Fraction(3), Fraction(2)))


class TestMinimalPolynomial:
    def test_central_class(self):
        mp = minimal_polynomial(conjugacy_class(HAMILTON.scalar(Fraction(3, 2))))
        assert mp == CentralPoly((Fraction(-3, 2), Fraction(1)))

    @given(st.data())
    def test_noncentral_class(self, data):
        q = data.draw(quaternions().filter(lambda v: not v.is_central))
        mp = minimal_polynomial(conjugacy_class(q))
        assert mp.coeffs == (q.norm(), -q.trace(), Fraction(1))
        assert eval_right(mp.lift(HAMILTON), q) == HAMILTON.zero


class TestCoordinateDivisionParity:
    """Central divisors act on the four coordinates; the results must
    equal right division by the lifted divisor."""

    @given(parity_algebras, st.data())
    @settings(max_examples=60, deadline=None)
    def test_class_remainder_is_lifted_remainder(self, A, data):
        p = data.draw(qpolys(A, max_degree=6))
        q = data.draw(quaternions(A, bound=5).filter(lambda v: not v.is_central))
        cls = conjugacy_class(q)
        rem = p % minimal_polynomial(cls).lift(A)
        assert class_remainder(p, cls) == (rem.coefficient(1), rem.coefficient(0))

    @given(parity_algebras, st.data())
    @settings(max_examples=60, deadline=None)
    def test_beck_decompose_recombines_planted_central_factor(self, A, data):
        g = data.draw(qpolys(A, max_degree=4).filter(lambda f: not f.is_zero))
        h = data.draw(central_polys(min_degree=1, max_degree=3)).monic()
        p = g * h.lift(A)
        beck = beck_decompose(p)
        assert beck.recombine() == p
        assert h.divides(beck.central)


def _to_sympy(poly: CentralPoly, sympy):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly.coeffs)]
    return sympy.Poly(coeffs or [0], sympy.Symbol("x"), domain="QQ")


def _from_sympy(poly) -> CentralPoly:
    return CentralPoly(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


class TestCentralKernelOracle:
    """The integer gcd kernels against sympy over QQ."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_central_gcd_matches_sympy(self, sympy, data):
        common = data.draw(central_polys(max_degree=3).filter(lambda f: not f.is_zero))
        a = common * data.draw(central_polys(max_degree=4))
        b = common * data.draw(central_polys(max_degree=4))
        if a.is_zero and b.is_zero:
            return
        expected = _to_sympy(a, sympy).gcd(_to_sympy(b, sympy)).monic()
        assert central_gcd(a, b) == _from_sympy(expected)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_squarefree_part_matches_sympy(self, sympy, data):
        f = data.draw(central_polys(min_degree=1, max_degree=3))
        g = data.draw(central_polys(min_degree=1, max_degree=3))
        # a planted repeated factor, and inputs that are mostly
        # square-free, which the modular certificate settles
        for p in (f * f * g, f * g, g):
            expected = _to_sympy(p, sympy).sqf_part().monic()
            assert p.squarefree_part() == _from_sympy(expected)

    def test_certificate_needs_a_unit_leading_coefficient(self):
        # modulo the certificate prime, (p x + 1)^2 (x + 2) is x + 2,
        # which looks square-free; the PRS must decide instead
        p = _CERT_PRIME
        root = CentralPoly((1, p))
        assert (root * root * CentralPoly((2, 1))).squarefree_part() == (
            root * CentralPoly((2, 1))).monic()
        assert CentralPoly((1, 0, p)).squarefree_part() == CentralPoly((Fraction(1, p), 0, 1))

    def test_coprime_degree_24_gcd_is_one(self):
        # Euclid over Fractions grew coefficients of this kind of pair to
        # thousands of bits before reaching the unit gcd
        rng = random.Random(24)
        a, b = (CentralPoly([rng.randint(-9, 9) for _ in range(24)] + [1]) for _ in range(2))
        assert central_gcd(a, b) == CentralPoly((1,))
