"""Quaternion arithmetic, norms, and conjugacy classes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpoly import (
    HAMILTON,
    AlgebraParams,
    CentralClass,
    PreconditionError,
    Quaternion,
    SphereClass,
    ZeroDivisorError,
    commutes,
    conjugacy_class,
    distinct_conjugates,
    in_subfield,
    is_rational_square,
    rational_sqrt,
    same_class,
)

from conftest import (DIVISION_ALGEBRAS, FRACTIONAL_ALGEBRAS, nonzero_quaternions, product_count,
                      quaternions)

algebras = st.sampled_from(DIVISION_ALGEBRAS)
#: every algebra of conftest, with a split one whose norm form is isotropic
all_algebras = st.sampled_from(
    DIVISION_ALGEBRAS + FRACTIONAL_ALGEBRAS + [AlgebraParams(Fraction(1), Fraction(1))])


class TestMultiplicationTable:
    def test_hamilton_units(self):
        A = HAMILTON
        one, i, j, k = A.one, A.i, A.j, A.k
        assert i * i == -one
        assert j * j == -one
        assert k * k == -one
        assert i * j == k and j * i == -k
        assert j * k == i and k * j == -i
        assert k * i == j and i * k == -j

    @given(algebras)
    def test_general_units(self, A):
        a, b = A.a, A.b
        one, i, j, k = A.one, A.i, A.j, A.k
        assert i * i == A.scalar(a)
        assert j * j == A.scalar(b)
        assert i * j == k and j * i == -k
        assert k * k == A.scalar(-a * b)
        # the mixed products pick up the structure constants
        assert j * k == A.scalar(-b) * i
        assert k * j == A.scalar(b) * i
        assert i * k == A.scalar(a) * j
        assert k * i == A.scalar(-a) * j

    @given(algebras, st.data())
    @settings(max_examples=40)
    def test_associative_and_distributive(self, A, data):
        p = data.draw(quaternions(A, bound=5))
        q = data.draw(quaternions(A, bound=5))
        r = data.draw(quaternions(A, bound=5))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r

    def test_power_square_and_multiply_count(self, monkeypatch):
        q = HAMILTON.quat(1, 2, 0, -1)
        for n, products in ((0, 0), (1, 0), (8, 3), (13, 5)):
            assert product_count(monkeypatch, Quaternion, lambda: q**n) == products, n

    @given(st.sampled_from(FRACTIONAL_ALGEBRAS), st.integers(-4, 9), st.data())
    @settings(max_examples=40)
    def test_power_is_repeated_product(self, A, n, data):
        q = data.draw(nonzero_quaternions(A, bound=5))
        expected = A.one
        for _ in range(abs(n)):
            expected = expected * (q if n >= 0 else q.inverse())
        assert q**n == expected

    def test_noncommutative(self):
        A = HAMILTON
        assert A.i * A.j != A.j * A.i


class TestNormAndConjugate:
    @given(all_algebras, st.data())
    @settings(max_examples=60)
    def test_norm_multiplicative(self, A, data):
        p = data.draw(quaternions(A))
        q = data.draw(quaternions(A))
        assert (p * q).norm() == p.norm() * q.norm()

    @given(all_algebras, st.data())
    @settings(max_examples=100)
    def test_norm_is_the_norm_form(self, A, data):
        # the integer-numerator norm against the defining Fraction formula
        q = data.draw(quaternions(A))
        a, b = A.a, A.b
        assert q.norm() == q.w**2 - a * q.x**2 - b * q.y**2 + a * b * q.z**2

    @given(algebras, st.data())
    @settings(max_examples=60)
    def test_conjugate_antihomomorphism(self, A, data):
        p = data.draw(quaternions(A))
        q = data.draw(quaternions(A))
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()

    @given(algebras, st.data())
    def test_norm_is_q_times_conjugate(self, A, data):
        q = data.draw(quaternions(A))
        assert q * q.conjugate() == A.scalar(q.norm())
        assert q.trace() == q.w * 2

    @given(algebras, st.data())
    def test_trace_and_norm_give_minimal_quadratic(self, A, data):
        q = data.draw(quaternions(A))
        # q^2 - t q + n = 0 for every quaternion
        assert q * q - A.scalar(q.trace()) * q + A.scalar(q.norm()) == A.zero

    @given(algebras, st.data())
    @settings(max_examples=60)
    def test_inverse(self, A, data):
        q = data.draw(nonzero_quaternions(A))
        assert q * q.inverse() == A.one
        assert q.inverse() * q == A.one

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            HAMILTON.zero.inverse()

    def test_split_algebra_zero_divisor(self):
        A = AlgebraParams(Fraction(1), Fraction(1))
        q = A.one + A.i  # norm 1 - 1 = 0 but q != 0
        assert q.norm() == 0 and not q.is_zero
        with pytest.raises(ZeroDivisorError):
            q.inverse()

    def test_division_flag(self):
        assert HAMILTON.is_definitely_division
        assert not AlgebraParams(Fraction(1), Fraction(1)).is_definitely_division


class TestConjugacyClasses:
    def test_central_class(self):
        cls = conjugacy_class(HAMILTON.scalar(Fraction(3, 2)))
        assert isinstance(cls, CentralClass)
        assert cls.value == Fraction(3, 2)

    def test_sphere_class(self):
        cls = conjugacy_class(HAMILTON.quat(1, 1, 0, 0))
        assert isinstance(cls, SphereClass)
        assert cls.trace == 2 and cls.norm == 2

    def test_sphere_class_rejects_central_data(self):
        # trace^2 = 4 norm means a central point, not a sphere
        with pytest.raises(PreconditionError):
            SphereClass(Fraction(2), Fraction(1))

    @given(algebras, st.data())
    @settings(max_examples=60)
    def test_class_is_conjugation_invariant(self, A, data):
        q = data.draw(quaternions(A))
        g = data.draw(nonzero_quaternions(A))
        assert same_class(q, g * q * g.inverse())

    @given(st.data())
    def test_distinct_traces_distinct_classes(self, data):
        p = data.draw(quaternions())
        q = data.draw(quaternions())
        if p.trace() != q.trace() or p.norm() != q.norm():
            assert not same_class(p, q)

    def test_distinct_conjugates(self):
        qs = distinct_conjugates(HAMILTON.i, 6)
        assert len(qs) == 6
        assert len({q.coords() for q in qs}) == 6
        for q in qs:
            assert same_class(q, HAMILTON.i)

    def test_distinct_conjugates_central_fails(self):
        with pytest.raises(PreconditionError):
            distinct_conjugates(HAMILTON.one, 3)


class TestSubfields:
    def test_in_subfield_basics(self):
        A = HAMILTON
        assert in_subfield(A.scalar(Fraction(5)), A.i)
        assert in_subfield(A.i + A.one, A.i)
        assert not in_subfield(A.j, A.i)
        assert in_subfield(A.i + A.j, A.quat(3, 2, 2, 0))

    @given(st.data())
    def test_commutes_iff_shared_subfield(self, data):
        A = HAMILTON
        s = data.draw(nonzero_quaternions(A).filter(lambda q: not q.is_central))
        u = data.draw(quaternions(A, bound=4))
        v = data.draw(quaternions(A, bound=4))
        p = A.scalar(u.w) + A.scalar(u.x) * s
        q = A.scalar(v.w) + A.scalar(v.x) * s
        assert commutes(p, q)
        assert in_subfield(p, s)

    def test_commutes_symmetry(self):
        A = HAMILTON
        assert commutes(A.i, A.one)
        assert not commutes(A.i, A.j)


class TestRationalSquares:
    def test_squares(self):
        assert is_rational_square(Fraction(9, 4))
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(0)) == 0

    def test_non_squares(self):
        assert not is_rational_square(Fraction(2))
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(-1)) is None

    def test_floats_are_refused(self):
        # floats would be converted with their binary rounding
        with pytest.raises(PreconditionError):
            rational_sqrt(0.25)
        with pytest.raises(PreconditionError):
            is_rational_square(2.25)
        assert rational_sqrt(4) == 2 and is_rational_square("9/4")
