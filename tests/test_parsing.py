"""Text grammar, error positions, and the JSON wire format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpoly import (
    HAMILTON,
    AlgebraParams,
    ParseError,
    QPoly,
    parse_quaternion,
    parse_to_qpoly,
)
from quatpoly.parsing import (
    Diff,
    Lit,
    Pow,
    Prod,
    Sum,
    Var,
    lower,
    parse_poly_text,
    poly_from_json_obj,
    poly_to_json_obj,
    quat_to_json,
    tokenize,
)

from conftest import DIVISION_ALGEBRAS, FRACTIONAL_ALGEBRAS, qpolys

A = HAMILTON
algebras = st.sampled_from(DIVISION_ALGEBRAS)


class TestGrammar:
    def test_full_cubic(self):
        p = parse_to_qpoly("x^3 - i x^2 + x - i")
        x = QPoly.x(A)
        i = QPoly.constant(A.i)
        assert p == x**3 - i * x**2 + x - i

    def test_parenthesized_product_with_power(self):
        p = parse_to_qpoly("(x - i)(x + 1)^2")
        x = QPoly.x(A)
        assert p == (x - QPoly.constant(A.i)) * (x + QPoly.constant(A.one)) ** 2

    def test_fraction_literal_and_unit_product(self):
        p = parse_to_qpoly("3/2 x + j k")
        # jk = i in the Hamilton table
        assert p == QPoly(A, [A.i, A.scalar(Fraction(3, 2))])

    def test_juxtaposition_equals_star(self):
        assert parse_to_qpoly("2 i x") == parse_to_qpoly("2 * i * x")

    def test_factor_order_is_preserved(self):
        assert parse_to_qpoly("i j") == QPoly.constant(A.k)
        assert parse_to_qpoly("j i") == QPoly.constant(-A.k)

    def test_unary_signs(self):
        assert parse_to_qpoly("-x + 1") == -QPoly.x(A) + QPoly.constant(A.one)
        assert parse_to_qpoly("+x") == QPoly.x(A)
        assert parse_to_qpoly("- 3/2 i") == QPoly.constant(A.scalar(Fraction(-3, 2)) * A.i)

    def test_power_of_x_and_unit_exponent(self):
        assert parse_to_qpoly("x^0") == QPoly.constant(A.one)
        assert parse_to_qpoly("x^3") == QPoly.monomial(A.one, 3)
        assert parse_to_qpoly("(i)^2") == QPoly.constant(-A.one)

    def test_structure_constants_respected(self):
        B = AlgebraParams(Fraction(-1), Fraction(-2))
        # with b = -2 the product jk equals 2i
        assert parse_to_qpoly("j k", B) == QPoly.constant(B.scalar(2) * B.i)

    def test_whitespace_and_newlines(self):
        assert parse_to_qpoly("x +\n 3/2 i") == parse_to_qpoly("x + 3/2 i")


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse_to_qpoly("")
        assert exc.value.line == 1 and exc.value.column == 1
        assert "end of input" in str(exc.value)

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as exc:
            parse_to_qpoly("x +")
        assert "end of input" in str(exc.value)

    def test_position_on_second_line(self):
        with pytest.raises(ParseError) as exc:
            parse_to_qpoly("x +\n  )")
        assert exc.value.line == 2 and exc.value.column == 3

    def test_missing_denominator(self):
        with pytest.raises(ParseError) as exc:
            parse_to_qpoly("3/ x")
        assert "expected digits after '/'" in str(exc.value)
        assert exc.value.column == 2

    def test_unknown_character(self):
        with pytest.raises(ParseError) as exc:
            parse_to_qpoly("x $")
        assert "unexpected character '$'" in str(exc.value)
        assert exc.value.column == 3

    def test_bad_exponent(self):
        with pytest.raises(ParseError) as exc:
            parse_to_qpoly("x ^ i")
        assert "exponent" in str(exc.value)
        assert exc.value.column == 5

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_to_qpoly("(x + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_to_qpoly("x + 1 )")

    def test_message_format(self):
        with pytest.raises(ParseError) as exc:
            parse_to_qpoly("")
        assert str(exc.value).startswith("line 1, column 1: ")


class TestTokenizer:
    def test_positions_are_one_based(self):
        toks = tokenize("x +\n 3/2 i")
        kinds = [(t.kind, t.line, t.column) for t in toks]
        assert kinds == [("X", 1, 1), ("PLUS", 1, 3), ("NUMBER", 2, 2),
                         ("UNIT", 2, 6), ("END", 2, 7)]

    def test_fraction_is_one_token(self):
        toks = tokenize("10/3")
        assert toks[0].kind == "NUMBER" and toks[0].text == "10/3"


class TestRoundTrip:
    @given(algebras, st.data())
    @settings(max_examples=120)
    def test_parse_inverts_str(self, A_, data):
        p = data.draw(qpolys(A_, max_degree=6))
        assert parse_to_qpoly(str(p), A_) == p

    @given(algebras, st.data())
    @settings(max_examples=80)
    def test_json_round_trip(self, A_, data):
        p = data.draw(qpolys(A_, max_degree=6))
        obj = poly_to_json_obj(p)
        assert poly_from_json_obj(obj, A_) == p

    def test_json_shape(self):
        p = parse_to_qpoly("3/2 x + j k")
        assert poly_to_json_obj(p) == [["0", "1", "0", "0"], ["3/2", "0", "0", "0"]]


class TestQuaternionParsing:
    def test_constant_expression(self):
        q = parse_quaternion("1 + i j + 1/2 k")
        assert q == A.quat(1, 0, 0, Fraction(3, 2))

    def test_degree_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_quaternion("x + 1")
        assert "degree-1" in str(exc.value)

    def test_quat_to_json(self):
        assert quat_to_json(A.quat(1, 2, 0, -1)) == ["1", "2", "0", "-1"]


class TestJsonValidation:
    def test_bad_row_rejected(self):
        with pytest.raises(ParseError):
            poly_from_json_obj({"bad": 1})
        with pytest.raises(ParseError):
            poly_from_json_obj([["1", "2", "3"]])

    def test_bad_entry_rejected(self):
        with pytest.raises(ParseError):
            poly_from_json_obj([["1", "x", "0", "0"]])


# -- lowering oracle -----------------------------------------------------------

SPLIT = AlgebraParams(Fraction(1), Fraction(1))
ORACLE_ALGEBRAS = ([HAMILTON, AlgebraParams(Fraction(-1), Fraction(-2))] + FRACTIONAL_ALGEBRAS
                   + [SPLIT])
BIG = 10**18 + 9


def naive_product(p: list, q: list, zero) -> list:
    """The convolution of coefficient lists by Quaternion operations."""
    out = [zero] * (len(p) + len(q) - 1)
    for m, a in enumerate(p):
        for n, b in enumerate(q):
            out[m + n] = out[m + n] + a * b
    return out


def reference(expr, A) -> list:
    """Constant-first, untrimmed coefficients of a parse tree."""
    if isinstance(expr, Lit):
        return [A.scalar(expr.coef) * {"1": A.one, "i": A.i, "j": A.j, "k": A.k}[expr.unit]]
    if isinstance(expr, Var):
        return [A.zero, A.one]
    if isinstance(expr, (Sum, Diff)):
        p, q = reference(expr.left, A), reference(expr.right, A)
        n = max(len(p), len(q))
        p, q = p + [A.zero] * (n - len(p)), q + [A.zero] * (n - len(q))
        return [a + b if isinstance(expr, Sum) else a - b for a, b in zip(p, q)]
    if isinstance(expr, Prod):
        return naive_product(reference(expr.left, A), reference(expr.right, A), A.zero)
    if isinstance(expr, Pow):
        out, base = [A.one], reference(expr.base, A)
        for _ in range(expr.exponent):
            out = naive_product(out, base, A.zero)
        return out
    raise TypeError(expr)


coefs = st.one_of(st.fractions(-20, 20, max_denominator=12),
                  st.integers(-3, 3).map(lambda n: Fraction(n, BIG)),
                  st.integers(-BIG, BIG).map(lambda n: Fraction(n, 7)))
leaves = st.one_of(st.builds(Lit, coefs, st.sampled_from("1ijk")), st.just(Var()),
                   st.builds(Pow, st.just(Var()), st.integers(0, 4)))
trees = st.recursive(
    leaves,
    lambda sub: st.one_of(st.builds(Sum, sub, sub), st.builds(Diff, sub, sub),
                          st.builds(Prod, sub, sub), st.builds(Pow, sub, st.integers(0, 3))),
    max_leaves=8)


class TestLoweringOracle:
    """``lower`` on integer rows against Quaternion-by-Quaternion evaluation."""

    @given(st.sampled_from(ORACLE_ALGEBRAS), trees)
    @settings(max_examples=150, deadline=None)
    def test_lower_matches_reference(self, A_, expr):
        assert lower(expr, A_) == QPoly(A_, reference(expr, A_))

    @pytest.mark.parametrize("A_", ORACLE_ALGEBRAS, ids=str)
    @pytest.mark.parametrize("text", [
        "i j", "j i", "(x - i + 2/3 j)^0", "(x - i + 2/3 j)^1", "(i x + j)^3 (k - x)^2",
        "x^3 - x^3 + x", "x^3 - x^3", "0 i", "0", "(1 + i)(1 - i) x^2 + x",
        f"1/{BIG} x^2 - {BIG}/3 i x + (1/{BIG} k)(2/{BIG} j)",
    ])
    def test_cases_match_reference(self, A_, text):
        p = parse_to_qpoly(text, A_)
        assert p == QPoly(A_, reference(parse_poly_text(text), A_))

    def test_hand_checked_values(self):
        B = AlgebraParams(Fraction(-1, 2), Fraction(-3))
        assert parse_to_qpoly("i j", B) == -parse_to_qpoly("j i", B) == QPoly.constant(B.k)
        assert parse_to_qpoly("(x - i + j)^0", B) == QPoly.constant(B.one)
        assert parse_to_qpoly("(x - i + j)^1", B) == parse_to_qpoly("x - i + j", B)
        assert parse_to_qpoly("x^3 - x^3 + x", B) == QPoly.x(B)
        assert parse_to_qpoly("x^3 - x^3", B).is_zero and parse_to_qpoly("0 i", B).is_zero
        # (1 + i)(1 - i) = 1 - i^2 vanishes when i^2 = 1, and the leading entry with it
        assert parse_to_qpoly("(1 + i)(1 - i) x^2 + x", SPLIT) == QPoly.x(SPLIT)
        assert parse_to_qpoly(f"1/{BIG} x", B).coefficient(1) == B.scalar(Fraction(1, BIG))

    @given(st.sampled_from(ORACLE_ALGEBRAS), st.data())
    @settings(max_examples=60)
    def test_qpoly_mul_matches_reference(self, A_, data):
        p = data.draw(qpolys(A_, max_degree=4))
        q = data.draw(qpolys(A_, max_degree=4))
        expected = naive_product(list(p.coeffs), list(q.coeffs), A_.zero) if p and q else []
        assert p * q == QPoly(A_, expected)

    def test_split_product_trims_vanishing_entries(self):
        x = QPoly.x(SPLIT)
        one, i = QPoly.constant(SPLIT.one), QPoly.constant(SPLIT.i)
        assert ((one + i) * x) * (one - i) == QPoly(SPLIT)
        assert ((one + i) * x + one) * (one - i) == one - i
