"""Text and JSON front ends for quaternion polynomials.

The surface syntax is the one used throughout the library's printers:
terms joined by ``+`` and ``-``, juxtaposition (or ``*``) for ordered
products, ``^`` for nonnegative integer powers, rationals written as
``p/q``, and the units ``i j k``.  Multiplication order is preserved
exactly as written, so ``i j`` and ``j i`` lower to different
constants.  ``parse_to_qpoly(str(P), P.algebra) == P`` for every QPoly.
A tree is lowered to integer 4-vectors over one denominator, multiplied by
the kernel of ``QPoly.__mul__``; Fractions are built once, for the result.

JSON serialization writes polynomials as constant-first arrays of
``[w, x, y, z]`` component strings, each component an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Sequence, Union

from .algebra import HAMILTON, AlgebraParams, Quaternion, _power
from .errors import ParseError
from .polynomials import CentralPoly, QPoly, _int_qpoly_mul, _qpoly_from_vectors

# -- tokens ------------------------------------------------------------------

_UNITS = ("i", "j", "k")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


_SINGLE = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
}


def tokenize(text: str) -> list[Token]:
    """Split input into tokens, tracking 1-based line and column."""
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            col += 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, col))
            pos += 1
            col += 1
            continue
        if ch.isdigit():
            start = pos
            start_col = col
            while pos < n and text[pos].isdigit():
                pos += 1
                col += 1
            # optional /q suffix makes the whole literal one rational
            if pos < n and text[pos] == "/":
                if pos + 1 >= n or not text[pos + 1].isdigit():
                    raise ParseError("expected digits after '/'", line, col)
                pos += 1
                col += 1
                while pos < n and text[pos].isdigit():
                    pos += 1
                    col += 1
            tokens.append(Token("NUMBER", text[start:pos], line, start_col))
            continue
        if ch in _UNITS:
            tokens.append(Token("UNIT", ch, line, col))
            pos += 1
            col += 1
            continue
        if ch == "x":
            tokens.append(Token("X", ch, line, col))
            pos += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", "", line, col))
    return tokens


# -- parse tree --------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    """A quaternion literal: a rational multiple of 1, i, j, or k."""

    coef: Fraction
    unit: str = "1"


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Sum:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Diff:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Prod:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Pow:
    base: "PolyExpr"
    exponent: int


PolyExpr = Union[Lit, Var, Sum, Diff, Prod, Pow]

_FACTOR_START = {"NUMBER", "UNIT", "X", "LPAREN"}


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        shown = tok.text if tok.kind != "END" else "end of input"
        return ParseError(f"{message}, got {shown!r}", tok.line, tok.column)

    # poly := ['+'|'-'] term { ('+'|'-') term }
    def poly(self) -> PolyExpr:
        negate = False
        if self.peek().kind in ("PLUS", "MINUS"):
            negate = self.take().kind == "MINUS"
        expr = self.term()
        if negate:
            expr = _negated(expr)
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.take().kind
            rhs = self.term()
            expr = Sum(expr, rhs) if op == "PLUS" else Diff(expr, rhs)
        return expr

    # term := factor { ['*'] factor }
    def term(self) -> PolyExpr:
        expr = self.factor()
        while True:
            kind = self.peek().kind
            if kind == "STAR":
                self.take()
                expr = Prod(expr, self.factor())
            elif kind in _FACTOR_START:
                expr = Prod(expr, self.factor())
            else:
                return expr

    # factor := NUMBER [UNIT] | UNIT | 'x' ['^' nat] | '(' poly ')' ['^' nat]
    def factor(self) -> PolyExpr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.take()
            coef = Fraction(tok.text)
            if self.peek().kind == "UNIT":
                return Lit(coef, self.take().text)
            return Lit(coef)
        if tok.kind == "UNIT":
            self.take()
            return Lit(Fraction(1), tok.text)
        if tok.kind == "X":
            self.take()
            exp = self.maybe_power()
            return Var() if exp is None else Pow(Var(), exp)
        if tok.kind == "LPAREN":
            self.take()
            inner = self.poly()
            if self.peek().kind != "RPAREN":
                raise self.fail("expected ')'")
            self.take()
            exp = self.maybe_power()
            return inner if exp is None else Pow(inner, exp)
        raise self.fail("expected a number, unit, 'x', or '('")

    def maybe_power(self) -> int | None:
        if self.peek().kind != "CARET":
            return None
        self.take()
        tok = self.peek()
        if tok.kind != "NUMBER" or not tok.text.isdigit():
            raise self.fail("expected a nonnegative integer exponent")
        self.take()
        return int(tok.text)


def _negated(expr: PolyExpr) -> PolyExpr:
    # unary minus folds into a leading literal; otherwise scale by the
    # central -1, which commutes past everything
    if isinstance(expr, Lit):
        return Lit(-expr.coef, expr.unit)
    if isinstance(expr, Prod):
        return Prod(_negated(expr.left), expr.right)
    return Prod(Lit(Fraction(-1)), expr)


def parse_poly_text(text: str) -> PolyExpr:
    """Parse source text into a tree; raises ParseError with position."""
    parser = _Parser(tokenize(text))
    expr = parser.poly()
    if parser.peek().kind != "END":
        raise parser.fail("trailing input after polynomial")
    return expr


# -- lowering ----------------------------------------------------------------


def lower(expr: PolyExpr, algebra: AlgebraParams) -> QPoly:
    """Evaluate a parse tree to a QPoly on integer vectors, preserving factor order."""
    return _qpoly_from_vectors(algebra, *_lower_vectors(expr, algebra))


_ZERO, _ONE = (0, 0, 0, 0), (1, 0, 0, 0)


def _lower_vectors(expr: PolyExpr, algebra: AlgebraParams) -> tuple[list, int]:
    """(vectors, den) of a parse tree; see ``polynomials._int_qpoly_mul``."""
    if isinstance(expr, Lit):
        return [[expr.coef.numerator if u == expr.unit else 0 for u in "1ijk"]], expr.coef.denominator
    if isinstance(expr, Var):
        return [_ZERO, _ONE], 1
    if isinstance(expr, Pow) and isinstance(expr.base, Var):
        return [_ZERO] * expr.exponent + [_ONE], 1
    if isinstance(expr, (Sum, Diff)):
        (p, d1), (q, d2) = _lower_vectors(expr.left, algebra), _lower_vectors(expr.right, algebra)
        den = lcm(d1, d2)
        f, g = den // d1, den // d2 if isinstance(expr, Sum) else -(den // d2)
        return [[f * a + g * b for a, b in zip(u, v)]
                for u, v in zip_longest(p, q, fillvalue=_ZERO)], den
    if isinstance(expr, Prod):
        return _int_qpoly_mul(algebra, _lower_vectors(expr.left, algebra),
                              _lower_vectors(expr.right, algebra))
    if isinstance(expr, Pow):
        return _power(_lower_vectors(expr.base, algebra), expr.exponent, ([_ONE], 1),
                      lambda p, q: _int_qpoly_mul(algebra, p, q))
    raise TypeError(f"not a PolyExpr node: {expr!r}")


def parse_to_qpoly(text: str, algebra: AlgebraParams = HAMILTON) -> QPoly:
    return lower(parse_poly_text(text), algebra)


def parse_quaternion(text: str, algebra: AlgebraParams = HAMILTON) -> Quaternion:
    """Parse a constant expression; degree >= 1 is rejected."""
    poly = parse_to_qpoly(text, algebra)
    if poly.degree > 0:
        raise ParseError(
            f"expected a constant quaternion, got a degree-{poly.degree} polynomial",
            1,
            1,
        )
    return poly.coefficient(0)


# -- JSON helpers ------------------------------------------------------------


def quat_to_json(q: Quaternion) -> list[str]:
    return [str(component) for component in q.coords()]


def poly_to_json_obj(poly: Union[QPoly, CentralPoly], algebra: AlgebraParams | None = None) -> list[list[str]]:
    """Constant-first [w, x, y, z] component arrays, exact rationals."""
    if isinstance(poly, CentralPoly):
        if algebra is None:
            algebra = HAMILTON
        poly = poly.lift(algebra)
    return [quat_to_json(c) for c in poly.coeffs]


def poly_from_json_obj(obj: Sequence[Sequence[str]], algebra: AlgebraParams = HAMILTON) -> QPoly:
    coeffs = []
    for row in obj:
        if len(row) != 4:
            raise ParseError(f"coefficient {row!r} is not a [w, x, y, z] array", 1, 1)
        try:
            parts = [Fraction(component) for component in row]
        except (ValueError, TypeError, ZeroDivisionError) as err:
            raise ParseError(f"coefficient {row!r}: {err}", 1, 1) from err
        coeffs.append(algebra.quat(*parts))
    return QPoly(algebra, coeffs)
