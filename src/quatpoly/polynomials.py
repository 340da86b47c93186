"""Polynomials with quaternion coefficients and a central variable.

Coefficients sit on the left of powers of x and x commutes with every
coefficient, so multiplication follows (p x^i)(q x^j) = (p q) x^{i+j}.
The ring has no unique factorization, evaluation is not a ring
homomorphism, and only division by the *right* works termwise; the
functions here implement the right-sided toolkit: division with
remainder, greatest common right divisors, right evaluation, and the
norm-like companion polynomial P * conj(P) with central coefficients.

:class:`CentralPoly` models the commutative subring F[x] of central
(rational) coefficients, which is where companion polynomials and
minimal polynomials of conjugacy classes live.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .algebra import (
    AlgebraParams,
    CentralClass,
    ConjClass,
    Quaternion,
    SphereClass,
    rational,
)
from .errors import InvariantViolation, PreconditionError

#: Degree of the zero polynomial; compares below every integer degree.
MINUS_INFINITY = float("-inf")


def _format_terms(parts: list[tuple[str, str]]) -> str:
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _x_part(degree: int) -> str:
    if degree == 0:
        return ""
    return "x" if degree == 1 else f"x^{degree}"


class QPoly:
    """An immutable polynomial with quaternion coefficients.

    Coefficients are stored constant-first; trailing zeros are trimmed
    on construction so equal polynomials compare equal.
    """

    __slots__ = ("algebra", "_coeffs")

    def __init__(self, algebra: AlgebraParams, coeffs: Iterable = ()):
        items = [self._coerce_coeff(algebra, c) for c in coeffs]
        while items and items[-1].is_zero:
            items.pop()
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @staticmethod
    def _coerce_coeff(algebra: AlgebraParams, value) -> Quaternion:
        if isinstance(value, Quaternion):
            if value.algebra != algebra:
                raise PreconditionError(
                    f"coefficient algebra {value.algebra!r} does not match {algebra!r}"
                )
            return value
        if isinstance(value, (int, Fraction)):
            return algebra.scalar(value)
        raise PreconditionError(f"cannot use {value!r} as a quaternion coefficient")

    # -- constructors ------------------------------------------------------

    @classmethod
    def x(cls, algebra: AlgebraParams) -> "QPoly":
        return cls(algebra, (0, 1))

    @classmethod
    def constant(cls, value: Quaternion) -> "QPoly":
        return cls(value.algebra, (value,))

    @classmethod
    def monomial(cls, coeff: Quaternion, power: int) -> "QPoly":
        if power < 0:
            raise PreconditionError("monomial power must be nonnegative")
        return cls(coeff.algebra, (0,) * power + (coeff,))

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Quaternion, ...]:
        return self._coeffs

    @property
    def degree(self):
        return len(self._coeffs) - 1 if self._coeffs else MINUS_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and self.leading == 1

    @property
    def leading(self) -> Quaternion:
        if not self._coeffs:
            raise PreconditionError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coefficient(self, power: int) -> Quaternion:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return self.algebra.zero

    def _check_same_ring(self, other: "QPoly"):
        if other.algebra != self.algebra:
            raise PreconditionError(
                f"mixed algebras: {self.algebra!r} vs {other.algebra!r}"
            )

    # -- ring operations -----------------------------------------------------

    def _coerce_operand(self, other) -> "QPoly | None":
        if isinstance(other, QPoly):
            self._check_same_ring(other)
            return other
        if isinstance(other, (Quaternion, int, Fraction)):
            return QPoly(self.algebra, (other,))
        return None

    def __add__(self, other):
        p = self._coerce_operand(other)
        if p is None:
            return NotImplemented
        n = max(len(self._coeffs), len(p._coeffs))
        return QPoly(
            self.algebra,
            (self.coefficient(m) + p.coefficient(m) for m in range(n)),
        )

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce_operand(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other):
        p = self._coerce_operand(other)
        if p is None:
            return NotImplemented
        return p - self

    def __neg__(self):
        return QPoly(self.algebra, (-c for c in self._coeffs))

    def __mul__(self, other):
        p = self._coerce_operand(other)
        if p is None:
            return NotImplemented
        if self.is_zero or p.is_zero:
            return QPoly(self.algebra)
        out = [self.algebra.zero] * (len(self._coeffs) + len(p._coeffs) - 1)
        for m, cm in enumerate(self._coeffs):
            if cm.is_zero:
                continue
            for n, cn in enumerate(p._coeffs):
                out[m + n] = out[m + n] + cm * cn
        return QPoly(self.algebra, out)

    def __rmul__(self, other):
        # Only constants land here; order matters, so multiply on the left.
        p = self._coerce_operand(other)
        if p is None:
            return NotImplemented
        return p * self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise PreconditionError("polynomial powers must be nonnegative")
        result = QPoly(self.algebra, (1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return right_divrem(self, other)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.algebra == other.algebra and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.algebra, self._coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- polynomial-specific operations ---------------------------------------

    def evaluate(self, point) -> Quaternion:
        """Right evaluation: powers of the point stand to the right of
        the coefficients, so P(q) = sum a_m q^m via a right-sided Horner
        scheme.  This is the evaluation for which the remainder theorem
        P(q) = P mod (x - q) holds."""
        q = QPoly._coerce_coeff(self.algebra, point) if not isinstance(point, Quaternion) else point
        if q.algebra != self.algebra:
            raise PreconditionError("evaluation point from a different algebra")
        if self.is_zero:
            return self.algebra.zero
        acc = self._coeffs[-1]
        for c in reversed(self._coeffs[:-1]):
            acc = acc * q + c
        return acc

    def monic(self) -> "QPoly":
        """Left-normalize by the inverse of the leading coefficient."""
        lead = self.leading
        if lead == 1:
            return self
        return lead.inverse() * self

    def conjugate_coeffs(self) -> "QPoly":
        """Apply quaternion conjugation to every coefficient."""
        return QPoly(self.algebra, (c.conjugate() for c in self._coeffs))

    def companion(self) -> "CentralPoly":
        """The central polynomial P * conj(P), of degree 2 deg P.

        Writing P = P0 + P1 i + P2 j + P3 k with rational coordinate
        polynomials Pm, and using that x is central, the product is the
        norm form P0^2 - a P1^2 - b P2^2 + a b P3^2, whose coefficients
        are rational, hence central.  It is computed from four integer
        squarings of the coordinates over their common denominator.  The
        minimal polynomial of every conjugacy class containing a root of
        P divides the companion, which is what makes it the root-finding
        workhorse.
        """
        rows, den = _int_coords(self)
        total, scale = _int_norm_form(rows, self.algebra)
        return _central_from_ints(total, den * den * scale)

    def coefficients_central(self) -> bool:
        return all(c.is_central for c in self._coeffs)

    def __str__(self) -> str:
        parts: list[tuple[str, str]] = []
        for d in range(len(self._coeffs) - 1, -1, -1):
            q = self._coeffs[d]
            if q.is_zero:
                continue
            xp = _x_part(d)
            comps = [(v, u) for v, u in zip(q.coords(), ("", "i", "j", "k")) if v != 0]
            if len(comps) == 1:
                value, unit = comps[0]
                sign = "-" if value < 0 else "+"
                mag = abs(value)
                if unit:
                    coeff_text = ("" if mag == 1 else str(mag)) + unit
                else:
                    coeff_text = "" if (d > 0 and mag == 1) else str(mag)
                body = coeff_text + (" " if coeff_text and xp else "") + xp
            else:
                if all(v < 0 for v, _ in comps):
                    sign = "-"
                    q = -q
                else:
                    sign = "+"
                body = f"({q})" + (f" {xp}" if xp else "")
            parts.append((sign, body))
        return _format_terms(parts)

    def __repr__(self) -> str:
        return f"QPoly({self})"


class CentralPoly:
    """A polynomial with rational (central) coefficients, constant-first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        items = [rational(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "_coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("CentralPoly is immutable")

    @classmethod
    def x(cls) -> "CentralPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, coeff, power: int) -> "CentralPoly":
        if power < 0:
            raise PreconditionError("monomial power must be nonnegative")
        return cls((0,) * power + (coeff,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self):
        return len(self._coeffs) - 1 if self._coeffs else MINUS_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == 1

    @property
    def leading(self) -> Fraction:
        if not self._coeffs:
            raise PreconditionError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    def _coerce_operand(self, other) -> "CentralPoly | None":
        if isinstance(other, CentralPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return CentralPoly((other,))
        return None

    def __add__(self, other):
        p = self._coerce_operand(other)
        if p is None:
            return NotImplemented
        n = max(len(self._coeffs), len(p._coeffs))
        return CentralPoly(self.coefficient(m) + p.coefficient(m) for m in range(n))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce_operand(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other):
        p = self._coerce_operand(other)
        if p is None:
            return NotImplemented
        return p - self

    def __neg__(self):
        return CentralPoly(-c for c in self._coeffs)

    def __mul__(self, other):
        p = self._coerce_operand(other)
        if p is None:
            return NotImplemented
        (left, left_den), (right, right_den) = _to_ints(self._coeffs), _to_ints(p._coeffs)
        return _central_from_ints(_int_mul(left, right), left_den * right_den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise PreconditionError("polynomial powers must be nonnegative")
        result = CentralPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        if not isinstance(other, CentralPoly):
            return NotImplemented
        if other.is_zero:
            raise PreconditionError("division by the zero polynomial")
        num, num_den = _to_ints(self._coeffs)
        div, div_den = _to_ints(other._coeffs)
        quot, rem, scale = _int_divmod(num, div)
        # scale * num = quot * div + rem, with self = num / num_den and
        # other = div / div_den
        den = scale * num_den
        return (_central_from_ints([q * div_den for q in quot], den),
                _central_from_ints(rem, den))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "CentralPoly") -> bool:
        if self.is_zero:
            return other.is_zero
        return _int_quotient(_to_ints(other._coeffs)[0],
                             _primitive(_to_ints(self._coeffs)[0])) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, CentralPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    def evaluate(self, point):
        """Horner evaluation; the point may be rational or a quaternion.

        At a rational point p/q the homogenized sum of c_m p^m q^(d-m)
        runs over the integer numerators and is divided once.
        """
        if isinstance(point, Quaternion):
            return self.lift(point.algebra).evaluate(point)
        value = rational(point)
        if not self._coeffs:
            return Fraction(0)
        ints, den = _to_ints(self._coeffs)
        p, q = value.numerator, value.denominator
        acc, q_power = ints[-1], 1
        for c in reversed(ints[:-1]):
            q_power *= q
            acc = acc * p + c * q_power
        return Fraction(acc, den * q_power)

    def monic(self) -> "CentralPoly":
        lead = self.leading
        if lead == 1:
            return self
        return CentralPoly(c / lead for c in self._coeffs)

    def derivative(self) -> "CentralPoly":
        return CentralPoly(m * c for m, c in enumerate(self._coeffs) if m > 0)

    def squarefree_part(self) -> "CentralPoly":
        """The monic product of the distinct irreducible factors.

        Dividing out gcd(P, P') collapses every repeated factor to
        multiplicity one; root finding on the result stays well
        conditioned where the original clusters badly.  A modular
        certificate skips the gcd when P is already square-free (see
        ``_int_squarefree``).
        """
        if self.is_zero:
            raise PreconditionError("the zero polynomial has no square-free part")
        return _monic_from_ints(_int_squarefree(_primitive(_to_ints(self._coeffs)[0])))

    def lift(self, algebra: AlgebraParams) -> QPoly:
        """Embed into the quaternion polynomial ring over ``algebra``."""
        return QPoly(algebra, self._coeffs)

    def __str__(self) -> str:
        parts: list[tuple[str, str]] = []
        for d in range(len(self._coeffs) - 1, -1, -1):
            value = self._coeffs[d]
            if value == 0:
                continue
            xp = _x_part(d)
            sign = "-" if value < 0 else "+"
            mag = abs(value)
            coeff_text = "" if (d > 0 and mag == 1) else str(mag)
            parts.append((sign, coeff_text + (" " if coeff_text and xp else "") + xp))
        return _format_terms(parts)

    def __repr__(self) -> str:
        return f"CentralPoly({self})"


# -- free functions ---------------------------------------------------------


def right_divrem(dividend: QPoly, divisor: QPoly) -> tuple[QPoly, QPoly]:
    """Right division with remainder: dividend = quotient * divisor + rem.

    The remainder has degree strictly below the divisor's.  The divisor
    only needs an invertible leading coefficient, so in a division
    algebra any nonzero divisor works.
    """
    dividend._check_same_ring(divisor)
    if divisor.is_zero:
        raise PreconditionError("division by the zero polynomial")
    if dividend.is_zero or dividend.degree < divisor.degree:
        return QPoly(dividend.algebra), dividend
    lead_inv = divisor.leading.inverse()
    dd = divisor.degree
    lower = divisor.coeffs[:-1]
    rem = list(dividend.coeffs)
    q_coeffs = [dividend.algebra.zero] * (len(rem) - dd)
    for shift in range(len(q_coeffs) - 1, -1, -1):
        top = rem[shift + dd]
        if top.is_zero:
            continue
        t = top * lead_inv
        q_coeffs[shift] = t
        # t * divisor cancels the top coefficient exactly
        for n, c in enumerate(lower):
            rem[shift + n] = rem[shift + n] - t * c
    return QPoly(dividend.algebra, q_coeffs), QPoly(dividend.algebra, rem[:dd])


def eval_right(poly: QPoly, point) -> Quaternion:
    """Right evaluation, sum of a_m q^m; see :meth:`QPoly.evaluate`."""
    return poly.evaluate(point)


def eval_product(left: QPoly, right: QPoly, point) -> Quaternion:
    """Evaluate (left * right) at a point without forming the product.

    Evaluation is not multiplicative.  Writing h = right(q): if h = 0
    the product vanishes at q; otherwise

        (left * right)(q) = left(h q h^{-1}) * h,

    so the left factor is evaluated at a conjugate of the point.
    """
    left._check_same_ring(right)
    h = right.evaluate(point)
    if h.is_zero:
        return left.algebra.zero
    q = QPoly._coerce_coeff(left.algebra, point) if not isinstance(point, Quaternion) else point
    return left.evaluate(h * q * h.inverse()) * h


def gcrd(first: QPoly, second: QPoly) -> QPoly:
    """Greatest common right divisor, normalized monic.

    Computed by the right Euclidean algorithm; the result right-divides
    both inputs and every common right divisor right-divides it.
    """
    first._check_same_ring(second)
    if first.is_zero and second.is_zero:
        raise PreconditionError("gcrd(0, 0) is undefined")
    p, s = first, second
    while not s.is_zero:
        p, s = s, right_divrem(p, s)[1]
    return p.monic()


def central_gcd(first: CentralPoly, second: CentralPoly) -> CentralPoly:
    """Monic greatest common divisor in the commutative ring F[x].

    Euclid runs on primitive integer polynomials (Collins' primitive
    remainder sequence): every pseudo-remainder is divided by its
    content, so coefficients stay near the size of the subresultants
    instead of growing with each rational division.
    """
    if first.is_zero and second.is_zero:
        raise PreconditionError("gcd(0, 0) is undefined")
    return _monic_from_ints(_int_gcd([_to_ints(f.coeffs)[0] for f in (first, second)]))


def minimal_polynomial(cls: ConjClass) -> CentralPoly:
    """The monic central polynomial vanishing on a conjugacy class.

    Central value v: x - v.  Sphere with trace t and norm n: the
    irreducible quadratic x^2 - t x + n.
    """
    if isinstance(cls, CentralClass):
        return CentralPoly((-cls.value, 1))
    if isinstance(cls, SphereClass):
        return CentralPoly((cls.norm, -cls.trace, 1))
    raise PreconditionError(f"{cls!r} is not a conjugacy class")


# -- integer kernels ---------------------------------------------------------
#
# The exact core computes on integer coefficient lists over one common
# denominator and builds Fractions only for results: Fraction arithmetic
# pays a gcd on every operation.


def _to_ints(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator."""
    # star-args from a list: a generator would build its tuple by
    # resizing, which bypasses CPython's tuple free lists and fills them
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _central_from_ints(ints: Sequence[int], den: int) -> CentralPoly:
    return CentralPoly(Fraction(c, den) for c in ints)


def _int_coords(poly: QPoly) -> tuple[list[list[int]], int]:
    """The four coordinate polynomials of P as trimmed integer lists over
    one denominator."""
    ints, den = _to_ints([v for c in poly.coeffs for v in c.coords()])
    return [_trim(ints[m::4]) for m in range(4)], den


def _int_mul(p: Sequence[int], q: Sequence[int]) -> list[int]:
    out = [0] * max(0, len(p) + len(q) - 1)
    for m, cm in enumerate(p):
        if cm:
            for n, cn in enumerate(q):
                out[m + n] += cm * cn
    return out


def _int_divmod(num: Sequence[int], div: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division scale * num = quot * div + rem, deg rem < deg div.

    ``div`` is nonzero with a nonzero last entry.  A step scales the
    running remainder only by the part of the leading coefficient that
    does not already divide the term being cancelled, so ``scale`` is 1
    for monic divisors and divides |lead|^(deg num - deg div + 1).
    """
    lead, dd = div[-1], len(div) - 1
    rem = list(num)
    quot = [0] * max(0, len(num) - dd)
    scale = 1
    for shift in range(len(quot) - 1, -1, -1):
        top = rem.pop()  # this step cancels it
        if not top:
            continue
        f = abs(lead) // gcd(top, lead)
        if f != 1:
            scale *= f
            rem = [f * c for c in rem]
            quot = [f * c for c in quot]
            top *= f
        t = top // lead
        quot[shift] = t
        for n in range(dd):
            rem[shift + n] -= t * div[n]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, scale


def _int_quotient(num: Sequence[int], div: Sequence[int]) -> list[int] | None:
    """num / div when the primitive ``div`` divides ``num`` over the
    rationals, else None.

    By Gauss's lemma it then divides over the integers, so every step
    of the long division must be exact; the first inexact one decides.
    """
    lead, dd = div[-1], len(div) - 1
    rem = list(num)
    quot = [0] * max(0, len(num) - dd)
    for shift in range(len(quot) - 1, -1, -1):
        t, inexact = divmod(rem.pop(), lead)
        if inexact:
            return None
        quot[shift] = t
        for n in range(dd):
            rem[shift + n] -= t * div[n]
    return None if any(rem) else quot


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    if not p:
        return p
    content = gcd(*p) if p[-1] > 0 else -gcd(*p)
    return [c // content for c in p]


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _monic_from_ints(p: Sequence[int]) -> CentralPoly:
    return _central_from_ints(p, p[-1])


def _int_norm_form(rows: Sequence[Sequence[int]], algebra: AlgebraParams) -> tuple[list[int], int]:
    """(total, scale) with total / (den^2 * scale) the companion of the
    polynomial whose coordinate rows are ``rows`` / den."""
    a, b = algebra.a, algebra.b
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    total = [0] * max(0, 2 * max(map(len, rows)) - 1)
    for weight, row in zip((ad * bd, -an * bd, -ad * bn, an * bn), rows):
        for m, c in enumerate(_int_mul(row, row)):
            total[m] += weight * c
    return _trim(total), ad * bd


def _int_gcd(polys: Iterable[list[int]]) -> list[int]:
    """Primitive gcd of trimmed integer polynomials, [] when all are zero.

    Euclid runs on primitive polynomials (Collins' primitive remainder
    sequence), and stops once the gcd is constant.
    """
    g: list[int] = []
    for f in polys:
        s = _primitive(f)
        while s:
            g, s = s, _primitive(_int_divmod(g, s)[1])
        if len(g) == 1:
            break
    return g


#: The prime of the modular certificates, the largest below 2^30.  Any
#: prime is sound.  One this large divides no leading coefficient of
#: ordinary size and fails on a square-free input only when it divides
#: the discriminant, while a residue fits one 30-bit digit of a Python
#: int and a product of two fits two.
_CERT_PRIME = 1073741789


def _coprime_mod(f: Sequence[int], g: Sequence[int], p: int) -> bool:
    """Whether gcd(f mod p, g mod p) is constant; f's leading
    coefficient must be a unit mod p."""
    return len(_gcd_mod(f, g, p)) == 1


# Polynomials mod a prime p are lists of residues in [0, p), trimmed.


def _divmod_mod(a: Sequence[int], f: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic f, mod p."""
    rem, d = list(a), len(f) - 1
    quot = [0] * max(0, len(rem) - d)
    for shift in range(len(quot) - 1, -1, -1):
        # entries are reduced only when they reach the top
        t = quot[shift] = rem.pop() % p
        if t:
            rem[shift:] = [c - t * e for c, e in zip(rem[shift:], f)]
    return quot, _trim([c % p for c in rem])


def _gcd_mod(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """Monic gcd of f mod p and g mod p; f's leading coefficient must be
    a unit mod p."""
    a, b = [c % p for c in f], _trim([c % p for c in g])
    while b:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        while len(a) > db:
            t = a.pop() * inv % p
            if t:
                off = len(a) - db
                a[off:] = [(c - t * d) % p for c, d in zip(a[off:], b)]
        a, b = b, _trim(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _pow_mod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    """a^e modulo the monic f and p, by square-and-multiply."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _divmod_mod(_int_mul(out, out), f, p)[1]
        if bit == "1":
            out = _divmod_mod(_int_mul(out, a), f, p)[1]
    return out


def _split_mod(f: list[int], k: int, p: int, start: int = 0) -> list[list[int]]:
    """The monic irreducible factors mod the odd prime p of the monic f,
    a product of distinct irreducibles of degree k = 1 or 2.

    Cantor-Zassenhaus: a factor with root z divides (x + c)^((p^k - 1)/2) - 1
    when z + c is a nonzero square in F(p^k), for k = 2 both roots alike
    (the value is the Legendre symbol of the norm).  Some c in F_p
    separates any two factors (a character sum for k = 1; for k = 2 the
    Weil bound when p > 9, a direct check for p = 3, 5, 7).  The parts
    of a split go on from the next c.
    """
    if len(f) - 1 <= k:
        return [f] if len(f) > 1 else []
    for c in range(start, start + p):
        h = _pow_mod([c % p, 1], (p**k - 1) // 2, f, p) or [0]
        h[0] = (h[0] - 1) % p
        d = _gcd_mod(f, h, p)
        if 1 < len(d) < len(f):
            return (_split_mod(d, k, p, c + 1)
                    + _split_mod(_divmod_mod(f, d, p)[0], k, p, c + 1))
    raise InvariantViolation(f"no x + c splits {f} modulo {p}")


def _int_squarefree(f: list[int]) -> list[int]:
    """Primitive square-free part of a nonzero primitive integer polynomial.

    Certificate: if p does not divide the leading coefficient and
    gcd(f mod p, f' mod p) = 1, then f is square-free over the
    rationals: if f = g^2 h with g primitive of degree >= 1 (Gauss's
    lemma), g mod p keeps its degree and divides both f mod p and
    f' mod p = g (2 g' h + g h') mod p.  Without the certificate,
    gcd(f, f') is divided out, computed by the PRS.
    """
    if f[-1] % _CERT_PRIME and _coprime_mod(f, _derivative(f), _CERT_PRIME):
        return f
    common = _int_gcd([f, _derivative(f)])
    return f if len(common) == 1 else _int_quotient(f, common)


def _derivative(f: Sequence[int]) -> list[int]:
    return [m * c for m, c in enumerate(f)][1:]
