"""Exact arithmetic in generalized quaternion algebras over the rationals.

An algebra is fixed by two nonzero rational structure constants (a, b).
It is spanned by 1, i, j, k with

    i*i = a,    j*j = b,    i*j = -j*i = k,

and carries the conjugation w + xi + yj + zk  ->  w - xi - yj - zk, the
trace 2w, and the norm N(q) = w^2 - a*x^2 - b*y^2 + a*b*z^2.  When a < 0
and b < 0 the norm form is positive definite, every nonzero element is
invertible, and the algebra is a division algebra; the classical
quaternions correspond to (a, b) = (-1, -1).  Other parameter choices
are accepted optimistically: operations run until an element of zero
norm must be inverted, which raises :class:`ZeroDivisorError` and
signals that the parameters give a split algebra.

All coordinates are :class:`fractions.Fraction`; nothing here ever
rounds.  Floats are rejected on input rather than silently converted.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Union

from .errors import InvariantViolation, PreconditionError, ZeroDivisorError

Rational = Fraction

_RationalLike = Union[int, str, Fraction]


def rational(value: _RationalLike) -> Fraction:
    """Coerce to an exact rational; floats are refused to avoid rounding."""
    if isinstance(value, float):
        raise PreconditionError(
            f"refusing to convert float {value!r} to an exact rational; "
            "pass a Fraction, int, or string like '3/2'"
        )
    if type(value) is Fraction:  # immutable, so no copy is needed
        return value
    return Fraction(value)


def is_rational_square(value: Fraction) -> bool:
    """True if ``value`` is the square of a rational number."""
    return rational_sqrt(value) is not None


def rational_sqrt(value: Fraction) -> Fraction | None:
    """The nonnegative rational square root, or None if there is none."""
    value = rational(value)
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _int_qmul(algebra: AlgebraParams, p, q) -> list[int]:
    """ad*bd times the product of integer 4-vectors, (a, b) = (an/ad, bn/bd)."""
    (s, e1, e2, e3), (w1, x1, y1, z1), (w2, x2, y2, z2) = algebra._norm_weights, p, q
    return [s * w1 * w2 - e1 * x1 * x2 - e2 * y1 * y2 - e3 * z1 * z2,
            s * (w1 * x2 + x1 * w2) + e2 * (y1 * z2 - z1 * y2),
            s * (w1 * y2 + y1 * w2) - e1 * (x1 * z2 - z1 * x2),
            s * (w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2)]


def _power(base, n: int, one, mul=operator.mul):
    """base**n, n >= 0, by square-and-multiply from the top bit down: no
    product by ``one``, bit_length - 1 squarings, popcount - 1 products."""
    if not n:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


#: The names of the basis 1, i, j, k in printed coordinates.
_UNITS = ("", "i", "j", "k")


def _format_terms(terms: list[tuple]) -> str:
    """Join (value, body) terms as "a - b + c", each signed as its value,
    for quaternions and both polynomial rings; no terms print as 0."""
    out = "".join(f" {'-' if v < 0 else '+'} {body}" for v, body in terms)
    return ("-" if out[1] == "-" else "") + out[3:] if out else "0"


def _int_qform(algebra: AlgebraParams, p, q) -> int:
    """ad*bd times the bilinear form of the norm N(p) = <p, p> at integer 4-vectors."""
    s, e1, e2, e3 = algebra._norm_weights
    return s * p[0] * q[0] + e1 * p[1] * q[1] + e2 * p[2] * q[2] + e3 * p[3] * q[3]


@dataclass(frozen=True)
class AlgebraParams:
    """Structure constants (a, b) of a generalized quaternion algebra."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))
        if self.a == 0 or self.b == 0:
            raise PreconditionError("structure constants a, b must be nonzero")
        # ad*bd times the norms 1, -a, -b, ab of 1, i, j, k, for (a, b) = (an/ad, bn/bd)
        an, ad, bn, bd = self.a.numerator, self.a.denominator, self.b.numerator, self.b.denominator
        object.__setattr__(self, "_norm_weights", (ad * bd, -an * bd, -ad * bn, an * bn))

    @property
    def is_definitely_division(self) -> bool:
        """True when a < 0 and b < 0, which forces a division algebra."""
        return self.a < 0 and self.b < 0

    def quat(self, w=0, x=0, y=0, z=0) -> "Quaternion":
        return Quaternion(self, rational(w), rational(x), rational(y), rational(z))

    def scalar(self, value) -> "Quaternion":
        return self.quat(w=value)

    @property
    def zero(self) -> "Quaternion":
        return self.quat()

    @property
    def one(self) -> "Quaternion":
        return self.quat(w=1)

    @property
    def i(self) -> "Quaternion":
        return self.quat(x=1)

    @property
    def j(self) -> "Quaternion":
        return self.quat(y=1)

    @property
    def k(self) -> "Quaternion":
        return self.quat(z=1)

    def units(self) -> tuple["Quaternion", "Quaternion", "Quaternion"]:
        return (self.i, self.j, self.k)

    def __repr__(self) -> str:
        return f"AlgebraParams(a={self.a}, b={self.b})"


#: The rational Hamilton quaternions, (a, b) = (-1, -1).
HAMILTON = AlgebraParams(Fraction(-1), Fraction(-1))


@dataclass(frozen=True, eq=False)
class Quaternion:
    """An element w + x*i + y*j + z*k of a fixed quaternion algebra."""

    algebra: AlgebraParams
    w: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, rational(getattr(self, name)))

    def _coerce(self, other) -> "Quaternion | None":
        if isinstance(other, Quaternion):
            if other.algebra != self.algebra:
                raise PreconditionError(
                    f"mixed algebras: {self.algebra!r} vs {other.algebra!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.algebra.scalar(other)
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return Quaternion(self.algebra, self.w + q.w, self.x + q.x, self.y + q.y, self.z + q.z)

    __radd__ = __add__

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return Quaternion(self.algebra, self.w - q.w, self.x - q.x, self.y - q.y, self.z - q.z)

    def __rsub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q - self

    def __neg__(self):
        return Quaternion(self.algebra, -self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        # integer numerators over one denominator per factor
        alg, (d1, p1), (d2, p2) = self.algebra, self._numerators(), q._numerators()
        den = alg._norm_weights[0] * d1 * d2
        w, x, y, z = _int_qmul(alg, p1, p2)
        return Quaternion(alg, Fraction(w, den), Fraction(x, den), Fraction(y, den),
                          Fraction(z, den))

    def _numerators(self) -> tuple[int, tuple[int, int, int, int]]:
        """The least common denominator d and the coordinates times d."""
        w, x, y, z = self.w, self.x, self.y, self.z
        d = lcm(w.denominator, x.denominator, y.denominator, z.denominator)
        return d, (w.numerator * (d // w.denominator), x.numerator * (d // x.denominator),
                   y.numerator * (d // y.denominator), z.numerator * (d // z.denominator))

    def __rmul__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q * self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.algebra.one)

    def __truediv__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self * q.inverse()

    # -- structure maps --------------------------------------------------

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.algebra, self.w, -self.x, -self.y, -self.z)

    def norm(self) -> Fraction:
        d, p = self._numerators()
        return Fraction(_int_qform(self.algebra, p, p), self.algebra._norm_weights[0] * d * d)

    def trace(self) -> Fraction:
        return 2 * self.w

    def pure(self) -> "Quaternion":
        """The trace-free part x*i + y*j + z*k."""
        return Quaternion(self.algebra, Fraction(0), self.x, self.y, self.z)

    def inverse(self) -> "Quaternion":
        if self.is_zero:
            raise ZeroDivisionError("cannot invert the zero quaternion")
        n = self.norm()
        if n == 0:
            raise ZeroDivisorError(
                f"{self} has zero norm and no inverse; "
                f"(a, b) = ({self.algebra.a}, {self.algebra.b}) is a split algebra"
            )
        c = self.conjugate()
        return Quaternion(self.algebra, c.w / n, c.x / n, c.y / n, c.z / n)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.w == 0 and self.x == 0 and self.y == 0 and self.z == 0

    @property
    def is_central(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_central and self.w == other
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.algebra == other.algebra and self.coords() == other.coords()

    def __hash__(self):
        return hash((self.algebra, self.coords()))

    def __str__(self) -> str:
        return _format_terms([(v, ("" if u and abs(v) == 1 else str(abs(v))) + u)
                              for v, u in zip(self.coords(), _UNITS) if v])

    __repr__ = __str__


# -- conjugacy classes ---------------------------------------------------


@dataclass(frozen=True)
class CentralClass:
    """The singleton conjugacy class of a central element."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", rational(self.value))

    def __str__(self) -> str:
        return f"central({self.value})"


@dataclass(frozen=True)
class SphereClass:
    """A non-central conjugacy class, determined by its trace and norm.

    Elements q with trace t and norm n share the minimal polynomial
    x^2 - t*x + n, which must be irreducible over the rationals, i.e.
    t^2 - 4n must not be a rational square.
    """

    trace: Fraction
    norm: Fraction

    def __post_init__(self):
        object.__setattr__(self, "trace", rational(self.trace))
        object.__setattr__(self, "norm", rational(self.norm))
        disc = self.trace**2 - 4 * self.norm
        if is_rational_square(disc):
            raise PreconditionError(
                f"trace {self.trace} and norm {self.norm} give discriminant "
                f"{disc}, a rational square; x^2 - t*x + n splits and the "
                "pair is not a non-central conjugacy class"
            )

    def __str__(self) -> str:
        return f"sphere(trace={self.trace}, norm={self.norm})"


ConjClass = Union[CentralClass, SphereClass]


def conjugacy_class(q: Quaternion) -> ConjClass:
    """The conjugacy class of q: central value, or (trace, norm) sphere."""
    if q.is_central:
        return CentralClass(q.w)
    t, n = q.trace(), q.norm()
    if is_rational_square(t**2 - 4 * n):
        # A non-central element with reducible minimal polynomial is a
        # zero-divisor witness; this cannot happen in a division algebra.
        raise ZeroDivisorError(
            f"{q} is non-central but x^2 - {t}x + {n} splits; "
            f"(a, b) = ({q.algebra.a}, {q.algebra.b}) is a split algebra"
        )
    return SphereClass(t, n)


def same_class(p: Quaternion, q: Quaternion) -> bool:
    """True if p and q are conjugate, i.e. share trace and norm."""
    return conjugacy_class(p) == conjugacy_class(q)


def commutes(p: Quaternion, q: Quaternion) -> bool:
    return p * q == q * p


def in_subfield(q: Quaternion, s: Quaternion) -> bool:
    """Membership of q in the quadratic subfield generated by s.

    The centralizer of a non-central element s is exactly the field
    F(s) = F + F*s, so membership reduces to a commutation test.
    """
    if s.is_central:
        raise PreconditionError(
            "subfield membership needs a non-central generator; "
            f"{s} is central"
        )
    return commutes(q, s)


def distinct_conjugates(c: Quaternion, count: int) -> list[Quaternion]:
    """``count`` pairwise distinct conjugates of a non-central element.

    Conjugators are drawn from the family 1 + m*u, m = 1, 2, ..., where
    u is the first basis unit not commuting with c; duplicates (which do
    not arise in a division algebra) are filtered by equality.
    """
    if count < 1:
        raise PreconditionError("count must be at least 1")
    if c.is_central:
        raise PreconditionError(
            f"{c} is central; its conjugacy class is the singleton {{{c}}}"
        )
    alg = c.algebra
    u = next(unit for unit in alg.units() if not commutes(unit, c))
    found: list[Quaternion] = []
    seen: set[Quaternion] = set()
    m = 0
    limit = 64 * count + 16
    while len(found) < count:
        m += 1
        if m > limit:
            raise InvariantViolation(
                f"could not produce {count} distinct conjugates of {c} "
                f"after {limit} attempts"
            )
        g = alg.one + alg.scalar(m) * u
        d = g * c * g.inverse()
        if d not in seen:
            seen.add(d)
            found.append(d)
    return found
