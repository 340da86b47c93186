"""Coordinate expansions and the central-factor decomposition.

Writing a quaternion polynomial P along the basis 1, i, j, k gives four
rational coordinate polynomials; a monic central polynomial h
right-divides P exactly when h divides all four coordinates.  Their
greatest common divisor H is therefore the maximal central right
divisor, and P factors as

    P = c * G * H

with c the leading coefficient and G monic with no nonconstant central
right divisor (Beck's decomposition).  Central (rational) roots of P
are exactly the rational roots of H.

The same expansion relative to a quadratic subfield F(s) writes
P = b1 + u*b2 with b1, b2 over F(s); their gcd collects every root of P
lying in F(s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import _linalg
from .algebra import AlgebraParams, Quaternion, commutes
from .errors import InvariantViolation, PreconditionError
from .polynomials import CentralPoly, QPoly, _primitive, _to_ints, central_gcd, gcrd


@dataclass(frozen=True)
class CenterCoords:
    """Coordinates of a polynomial along the basis 1, i, j, k."""

    algebra: AlgebraParams
    scalar_part: CentralPoly
    i_part: CentralPoly
    j_part: CentralPoly
    k_part: CentralPoly

    def parts(self) -> tuple[CentralPoly, CentralPoly, CentralPoly, CentralPoly]:
        return (self.scalar_part, self.i_part, self.j_part, self.k_part)

    def recombine(self) -> QPoly:
        alg, parts = self.algebra, self.parts()
        length = max(len(part.coeffs) for part in parts)
        return QPoly(alg, (alg.quat(*[part.coefficient(m) for part in parts])
                           for m in range(length)))


@dataclass(frozen=True)
class SubfieldCoords:
    """Expansion P = aligned + unit * transverse over the subfield F(s).

    ``aligned`` and ``transverse`` have coefficients inside F(generator),
    represented as ordinary quaternions that commute with the generator.
    """

    generator: Quaternion
    unit: Quaternion
    aligned: QPoly
    transverse: QPoly

    def recombine(self) -> QPoly:
        return self.aligned + QPoly.constant(self.unit) * self.transverse


@dataclass(frozen=True)
class BeckFactorization:
    """The decomposition P = leading * reduced * central.

    ``reduced`` is monic with trivial central right divisor; ``central``
    is the monic maximal central right divisor of P.
    """

    leading: Quaternion
    reduced: QPoly
    central: CentralPoly

    def recombine(self) -> QPoly:
        return QPoly.constant(self.leading) * self.reduced * self.central.lift(self.leading.algebra)


def center_coordinates(poly: QPoly) -> CenterCoords:
    """Split a polynomial into its four rational coordinate polynomials."""
    rows: list[list[Fraction]] = [[], [], [], []]
    for c in poly.coeffs:
        for slot, value in zip(rows, c.coords()):
            slot.append(value)
    parts = tuple(CentralPoly(r) for r in rows)
    return CenterCoords(poly.algebra, *parts)


def _coordinate_gcd(poly: QPoly) -> CentralPoly:
    g = CentralPoly()
    for part in center_coordinates(poly).parts():
        if part.is_zero and g.is_zero:
            continue
        g = central_gcd(g, part)
    return g


def beck_decompose(poly: QPoly) -> BeckFactorization:
    """Factor P = c * G * H with H the maximal central right divisor.

    Requires P nonzero and an invertible leading coefficient.  The
    quotient G is monic and its own coordinate gcd is 1, so repeating
    the decomposition on c * G returns a trivial central part.
    """
    if poly.is_zero:
        raise PreconditionError("cannot decompose the zero polynomial")
    lead = poly.leading
    central = _coordinate_gcd(poly)
    quotients = []
    for part in center_coordinates(poly.monic()).parts():
        quotient, rem = divmod(part, central)
        if not rem.is_zero:
            raise InvariantViolation(
                f"coordinate gcd {central} does not right-divide the polynomial"
            )
        quotients.append(quotient)
    reduced = CenterCoords(poly.algebra, *quotients).recombine()
    if _coordinate_gcd(reduced).degree != 0:
        raise InvariantViolation(
            f"quotient {reduced} still has a central right divisor"
        )
    return BeckFactorization(lead, reduced, central)


def max_central_right_divisor(poly: QPoly) -> CentralPoly:
    """The monic central polynomial of largest degree right-dividing P."""
    return beck_decompose(poly).central


def _divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, sorted, from its factorization.

    Trial division divides each prime out as it is found, so the search
    stops at the square root of the remaining cofactor.
    """
    out = [1]
    d = 2
    while d * d <= n:
        if n % d == 0:
            power = 0
            while n % d == 0:
                n //= d
                power += 1
            out = [x * d**e for x in out for e in range(power + 1)]
        d += 1 if d == 2 else 2
    if n > 1:
        out += [x * n for x in out]
    return sorted(out)


def rational_roots(poly: CentralPoly) -> list[Fraction]:
    """All rational roots of a nonzero rational polynomial, sorted.

    Classical rational-root sieve: after clearing denominators and
    stripping powers of x, candidate roots p/q run over divisors of the
    constant and leading coefficients; each candidate is confirmed by
    exact evaluation.
    """
    if poly.is_zero:
        raise PreconditionError("every rational is a root of the zero polynomial")
    coeffs = list(poly.coeffs)
    roots: set[Fraction] = set()
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    if len(coeffs) > 1:
        ints = _primitive(_to_ints(coeffs)[0])
        denominators = _divisors(abs(ints[-1]))
        for p in _divisors(abs(ints[0])):
            for q in denominators:
                if gcd(p, q) != 1:
                    continue
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if poly.evaluate(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def roots_in_center(poly: QPoly) -> list[Fraction]:
    """All central (rational) roots of P, sorted.

    These are exactly the rational roots of the maximal central right
    divisor; each one is re-verified by right evaluation, which at a
    central point evaluates the four coordinates.
    """
    found = rational_roots(max_central_right_divisor(poly)) if not poly.is_zero else []
    parts = center_coordinates(poly).parts()
    for root in found:
        if any(part.evaluate(root) for part in parts):
            raise InvariantViolation(f"central candidate {root} fails evaluation")
    return found


def transverse_unit_for(s: Quaternion) -> Quaternion:
    """A basis unit u with u outside F(s), making 1, s, u, u*s a basis."""
    if s.is_central:
        raise PreconditionError(f"{s} is central and generates no quadratic subfield")
    return next(u for u in s.algebra.units() if not commutes(u, s))


def subfield_coordinates(poly: QPoly, s: Quaternion, u: Quaternion | None = None) -> SubfieldCoords:
    """Expand P = b1 + u*b2 with b1, b2 over the subfield F(s).

    ``u`` defaults to the first basis unit outside F(s); the four
    elements 1, s, u, u*s must be linearly independent over the
    rationals, which is checked exactly.
    """
    if s.is_central:
        raise PreconditionError(f"{s} is central and generates no quadratic subfield")
    if s.algebra != poly.algebra:
        raise PreconditionError("subfield generator from a different algebra")
    if u is None:
        u = transverse_unit_for(s)
    alg = poly.algebra
    basis = (alg.one, s, u, u * s)
    columns = [list(q.coords()) for q in basis]
    matrix = [[columns[c][r] for c in range(4)] for r in range(4)]
    if _linalg.rank(matrix) != 4:
        raise PreconditionError(
            f"1, {s}, {u}, {u * s} are linearly dependent; pick a unit outside F(s)"
        )
    aligned: list[Quaternion] = []
    transverse: list[Quaternion] = []
    for coeff in poly.coeffs:
        sol = _linalg.solve(matrix, list(coeff.coords()))
        if sol is None:
            raise InvariantViolation("full-rank basis failed to solve")
        a1, a2, b1, b2 = sol
        aligned.append(alg.scalar(a1) + alg.scalar(a2) * s)
        transverse.append(alg.scalar(b1) + alg.scalar(b2) * s)
    return SubfieldCoords(s, u, QPoly(alg, aligned), QPoly(alg, transverse))


def subfield_gcd(coords: SubfieldCoords) -> QPoly:
    """Monic gcd of the two subfield coordinates of P.

    Both coordinate polynomials live over the commutative field F(s),
    so the right Euclidean algorithm computes their ordinary gcd.  Every
    root of P lying in F(s) is a root of this gcd.
    """
    if coords.aligned.is_zero and coords.transverse.is_zero:
        raise PreconditionError("both subfield coordinates are zero")
    result = gcrd(coords.aligned, coords.transverse)
    for c in result.coeffs:
        if not commutes(c, coords.generator):
            raise InvariantViolation(
                f"gcd coefficient {c} left the subfield F({coords.generator})"
            )
    return result
