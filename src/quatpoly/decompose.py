"""Coordinate expansions and the central-factor decomposition.

Writing a quaternion polynomial P along the basis 1, i, j, k gives four
rational coordinate polynomials; a monic central polynomial h
right-divides P exactly when h divides all four coordinates.  Their
greatest common divisor H is therefore the maximal central right
divisor, and P factors as

    P = c * G * H

with c the leading coefficient and G monic with no nonconstant central
right divisor (Beck's decomposition).  Central (rational) roots of P
are exactly the rational roots of H; they are found by p-adic lifting
on the square-free part of H, which factors no integer.

The same expansion relative to a quadratic subfield F(s) writes
P = b1 + u*b2 with b1, b2 over F(s); their gcd collects every root of P
lying in F(s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import isqrt

from . import _linalg
from .algebra import AlgebraParams, Quaternion, commutes
from .errors import InvariantViolation, PreconditionError
from .polynomials import (
    CentralPoly, QPoly, _central_from_ints, _int_coords, _int_gcd, _int_norm_form, _int_quotient,
    _int_squarefree, _monic_from_ints, _primitive, _squarefree_prs, _to_ints, gcrd)


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


class _Structure:
    """P's integer coordinates and what classification derives from them.

    ``rows`` are the four coordinate polynomials of P as trimmed integer
    lists over the common denominator ``den``.  The Beck step, the
    companion and its square-free part are computed from them on first
    use, so every stage of one classification shares one conversion out
    of ``Fraction``.
    """

    def __init__(self, poly: QPoly):
        self.poly = poly
        self.rows, self.den = _int_coords(poly)

    @cached_property
    def beck(self) -> tuple[list[int], list[list[int]]]:
        """(H, quotients): H is the coordinate gcd as a primitive integer
        polynomial and rows[m] = quotients[m] * H.

        Both Beck conditions are checked: H divides every row exactly,
        and the quotients have a constant gcd, so H is maximal.
        """
        if not any(self.rows):
            raise PreconditionError("cannot decompose the zero polynomial")
        central = _int_gcd(self.rows)
        quotients = [_int_quotient(row, central) for row in self.rows]
        if None in quotients:
            raise InvariantViolation(
                f"coordinate gcd {_monic_from_ints(central)} does not right-divide the polynomial"
            )
        if len(_int_gcd(quotients)) != 1:
            raise InvariantViolation(
                f"P / ({_monic_from_ints(central)}) still has a central right divisor"
            )
        return central, quotients

    @cached_property
    def central(self) -> CentralPoly:
        """H, the monic maximal central right divisor."""
        return _monic_from_ints(self.beck[0])

    @cached_property
    def companion(self) -> list[int]:
        """The companion P * conj(P) as a primitive integer polynomial."""
        return _primitive(_int_norm_form(self.rows, self.poly.algebra)[0])

    @cached_property
    def companion_squarefree(self) -> list[int]:
        """Primitive square-free part of the companion.

        A nonconstant H puts H^2 into the companion, so the modular
        certificate cannot pass and is not tried.
        """
        if len(self.beck[0]) == 1:
            return _int_squarefree(self.companion)
        return _squarefree_prs(self.companion)

    @cached_property
    def central_squarefree(self) -> list[int]:
        """Primitive square-free part of H: its real roots are P's central
        roots and its other roots pair into P's spherical classes."""
        return _int_squarefree(self.beck[0])

    @cached_property
    def isolated_part(self) -> list[int]:
        """sqfree(N(G)) / gcd(., sqfree(H)) for P = c * G * H, primitive.

        N(G) has no real root, and over a division algebra each class of
        its roots holds exactly one root of G; where H does not vanish on
        the class, P(q) = c G(q) H(q) makes that the one root of P there.
        """
        # the quotient rows are those of c * G, whose norm is N(c) N(G)
        part = _int_squarefree(_primitive(_int_norm_form(self.beck[1], self.poly.algebra)[0]))
        common = _int_gcd([part, self.central_squarefree])
        return part if len(common) == 1 else _int_quotient(part, common)


def beck_decompose(poly: QPoly) -> BeckFactorization:
    """Factor P = c * G * H with H the maximal central right divisor.

    Requires P nonzero and an invertible leading coefficient.  The
    quotient G is monic and its own coordinate gcd is 1, so repeating
    the decomposition on c * G returns a trivial central part.
    """
    if poly.is_zero:
        raise PreconditionError("cannot decompose the zero polynomial")
    structure = _Structure(poly.monic())
    central, quotients = structure.beck
    # row / den = (quotient * lead / den) * (central / lead), lead = central[-1]
    reduced = CenterCoords(poly.algebra, *(
        _central_from_ints([central[-1] * c for c in quotient], structure.den)
        for quotient in quotients)).recombine()
    return BeckFactorization(poly.leading, reduced, structure.central)


def max_central_right_divisor(poly: QPoly) -> CentralPoly:
    """The monic central polynomial of largest degree right-dividing P."""
    return _Structure(poly).central


def _eval_mod(ints: list[int], point: int, modulus: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = (acc * point + c) % modulus
    return acc


def rational_roots(poly: CentralPoly) -> list[Fraction]:
    """All rational roots of a nonzero rational polynomial, sorted.

    p-adic rational-zero algorithm (Loos 1983); no integer is factored.
    After stripping powers of x, let f be the primitive integer form of
    the square-free part, of degree n with leading coefficient L.  Its
    rational roots are y/L for the integer roots y of the monic
    g(y) = L^(n-1) f(y/L), and each such y divides g(0) != 0.  At the
    smallest prime p > n where every root of g mod p is simple (only the
    primes dividing the discriminant of the square-free g fail, so more
    failures than that discriminant can have prime factors raise
    :class:`InvariantViolation`), Newton's
    iteration lifts each root mod p to a modulus M = p^(2^k) > 2|g(0)|;
    the symmetric residue y is kept when y/L is a root of the input,
    confirmed by exact evaluation.

    Complete: an integer root y of g is a simple root mod p, whose lift
    to each power of p is unique, and |y| <= |g(0)| < M/2, so y is the
    symmetric residue of one lift.
    """
    if poly.is_zero:
        raise PreconditionError("every rational is a root of the zero polynomial")
    coeffs = list(poly.coeffs)
    roots: set[Fraction] = set()
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    if len(coeffs) > 1:
        f = _int_squarefree(_primitive(_to_ints(coeffs)[0]))
        n, lead = len(f) - 1, f[-1]
        g = [c * lead ** (n - 1 - k) for k, c in enumerate(f[:-1])] + [1]
        dg = [k * c for k, c in enumerate(g)][1:]
        # a failing prime divides disc(g), which for a square-free g is a
        # nonzero integer of at most n^n |g|_2^(2n-2) (Mahler), so of
        # fewer distinct prime factors than this bound has bits
        failures = n * n.bit_length() + (n - 1) * sum(c * c for c in g).bit_length()
        p = n
        while True:
            p = next(q for q in count(p + 1) if all(q % d for d in range(2, isqrt(q) + 1)))
            lifts = [r for r in range(p) if _eval_mod(g, r, p) == 0]
            if all(_eval_mod(dg, r, p) for r in lifts):
                break
            failures -= 1
            if failures < 0:
                raise InvariantViolation(
                    f"no prime separates the roots of {g}: the square-free step left a repeat")
        modulus = p
        while modulus <= 2 * abs(g[0]):
            modulus *= modulus
            lifts = [(r - _eval_mod(g, r, modulus) * pow(_eval_mod(dg, r, modulus), -1, modulus))
                     % modulus for r in lifts]
        for r in lifts:
            cand = Fraction(r - modulus if 2 * r > modulus else r, lead)
            if poly.evaluate(cand) == 0:
                roots.add(cand)
    return sorted(roots)


def roots_in_center(poly: QPoly) -> list[Fraction]:
    """All central (rational) roots of P, sorted.

    These are exactly the rational roots of the maximal central right
    divisor; each one is re-verified by right evaluation, which at a
    central point evaluates the four coordinates.
    """
    return _central_roots(_Structure(poly)) if not poly.is_zero else []


def _central_roots(structure: _Structure) -> list[Fraction]:
    found = rational_roots(structure.central)
    for root in found:
        # each coordinate vanishes at the root: x - root divides its row
        linear = [-root.numerator, root.denominator]
        if any(_int_quotient(row, linear) is None for row in structure.rows):
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
