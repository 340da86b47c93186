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
from itertools import combinations, count
from math import isqrt, lcm

from . import _linalg
from .algebra import AlgebraParams, Quaternion, commutes
from .errors import InvariantViolation, PreconditionError
from .polynomials import (
    _CERT_PRIME, CentralPoly, QPoly, _central_from_ints, _coprime_mod, _derivative, _divmod_mod,
    _gcd_mod, _int_coords, _int_gcd, _int_norm_form, _int_quotient, _int_squarefree,
    _monic_from_ints, _pow_mod, _primitive, _split_mod, _to_ints, _trim, gcrd)


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
    lists over the common denominator ``den``.  The Beck step, the two
    square-free parts of the split and their rational factors are
    computed from them on first use, so every stage of one
    classification shares one conversion out of ``Fraction``.
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
        Coprimality mod a prime p not dividing lc(part) skips the gcd: a
        common primitive factor keeps its degree mod p, dividing both.
        """
        # the quotient rows are those of c * G, whose norm is N(c) N(G)
        part = _int_squarefree(_primitive(_int_norm_form(self.beck[1], self.poly.algebra)[0]))
        if part[-1] % _CERT_PRIME and _coprime_mod(part, self.central_squarefree, _CERT_PRIME):
            return part
        common = _int_gcd([part, self.central_squarefree])
        return part if len(common) == 1 else _int_quotient(part, common)

    @cached_property
    def central_factors(self) -> list[list[int]]:
        """The rational factors of degree 1 and 2 of sqfree(H)."""
        return _padic_factors(self.central_squarefree, 2)

    @cached_property
    def isolated_factors(self) -> list[list[int]]:
        """The rational factors of degree 1 and 2 of the isolated part."""
        return _padic_factors(self.isolated_part, 2)

    def evaluate(self, q: Quaternion) -> Quaternion:
        """P(q) = sum_m e_m P_m(q) over the basis e = 1, i, j, k.  Each
        P_m(q) lies in Q(q): for q = (W + u) / D, with D making W, the pure
        u's coordinates and s = u^2 integers, D^(n-1) P_m(q) = a_m + b_m u
        by Horner's rule in Z[u]/(u^2 - s) on the rows padded to length n.
        """
        alg, pure = self.poly.algebra, q.pure()
        scale = lcm(*[c.denominator for c in q.coords()])
        scale *= (scale * scale * pure.norm()).denominator
        w, s = int(q.w * scale), int(-pure.norm() * scale * scale)
        n = max(map(len, self.rows))
        alphas, betas = [], []
        for row in self.rows:
            a = b = 0
            power = 1
            for c in reversed(row + [0] * (n - len(row))):
                a, b = a * w + b * s + c * power, a + b * w
                power *= scale
            alphas.append(a)
            betas.append(b)
        u = alg.quat(0, *(c * scale for c in pure.coords()[1:]))
        value = alg.quat(*alphas) + alg.quat(*betas) * u
        return value * Fraction(1, self.den * scale ** (n - 1))


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


def _ring_eval(poly: list[int], z: tuple, modulus: int) -> tuple[int, int]:
    """poly(a + b theta) mod modulus in the ring where theta^2 = c theta + e,
    for z = (a, b, c, e); the result is its (constant, theta) pair."""
    a, b, c, e = z
    u = v = 0
    for coeff in reversed(poly):
        t = v * b
        u, v = (u * a + t * e + coeff) % modulus, (u * b + v * a + t * c) % modulus
    return u, v


def _newton(g: list[int], dg: list[int], z: tuple, modulus: int) -> tuple:
    """One Newton step z - g(z) / g'(z) mod modulus.  The conjugate of
    x + y theta is x + y c - y theta; their product is x^2 + x y c - y^2 e."""
    a, b, c, e = z
    (gu, gv), (du, dv) = _ring_eval(g, z, modulus), _ring_eval(dg, z, modulus)
    cu, inv = du + dv * c, pow(du * du + du * dv * c - dv * dv * e, -1, modulus)
    return ((a - (gu * cu - gv * dv * e) * inv) % modulus,
            (b - (gv * cu - gu * dv - gv * dv * c) * inv) % modulus, c, e)


def _padic_factors(f: list[int], max_degree: int) -> list[list[int]]:
    """The irreducible rational factors of degree <= max_degree (1 or 2)
    of a square-free primitive integer polynomial f, made primitive.

    p-adic search (Loos 1983; Cantor and Zassenhaus 1981) that factors no
    integer and uses no float.  With n = deg f and L = lc(f), f's factors
    are those of the monic g(y) = L^(n-1) f(y/L).  At the smallest odd
    prime p with g mod p square-free, gcd(g, y^p - y) holds the linear
    factors of g mod p and gcd(g, y^(p^2) - y) over it the irreducible
    quadratics, which Cantor-Zassenhaus splits.  Newton lifts each root
    to Z/M and each quadratic's root theta to (Z/M)[theta]/(theta^2 -
    c theta - e), for M = p^(2^j) > 2 max_degree rho^max_degree with rho
    a power-of-two Fujiwara bound on g's roots.  The candidates are the
    symmetric residues of each lifted root, of trace and norm of each
    lifted theta (its conjugate is c - theta), and of sum and product of
    each pair of irrational lifted roots; each is kept when it divides f.

    Complete: a monic integer factor h of g of degree k <= 2 stays
    square-free mod p, so mod p it is one linear or irreducible quadratic
    factor, or two linear ones.  Its roots are the unique lifts of their
    residues, and its coefficients, at most rho, 2 rho and rho^2, lie
    below M/2, so they are the symmetric residues of a candidate.
    """
    n, lead = len(f) - 1, f[-1]
    if n < 1:
        return []
    g = [c * lead ** (n - 1 - k) for k, c in enumerate(f[:-1])] + [1]
    dg = _derivative(g)
    # a failing prime divides disc(g), which for a square-free g is a
    # nonzero integer of at most n^n |g|_2^(2n-2) (Mahler), so of fewer
    # distinct prime factors than this bound has bits; more raise
    failures = n * n.bit_length() + (n - 1) * sum(c * c for c in g).bit_length()
    p = 2
    while True:
        p = next(q for q in count(p + 1) if all(q % d for d in range(2, isqrt(q) + 1)))
        if _coprime_mod(g, dg, p):
            break
        failures -= 1
        if failures < 0:
            raise InvariantViolation(
                f"no prime separates the roots of {g}: the square-free step left a repeat")
    # |root| <= 2 max_k |g_(n-k)|^(1/k) (Fujiwara), rounded up to rho = 2^j
    rho = 2 << max(-(-abs(c).bit_length() // (n - k)) for k, c in enumerate(g[:-1]))
    modp = [c % p for c in g]

    def minus_x(h: list[int]) -> list[int]:
        h = h + [0] * (2 - len(h))
        h[1] = (h[1] - 1) % p
        return _trim(h)

    frobenius = _pow_mod([0, 1], p, modp, p)
    linear = _gcd_mod(modp, minus_x(frobenius), p)
    lifts = [(-r % p, 0, 0, 0) for r, _ in _split_mod(linear, 1, p)]
    if max_degree > 1:
        both = _gcd_mod(modp, minus_x(_pow_mod(frobenius, p, modp, p)), p)
        quadratics = _split_mod(_divmod_mod(both, linear, p)[0], 2, p)
        lifts += [(0, 1, -c1 % p, -c0 % p) for c0, c1, _ in quadratics]
    modulus = p
    while modulus <= 2 * max_degree * rho**max_degree:
        modulus *= modulus
        lifts = [_newton(g, dg, z, modulus) for z in lifts]

    def residue(v: int) -> int:
        v %= modulus
        return v - modulus if 2 * v > modulus else v

    found, irrational = [], []
    for a, b, c, e in lifts:
        if b:
            continue
        y = residue(a)
        factor = _primitive([-y, lead])
        if abs(y) <= rho and _int_quotient(f, factor) is not None:
            found.append(factor)
        else:
            irrational.append(a)
    if max_degree > 1:
        pairs = [(r + s, r * s) for r, s in combinations(irrational, 2)]
        pairs += [(2 * a + b * c, a * a + a * b * c - b * b * e) for a, b, c, e in lifts if b]
        for trace, norm in pairs:
            trace, norm = residue(trace), residue(norm)
            factor = _primitive([norm, -trace * lead, lead * lead])
            if (abs(trace) <= 2 * rho and abs(norm) <= rho * rho
                    and _int_quotient(f, factor) is not None):
                found.append(factor)
    return found


def rational_roots(poly: CentralPoly) -> list[Fraction]:
    """All rational roots of a nonzero rational polynomial, sorted: the
    linear factors of its square-free part (see ``_padic_factors``)."""
    if poly.is_zero:
        raise PreconditionError("every rational is a root of the zero polynomial")
    f = _int_squarefree(_primitive(_to_ints(poly.coeffs)[0]))
    return sorted(Fraction(-c0, c1) for c0, c1 in _padic_factors(f, 1))


def roots_in_center(poly: QPoly) -> list[Fraction]:
    """All central (rational) roots of P, sorted.

    These are exactly the rational roots of the maximal central right
    divisor; each one is re-verified by right evaluation, which at a
    central point evaluates the four coordinates.
    """
    return _central_roots(_Structure(poly)) if not poly.is_zero else []


def _central_roots(structure: _Structure) -> list[Fraction]:
    found = sorted(Fraction(-f[0], f[1]) for f in structure.central_factors if len(f) == 2)
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
