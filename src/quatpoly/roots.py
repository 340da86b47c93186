"""Root classification for quaternion polynomials.

Roots organize by conjugacy class.  Reducing P modulo the minimal
polynomial of a class leaves a linear remainder alpha*x + beta, and the
pair (alpha, beta) decides everything: both zero means the whole class
consists of roots (a *spherical* class), alpha = 0 with beta nonzero
means no root in the class, and invertible alpha pins down the unique
candidate -alpha^{-1} beta (an *isolated* root if it lands in the
class).  The candidate classes come from Beck's split P = c * G * H:
the rational quadratic factors of sqfree(H) are the spherical classes,
and those of sqfree(N(G)) / gcd(., sqfree(H)) the classes holding one
root each.  A p-adic factor search finds them, so classification is
complete and exact, and uses no floats.  Each class is then settled by
two identities of the integer norm form, without Fraction arithmetic.

One counting fact is asserted on every report: central roots plus
isolated roots plus twice the spherical classes number at most deg P
(Pogorui-Shapiro).  It implies that roots occupy at most deg P
conjugacy classes (Gordon-Motzkin) and that at most floor(deg P / 2)
classes are spherical, with equality forcing central (even degree) or
pairwise commuting (odd degree) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import ClassVar, Optional, Union

from . import _linalg
from ._realroots import pair_and_cluster  # noqa: F401  (wrapped by bench/tracing.py)
from .algebra import (
    HAMILTON,
    AlgebraParams,
    CentralClass,
    ConjClass,
    Quaternion,
    SphereClass,
    commutes,
    conjugacy_class,
    distinct_conjugates,
    rational_sqrt,
    _int_qform,
    _int_qmul,
)
from .decompose import _central_roots, _Structure
from .errors import InvariantViolation, PreconditionError, ZeroDivisorError
from .polynomials import (
    CentralPoly, QPoly, _int_divmod, _int_mul, _int_quotient, _primitive, _to_ints)

# -- status and report types -------------------------------------------------


@dataclass(frozen=True)
class SphericalRoots:
    """Every element of the class is a root."""

    kind: ClassVar[str] = "spherical"

    def __str__(self) -> str:
        return "spherical roots (the whole class)"


@dataclass(frozen=True)
class IsolatedRoot:
    """Exactly one root in the class; ``representative`` is it."""

    kind: ClassVar[str] = "isolated"

    representative: Quaternion

    def __str__(self) -> str:
        return f"isolated root {self.representative}"


@dataclass(frozen=True)
class NoRootInClass:
    """No root in the class; (alpha, beta) is the deciding remainder."""

    kind: ClassVar[str] = "no-root"

    alpha: Quaternion
    beta: Quaternion

    def __str__(self) -> str:
        return "no root in this class"


@dataclass(frozen=True)
class UncertainStatus:
    """Float-backend outcome too close to a tolerance to call."""

    kind: ClassVar[str] = "uncertain"

    alpha: object
    beta: object
    reason: str

    def __str__(self) -> str:
        return f"uncertain: {self.reason}"


ClassStatus = Union[SphericalRoots, IsolatedRoot, NoRootInClass, UncertainStatus]


@dataclass(frozen=True)
class RootReport:
    """Classification of all roots of a polynomial.

    ``central_roots`` lists rational roots (exact backend) or floats
    (numeric backend).  ``class_entries`` pairs each candidate
    non-central class with its status.  ``candidate_source`` records the
    provenance of the class list: "exact" (rationalized and certified)
    or "numeric" (float tolerances).
    """

    degree: int
    central_roots: tuple
    class_entries: tuple
    candidate_source: str

    @property
    def spherical_classes(self) -> tuple:
        return tuple(c for c, s in self.class_entries if isinstance(s, SphericalRoots))

    @property
    def isolated_roots(self) -> tuple:
        return tuple(s.representative for _, s in self.class_entries if isinstance(s, IsolatedRoot))

    @property
    def uncertain_entries(self) -> tuple:
        return tuple((c, s) for c, s in self.class_entries if isinstance(s, UncertainStatus))

    @property
    def root_count(self) -> int:
        """Central plus isolated roots plus two per spherical class; at
        most the degree (Pogorui and Shapiro 2004)."""
        return (len(self.central_roots) + len(self.isolated_roots)
                + 2 * len(self.spherical_classes))

    @property
    def classes_with_roots(self) -> int:
        return (
            len(self.central_roots)
            + len(self.spherical_classes)
            + len(self.isolated_roots)
        )


# -- per-class decision ------------------------------------------------------


def _quadratic(cls: SphereClass) -> list[int]:
    """The class quadratic x^2 - t x + n as a primitive integer polynomial."""
    if not isinstance(cls, SphereClass):
        raise PreconditionError(
            "class_remainder needs a non-central class; central candidates "
            "are settled by direct evaluation"
        )
    return _primitive(_to_ints([cls.norm, -cls.trace, Fraction(1)])[0])


def _quat(alg: AlgebraParams, coords: list[int], den: int) -> Quaternion:
    return alg.quat(*[Fraction(c, den) for c in coords])


def class_remainder(poly: QPoly, cls: SphereClass) -> tuple[Quaternion, Quaternion]:
    """The linear remainder (alpha, beta) of P modulo the class quadratic."""
    alpha, beta, den = _class_remainder(_Structure(poly), _quadratic(cls))
    return _quat(poly.algebra, alpha, den), _quat(poly.algebra, beta, den)


def _class_remainder(structure: _Structure, quadratic: list[int]) -> tuple[list, list, int]:
    """(alpha, beta, den): the remainder's coordinates, integers over den."""
    # a central divisor acts on the four coordinates separately; the
    # pseudo-remainder of row m is scale_m * row mod the quadratic
    rems = [_int_divmod(row, quadratic)[1:] for row in structure.rows]
    common = lcm(*[scale for _, scale in rems])
    rems = [[c * (common // scale) for c in rem] + [0] * (2 - len(rem)) for rem, scale in rems]
    return [rem[1] for rem in rems], [rem[0] for rem in rems], common * structure.den


def class_status(poly: QPoly, cls: SphereClass) -> ClassStatus:
    """Decide spherical / isolated / no-root for one conjugacy class."""
    return _class_status(_Structure(poly), _quadratic(cls))


def _class_status(structure: _Structure, quadratic: list[int]) -> ClassStatus:
    """In the class of L x^2 - T x + N the candidate -alpha^-1 beta =
    -conj(alpha) beta / N(alpha), of trace -2 <alpha, beta> / N(alpha) and
    norm N(beta) / N(alpha) for <,> the norm's bilinear form, lies exactly
    when -2 <alpha, beta> L = T N(alpha) and N(beta) L = N N(alpha)."""
    alg = structure.poly.algebra
    alpha, beta, den = _class_remainder(structure, quadratic)
    if not any(alpha) and not any(beta):
        return SphericalRoots()
    if any(alpha):
        norm_alpha = _int_qform(alg, alpha, alpha)
        if norm_alpha == 0:
            _quat(alg, alpha, den).inverse()  # raises ZeroDivisorError
        n, t, lead = quadratic[0], -quadratic[1], quadratic[2]
        if (-2 * _int_qform(alg, alpha, beta) * lead == t * norm_alpha
                and _int_qform(alg, beta, beta) * lead == n * norm_alpha):
            conj = [alpha[0], -alpha[1], -alpha[2], -alpha[3]]
            return IsolatedRoot(_quat(alg, [-c for c in _int_qmul(alg, conj, beta)], norm_alpha))
    return NoRootInClass(_quat(alg, alpha, den), _quat(alg, beta, den))


# -- candidate generation ----------------------------------------------------


def _quadratic_classes(structure: _Structure) -> list[tuple[SphereClass, list[int], bool]]:
    """(class, quadratic, spherical) for each rational quadratic factor
    x^2 - t x + n, as a primitive integer polynomial, of sqfree(H),
    spherical, and of the isolated part, holding one root; sorted by
    (t, n).  Over a definite algebra (a, b < 0) every non-central element
    has t^2 < 4n, so a factor with real roots names no class."""
    definite = structure.poly.algebra.is_definitely_division
    found = [(f, True) for f in structure.central_factors
             if len(f) == 3 and not (definite and f[1] ** 2 > 4 * f[0] * f[2])]
    found += [(f, False) for f in structure.isolated_factors if len(f) == 3]
    return sorted([(SphereClass(Fraction(-f[1], f[2]), Fraction(f[0], f[2])), f, spherical)
                   for f, spherical in found], key=lambda entry: (entry[0].trace, entry[0].norm))


def candidate_classes(poly: QPoly) -> list[ConjClass]:
    """Every class that can hold a root of P, exactly: the central roots,
    then in classify's order the classes of the rational quadratic
    factors of sqfree(H) and of sqfree(N(G)) / gcd(., sqfree(H)) for
    P = c * G * H, found by p-adic factor search."""
    if poly.is_zero:
        raise PreconditionError("the zero polynomial has roots everywhere")
    structure = _Structure(poly)
    return ([CentralClass(r) for r in _central_roots(structure)]
            + [cls for cls, _, _ in _quadratic_classes(structure)])


def _sphere_witness(alg: AlgebraParams, quadratic: list[int]) -> Optional[Quaternion]:
    """T/(2L) + s u in the class of L x^2 - T x + N, for the first unit
    u = i, j, k with s^2 = (4 L N - T^2) / (4 L^2 N(u)) a rational square,
    or None; checked on its trace and norm."""
    n, t, lead = quadratic[0], -quadratic[1], quadratic[2]
    scale = alg._norm_weights[0]
    for m, weight in enumerate(alg._norm_weights[1:], 1):
        # N(u) = weight / scale; num / den is a square iff num * den is
        square = (4 * lead * n - t * t) * weight * scale
        root = isqrt(square) if square >= 0 else -1
        if root * root == square:
            coords = [Fraction(t, 2 * lead), 0, 0, 0]
            coords[m] = Fraction(root, 2 * lead * abs(weight))
            witness = alg.quat(*coords)
            if witness.trace() * lead != t or witness.norm() * lead != n:
                raise InvariantViolation(f"witness {witness} is not a root of {quadratic}")
            return witness
    return None


# -- full classification -----------------------------------------------------


def classify(poly: QPoly) -> RootReport:
    """Exact classification of all roots of P by conjugacy class.

    On the Beck split P = c * G * H, the rational roots of H are the
    central roots, the rational quadratic factors of sqfree(H) the
    spherical classes, and each rational quadratic factor of the
    isolated part a class settled by its linear remainder.  The factors
    come from a p-adic search, so the report is complete and uses no
    floats.  All stages, down to the checks of the count bound, of the
    divisibility of P by the product of spherical class quadratics and
    of every isolated root, run on one integer structure of P.
    """
    if poly.is_zero or poly.degree < 1:
        raise PreconditionError("classification needs a polynomial of degree at least 1")
    structure = _Structure(poly)
    entries: list[tuple[ConjClass, ClassStatus]] = []
    for cls, quadratic, spherical in _quadratic_classes(structure):
        # a factor of H right-divides P, so its class has no remainder;
        # a witness, where one is found, is checked to lie in the class
        if spherical:
            _sphere_witness(poly.algebra, quadratic)
        entries.append((cls, SphericalRoots() if spherical else _class_status(structure, quadratic)))
    report = RootReport(degree=poly.degree, central_roots=tuple(_central_roots(structure)),
                        class_entries=tuple(entries), candidate_source="exact")
    _check_report(structure, report)
    return report


def _check_report(structure: _Structure, report: RootReport):
    if report.root_count > report.degree:
        raise InvariantViolation(
            f"central + isolated + 2 * spherical = {report.root_count} "
            f"exceeds the degree {report.degree}"
        )
    product = [1]
    for cls in report.spherical_classes:
        product = _int_mul(product, _quadratic(cls))
    if any(_int_quotient(row, product) is None for row in structure.rows):
        raise InvariantViolation(
            "product of spherical class quadratics does not right-divide P"
        )
    for root in report.isolated_roots:
        if not structure.evaluate(root).is_zero:
            raise InvariantViolation(f"isolated root {root} fails evaluation")


def spherical_classes(poly: QPoly) -> list[SphereClass]:
    """All conjugacy classes consisting entirely of roots of P."""
    if poly.is_zero or poly.degree < 1:
        raise PreconditionError("need a polynomial of degree at least 1")
    return list(classify(poly.monic()).spherical_classes)


@dataclass(frozen=True)
class SphericalBoundReport:
    """Spherical count against the floor(n/2) bound, with equality data.

    When the bound is attained, even degree forces all coefficients
    central and odd degree forces pairwise commuting coefficients; the
    relevant check result is recorded (None when the bound is strict).
    """

    degree: int
    bound: int
    count: int
    spherical: tuple
    equality_parity: Optional[str]
    coefficients_central: Optional[bool]
    coefficients_commute: Optional[bool]
    report: RootReport


def spherical_bound_report(poly: QPoly) -> SphericalBoundReport:
    """Check the spherical-class count bound and its equality cases."""
    if poly.is_zero or poly.degree < 1:
        raise PreconditionError("need a polynomial of degree at least 1")
    monic = poly.monic()
    report = classify(monic)
    spherical = report.spherical_classes
    degree = monic.degree
    bound = degree // 2
    if len(spherical) > bound:
        raise InvariantViolation(
            f"{len(spherical)} spherical classes exceed the bound {bound}"
        )
    parity = None
    central_flag = None
    commute_flag = None
    if len(spherical) == bound and bound > 0:
        if degree % 2 == 0:
            parity = "even"
            central_flag = monic.coefficients_central()
            if not central_flag:
                raise InvariantViolation(
                    "even-degree equality requires central coefficients"
                )
        else:
            parity = "odd"
            cs = monic.coeffs
            commute_flag = all(
                commutes(cs[m], cs[n])
                for m in range(len(cs))
                for n in range(m + 1, len(cs))
            )
            if not commute_flag:
                raise InvariantViolation(
                    "odd-degree equality requires pairwise commuting coefficients"
                )
    return SphericalBoundReport(
        degree=degree,
        bound=bound,
        count=len(spherical),
        spherical=spherical,
        equality_parity=parity,
        coefficients_central=central_flag,
        coefficients_commute=commute_flag,
        report=report,
    )


@dataclass(frozen=True)
class CommonSubfield:
    """Result of the common-subfield test on coefficients.

    ``central`` means every coefficient is rational (inside every
    subfield); otherwise ``generator`` is a non-central coefficient
    whose quadratic field contains all the others.
    """

    central: bool
    generator: Optional[Quaternion]


def common_subfield(poly: QPoly) -> Optional[CommonSubfield]:
    """A quadratic subfield containing every coefficient, if one exists.

    Returns None when the coefficients do not pairwise commute, i.e. no
    single maximal subfield holds them all.
    """
    noncentral = [c for c in poly.coeffs if not c.is_central]
    if not noncentral:
        return CommonSubfield(central=True, generator=None)
    generator = noncentral[0]
    if all(commutes(c, generator) for c in noncentral[1:]):
        return CommonSubfield(central=False, generator=generator)
    return None


# -- structural analyzers (Hamilton algebra) ---------------------------------


def _require_hamilton(poly: QPoly, what: str):
    if poly.algebra != HAMILTON:
        raise PreconditionError(
            f"{what} relies on every maximal subfield being conjugate, "
            "which holds for the Hamilton algebra (a, b) = (-1, -1); "
            f"got (a, b) = ({poly.algebra.a}, {poly.algebra.b})"
        )


@dataclass(frozen=True)
class SparseAnalysis:
    """Spherical-class bound from the pattern of non-central coefficients.

    Applies to monic P over the Hamilton algebra with at most two
    non-central coefficients, at positions high > low.  Cases:

    - ``lone_noncentral``: exactly one non-central coefficient; no
      spherical classes exist.
    - ``shared_subfield``: two non-central coefficients with the higher
      one equal to r + v * lower (r, v rational); spherical classes are
      among the root classes of ``candidate_factor`` = x^(high-low) + 1/v,
      so at most floor((high-low)/2) of them.
    - ``separate_subfields``: two non-central coefficients generating
      different subfields; no spherical classes exist.
    """

    applicable: bool
    reason: Optional[str]
    case: Optional[str]
    low_position: Optional[int]
    high_position: Optional[int]
    bound: Optional[int]
    candidate_factor: Optional[CentralPoly]
    spherical_found: int
    report: RootReport


def analyze_sparse(poly: QPoly) -> SparseAnalysis:
    """Bound spherical classes of a monic P with few non-central coefficients."""
    _require_hamilton(poly, "the sparse-coefficient analyzer")
    if poly.is_zero or poly.degree < 1:
        raise PreconditionError("need a polynomial of degree at least 1")
    if not poly.is_monic:
        raise PreconditionError("the sparse-coefficient analyzer needs a monic polynomial")
    report = classify(poly)
    found = len(report.spherical_classes)
    positions = [m for m, c in enumerate(poly.coeffs) if not c.is_central]
    if not 0 < len(positions) <= 2:
        return SparseAnalysis(
            applicable=False,
            reason=("more than two non-central coefficients" if positions
                    else "all coefficients are central; no designated pair"),
            case=None, low_position=None, high_position=None,
            bound=None, candidate_factor=None,
            spherical_found=found, report=report,
        )
    if len(positions) == 1:
        case, low, high = "lone_noncentral", positions[0], None
        bound = 0
        factor = None
    else:
        low, high = positions
        low_coeff, high_coeff = poly.coefficient(low), poly.coefficient(high)
        if commutes(high_coeff, low_coeff):
            case = "shared_subfield"
            low_pure, high_pure = low_coeff.pure(), high_coeff.pure()
            ratio = next(
                h / l
                for h, l in zip(high_pure.coords(), low_pure.coords())
                if l != 0
            )
            if high_pure != ratio * low_pure or ratio == 0:
                raise InvariantViolation(
                    f"commuting non-central coefficients {high_coeff}, "
                    f"{low_coeff} do not have parallel pure parts"
                )
            bound = (high - low) // 2
            factor = CentralPoly.monomial(1, high - low) + CentralPoly((1 / ratio,))
        else:
            case = "separate_subfields"
            bound = 0
            factor = None
    if found > bound:
        raise InvariantViolation(
            f"sparse case {case} promises at most {bound} spherical classes, "
            f"but classification found {found}"
        )
    return SparseAnalysis(
        applicable=True, reason=None, case=case,
        low_position=low, high_position=high,
        bound=bound, candidate_factor=factor,
        spherical_found=found, report=report,
    )


@dataclass(frozen=True)
class CubicAnalysis:
    """Structural spherical bound for a monic cubic over Hamilton.

    ``case`` names the pattern of non-central coefficients among those
    of x^2, x, 1 and whether they share a quadratic subfield; ``bound``
    is the most spherical classes that pattern allows.  A sphere (t, n)
    of roots makes x^2 - t x + n a central factor, so at most one sphere
    fits a cubic, and then
    P = (x - r)(x^2 - t x + n) = x^3 - (t + r) x^2 + (n + t r) x - n r.
    If r is central, every coefficient is; if not, the x^2 and constant
    coefficients are non-central (n != 0) and all three lie in F(r).
    The bound is therefore 1 for ``all_central``,
    ``outer_pair_in_subfield`` and ``all_in_subfield``, and 0 for every
    other case, including ``single_noncentral`` with all coefficients
    in one subfield.
    """

    case: str
    bound: int
    spherical_found: int
    report: RootReport


#: (case, bound) by whether the coefficients of x^2, x, 1 are non-central,
#: when the non-central ones share a quadratic subfield
_CUBIC_CASES = {
    (False, False, False): ("all_central", 1),
    (True, False, False): ("single_noncentral", 0),
    (False, True, False): ("single_noncentral", 0),
    (False, False, True): ("single_noncentral", 0),
    (True, False, True): ("outer_pair_in_subfield", 1),
    (False, True, True): ("lower_pair_in_subfield", 0),
    (True, True, False): ("upper_pair_in_subfield", 0),
    (True, True, True): ("all_in_subfield", 1),
}


def classify_cubic(poly: QPoly) -> CubicAnalysis:
    """Case analysis of spherical classes for monic cubics."""
    _require_hamilton(poly, "the cubic analyzer")
    if poly.degree != 3:
        raise PreconditionError("the cubic analyzer needs degree exactly 3")
    if not poly.is_monic:
        raise PreconditionError("the cubic analyzer needs a monic polynomial")
    coeffs = poly.coeffs[2::-1]  # those of x^2, x, 1
    pattern = tuple(not c.is_central for c in coeffs)
    noncentral = [c for c in coeffs if not c.is_central]
    # the centralizer of a non-central element is a field, so the
    # non-central coefficients share a subfield when all commute with one
    if all(commutes(c, noncentral[0]) for c in noncentral[1:]):
        case, bound = _CUBIC_CASES[pattern]
    else:
        case, bound = "no_common_subfield", 0
    report = classify(poly)
    found = len(report.spherical_classes)
    if found > bound:
        raise InvariantViolation(
            f"cubic case {case} promises at most {bound} spherical classes, "
            f"but classification found {found}"
        )
    return CubicAnalysis(case=case, bound=bound, spherical_found=found, report=report)


# -- roots inside a quadratic subfield ----------------------------------------


def roots_in_subfield(poly: QPoly, s: Quaternion) -> list[Quaternion]:
    """All roots of P lying in the quadratic subfield F(s), exactly.

    Central roots always qualify; isolated roots qualify when they
    commute with s; a spherical class with trace t and norm n meets
    F(s) in the pair t/2 +- beta * pure(s) with beta^2 = (n - t^2/4) /
    N(pure(s)), contributing exactly when that beta is rational.
    """
    if s.is_central:
        raise PreconditionError(f"{s} is central and generates no quadratic subfield")
    if s.algebra != poly.algebra:
        raise PreconditionError("subfield generator from a different algebra")
    alg = poly.algebra
    report = classify(poly)
    out: list[Quaternion] = [alg.scalar(r) for r in report.central_roots]
    pure = s.pure()
    pure_norm = pure.norm()
    for cls, status in report.class_entries:
        if isinstance(status, IsolatedRoot) and commutes(status.representative, s):
            out.append(status.representative)
        elif isinstance(status, SphericalRoots) and isinstance(cls, SphereClass):
            if pure_norm == 0:
                raise ZeroDivisorError(
                    f"pure part of {s} has zero norm; the algebra is split"
                )
            half_trace = cls.trace / 2
            beta = rational_sqrt((cls.norm - half_trace**2) / pure_norm)
            if beta is not None:
                for sign in (1, -1):
                    root = alg.scalar(half_trace) + (sign * beta) * pure
                    if not poly.evaluate(root).is_zero:
                        raise InvariantViolation(
                            f"spherical element {root} fails evaluation"
                        )
                    out.append(root)
    return list(dict.fromkeys(out))


# -- non-root conjugates -------------------------------------------------------


def conjugation_root_kernel(poly: QPoly, c: Quaternion) -> list[Quaternion]:
    """Basis of the kernel of y -> sum a_m y c^m as a rational 4x4 map.

    The nonzero kernel vectors y are exactly those with P(y c y^{-1}) = 0,
    so the kernel collects the conjugators moving c onto roots of P.  It
    is a right vector space over the field F(c), hence has even rational
    dimension (0, 2, or 4).
    """
    if c.algebra != poly.algebra:
        raise PreconditionError("conjugation point from a different algebra")
    alg = poly.algebra
    images = []
    for e in (alg.one, alg.i, alg.j, alg.k):
        power = alg.one
        total = alg.zero
        for coeff in poly.coeffs:
            total = total + coeff * (e * power)
            power = power * c
        images.append(total)
    matrix = [[images[col].coords()[row] for col in range(4)] for row in range(4)]
    return [alg.quat(*vec) for vec in _linalg.kernel_basis(matrix)]


def nonroot_conjugates(poly: QPoly, c: Quaternion, count: int) -> list[Quaternion]:
    """``count`` distinct conjugates of c at which P does not vanish.

    Requires c non-central with P(c) != 0.  If the conjugation kernel is
    trivial, no conjugate of c is a root and any distinct conjugates
    serve.  Otherwise, for kernel elements y the conjugates
    (1 + y) c (1 + y)^{-1} avoid the roots, and distinct y give distinct
    conjugates; scalar multiples of one kernel basis vector supply them.
    """
    if count < 1:
        raise PreconditionError("count must be at least 1")
    if c.is_central:
        raise PreconditionError(f"{c} is central; it has no proper conjugates")
    if poly.evaluate(c).is_zero:
        raise PreconditionError(f"{c} is itself a root; pick a non-root base point")
    kernel = conjugation_root_kernel(poly, c)
    if not kernel:
        found = distinct_conjugates(c, count)
    else:
        seed = kernel[0]
        found = []
        for m in range(1, count + 1):
            g = c.algebra.one + c.algebra.scalar(m) * seed
            found.append(g * c * g.inverse())
    if len(set(found)) != count:
        raise InvariantViolation("constructed conjugates are not distinct")
    for d in found:
        if poly.evaluate(d).is_zero:
            raise InvariantViolation(f"constructed conjugate {d} is a root")
        if conjugacy_class(d) != conjugacy_class(c):
            raise InvariantViolation(f"{d} left the conjugacy class of {c}")
    return found
