"""Root classification for quaternion polynomials.

Roots organize by conjugacy class.  Reducing P modulo the minimal
polynomial of a class leaves a linear remainder alpha*x + beta, and the
pair (alpha, beta) decides everything: both zero means the whole class
consists of roots (a *spherical* class), alpha = 0 with beta nonzero
means no root in the class, and invertible alpha pins down the unique
candidate -alpha^{-1} beta (an *isolated* root if it lands in the
class).  Since roots can only live in classes whose minimal polynomial
divides the central companion polynomial P * conj(P), the candidate
classes are recovered from numeric companion roots, rationalized, and
verified exactly; classification is then exact arithmetic.

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
from typing import ClassVar, Optional, Union

from . import _linalg
from ._realroots import pair_and_cluster, real_poly_roots
from .algebra import (
    HAMILTON,
    CentralClass,
    ConjClass,
    Quaternion,
    SphereClass,
    commutes,
    conjugacy_class,
    distinct_conjugates,
    is_rational_square,
    rational_sqrt,
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


def _quadratic(trace: Fraction, norm: Fraction) -> list[int]:
    """x^2 - trace x + norm as a primitive integer polynomial."""
    return _primitive(_to_ints([norm, -trace, Fraction(1)])[0])


def class_remainder(poly: QPoly, cls: SphereClass) -> tuple[Quaternion, Quaternion]:
    """The linear remainder (alpha, beta) of P modulo the class quadratic."""
    return _class_remainder(_Structure(poly), cls)


def _class_remainder(structure: _Structure, cls: SphereClass) -> tuple[Quaternion, Quaternion]:
    if not isinstance(cls, SphereClass):
        raise PreconditionError(
            "class_remainder needs a non-central class; central candidates "
            "are settled by direct evaluation"
        )
    # a central divisor acts on the four coordinates separately; the
    # pseudo-remainder of row m is scale * row mod the quadratic
    quadratic = _quadratic(cls.trace, cls.norm)
    alpha, beta = [], []
    for row in structure.rows:
        _, rem, scale = _int_divmod(row, quadratic)
        rem = rem + [0] * (2 - len(rem))
        alpha.append(Fraction(rem[1], scale * structure.den))
        beta.append(Fraction(rem[0], scale * structure.den))
    alg = structure.poly.algebra
    return alg.quat(*alpha), alg.quat(*beta)


def class_status(poly: QPoly, cls: SphereClass) -> ClassStatus:
    """Decide spherical / isolated / no-root for one conjugacy class."""
    return _class_status(_Structure(poly), cls)


def _class_status(structure: _Structure, cls: SphereClass) -> ClassStatus:
    alpha, beta = _class_remainder(structure, cls)
    if alpha.is_zero and beta.is_zero:
        return SphericalRoots()
    if alpha.is_zero:
        return NoRootInClass(alpha, beta)
    candidate = -(alpha.inverse() * beta)
    if not candidate.is_central and conjugacy_class(candidate) == cls:
        return IsolatedRoot(candidate)
    return NoRootInClass(alpha, beta)


# -- candidate generation ----------------------------------------------------


#: Defaults of the candidate search: denominator bound, rationalization
#: tolerance and eigenvalue clustering tolerance.
_MAX_DENOMINATOR, _TOLERANCE, _CLUSTER_TOL = 10**6, 1e-8, 1e-6


def candidate_classes(
    poly: QPoly,
    max_denominator: int = _MAX_DENOMINATOR,
    tolerance: float = _TOLERANCE,
    cluster_tol: float = _CLUSTER_TOL,
) -> list[ConjClass]:
    """A finite, exactly certified superset of the classes holding roots.

    Complex roots of the companion's square-free part are computed
    numerically (repeated companion factors are divided out exactly
    first, so the eigensolve never faces a multiple root), grouped into
    real values and conjugate pairs (t, n) = (2 Re z, |z|^2),
    rationalized by continued fractions with the given denominator
    bound, and kept only if the corresponding minimal polynomial
    divides the companion exactly.  Root classes whose trace or norm is
    irrational (or has denominator beyond the bound) are invisible to
    rational-coordinate elements and are dropped by the certification
    step.
    """
    if poly.is_zero:
        raise PreconditionError("the zero polynomial has roots everywhere")
    structure = _Structure(poly)
    reals, spheres = _candidates(structure, max_denominator, tolerance, cluster_tol)
    values = {_rationalize(value, max_denominator, tolerance) for value in reals} - {None}
    central = [CentralClass(r) for r in sorted(values)
               if _int_quotient(structure.companion, [-r.numerator, r.denominator]) is not None]
    return central + spheres


def _candidates(structure: _Structure, max_denominator: int = _MAX_DENOMINATOR,
                tolerance: float = _TOLERANCE, cluster_tol: float = _CLUSTER_TOL,
                ) -> tuple[list[float], list[SphereClass]]:
    """(reals, spheres): the clustered real roots of the companion's
    square-free part, computed numerically, and the sphere classes of its
    conjugate pairs whose quadratic divides the companion exactly, sorted."""
    if len(structure.companion) <= 1:
        return [], []
    reduced = structure.companion_squarefree
    roots = real_poly_roots([c / reduced[-1] for c in reduced])
    reals, pairs = pair_and_cluster(roots, cluster_tol)
    found: set[tuple[Fraction, Fraction]] = set()
    for t, n in pairs:
        rt, rn = (_rationalize(v, max_denominator, tolerance) for v in (t, n))
        if rt is None or rn is None or is_rational_square(rt**2 - 4 * rn):
            continue
        if _int_quotient(structure.companion, _quadratic(rt, rn)) is not None:
            found.add((rt, rn))
    return reals, [SphereClass(rt, rn) for rt, rn in sorted(found)]


def _rationalize(value: float, max_denominator: int, tolerance: float) -> Optional[Fraction]:
    """The continued-fraction rational near ``value``, or None when it
    sits farther than the relative tolerance."""
    r = Fraction(value).limit_denominator(max_denominator)
    return r if abs(float(r) - value) <= tolerance * (1.0 + abs(value)) else None


def _sphere_witness(poly: QPoly, cls: SphereClass) -> Optional[Quaternion]:
    """A rational-coordinate element of the class, if one is easy to find."""
    alg = poly.algebra
    half_trace = cls.trace / 2
    radicand = cls.norm - half_trace**2
    for unit in alg.units():
        unit_norm = unit.norm()
        if unit_norm == 0:
            continue
        scaled = rational_sqrt(radicand / unit_norm)
        if scaled is not None:
            return alg.scalar(half_trace) + scaled * unit
    return None


# -- full classification -----------------------------------------------------


def classify(poly: QPoly) -> RootReport:
    """Exact classification of all roots of P by conjugacy class.

    Central (rational) roots come from the maximal central right
    divisor, which is complete; non-central classes come from certified
    companion candidates, each settled by its linear remainder.  All
    stages share one integer structure of P.  The count bound and the
    divisibility of P by the product of spherical class quadratics are
    asserted before returning.
    """
    if poly.is_zero or poly.degree < 1:
        raise PreconditionError(
            "classification needs a polynomial of degree at least 1"
        )
    degree = poly.degree
    structure = _Structure(poly)
    central = _central_roots(structure)
    entries: list[tuple[ConjClass, ClassStatus]] = []
    for cand in _candidates(structure)[1]:
        status = _class_status(structure, cand)
        cls: ConjClass = cand
        if isinstance(status, IsolatedRoot):
            cls = conjugacy_class(status.representative)
        elif isinstance(status, SphericalRoots):
            witness = _sphere_witness(poly, cand)
            if witness is not None:
                witnessed = conjugacy_class(witness)
                if witnessed != cand:
                    raise InvariantViolation(
                        f"witness {witness} landed in {witnessed}, not {cand}"
                    )
                cls = witnessed
        entries.append((cls, status))
    report = RootReport(
        degree=degree,
        central_roots=tuple(central),
        class_entries=tuple(entries),
        candidate_source="exact",
    )
    _check_report(structure, report)
    return report


def _check_report(structure: _Structure, report: RootReport):
    degree = report.degree
    spherical = report.spherical_classes
    if report.root_count > degree:
        raise InvariantViolation(
            f"central + isolated + 2 * spherical = {report.root_count} "
            f"exceeds the degree {degree}"
        )
    product = [1]
    for cls in spherical:
        product = _int_mul(product, _quadratic(cls.trace, cls.norm))
    if any(_int_quotient(row, product) is None for row in structure.rows):
        raise InvariantViolation(
            "product of spherical class quadratics does not right-divide P"
        )
    for root in report.isolated_roots:
        if not structure.poly.evaluate(root).is_zero:
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
    if len(positions) == 0:
        return SparseAnalysis(
            applicable=False,
            reason="all coefficients are central; no designated pair",
            case=None, low_position=None, high_position=None,
            bound=None, candidate_factor=None,
            spherical_found=found, report=report,
        )
    if len(positions) > 2:
        return SparseAnalysis(
            applicable=False,
            reason="more than two non-central coefficients",
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

    ``case`` describes the centrality pattern of the coefficients of
    x^2, x, 1 and their subfield relations; ``bound`` is 1 when all
    coefficients sit inside one quadratic subfield (including the
    all-central case) and 0 otherwise.
    """

    case: str
    bound: int
    spherical_found: int
    report: RootReport


def classify_cubic(poly: QPoly) -> CubicAnalysis:
    """Case analysis of spherical classes for monic cubics."""
    _require_hamilton(poly, "the cubic analyzer")
    if poly.degree != 3:
        raise PreconditionError("the cubic analyzer needs degree exactly 3")
    if not poly.is_monic:
        raise PreconditionError("the cubic analyzer needs a monic polynomial")
    quad, lin, const = poly.coefficient(2), poly.coefficient(1), poly.coefficient(0)
    pattern = tuple(not c.is_central for c in (quad, lin, const))
    noncentral_count = sum(pattern)
    if noncentral_count == 0:
        case, bound = "all_central", 1
    elif noncentral_count == 1:
        case, bound = "single_noncentral", 0
    elif pattern == (True, False, True):
        if commutes(quad, const):
            case, bound = "outer_pair_in_subfield", 1
        else:
            case, bound = "no_common_subfield", 0
    elif pattern == (False, True, True):
        if commutes(lin, const):
            case, bound = "lower_pair_in_subfield", 0
        else:
            case, bound = "no_common_subfield", 0
    elif pattern == (True, True, False):
        if commutes(quad, lin):
            case, bound = "upper_pair_in_subfield", 0
        else:
            case, bound = "no_common_subfield", 0
    else:
        if commutes(quad, lin) and commutes(const, lin):
            case, bound = "all_in_subfield", 1
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
