"""Float backend over the classical Hamilton quaternions.

Classification runs on P's exact Beck split P = c * G * H, taken over
the rationals: a float is a dyadic rational, so float input converts
without loss.  The real roots of sqfree(H) are P's central roots, its
conjugate root pairs are P's spherical classes, and every root pair of
sqfree(N(G)) / gcd(., sqfree(H)) is a class holding exactly one root of
P.  Both parts are square-free, so the eigensolver never faces a
multiple root, and the class counts are exact by construction; a part
of degree 2 is decided exactly, real or not by its discriminant.  Floats
only place the classes and compute isolated representatives; zero
tests compare a residual against eps_zero times the evaluation scale,
and a failed test raises :class:`NumericFailure` rather than guessing.

``agree_with_exact`` runs both backends on one rational polynomial and
reconciles the reports; the exact report holds every class with
rational invariants, so numeric-only classes are irrational and are
flagged rather than counted as disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from ._realroots import real_poly_roots
from .algebra import HAMILTON, Quaternion
from .decompose import _Structure
from .errors import NumericFailure, PreconditionError
from .polynomials import QPoly
from .roots import IsolatedRoot, RootReport, SphericalRoots, classify

Quat = tuple[float, float, float, float]  # (w, x, y, z): a quaternion inside the backend


def _qmul(p: Quat, q: Quat) -> Quat:
    """Hamilton product p * q."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
        w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
    )


def _qnorm(q: Quat) -> float:
    w, x, y, z = q
    try:
        return w**2 + x**2 + y**2 + z**2
    except OverflowError:  # float ** raises where * would give inf
        return math.inf


def _magnitude(q: Quat) -> float:
    return math.sqrt(_qnorm(q))


def _qinverse(q: Quat) -> Quat:
    n = _qnorm(q)
    if n == 0.0:
        raise ZeroDivisionError("cannot invert the zero quaternion")
    _finite("quaternion norm", n)
    w, x, y, z = q
    return (w / n, -x / n, -y / n, -z / n)


def _eval_float(coeffs: Sequence[Quat], point: Quat) -> Quat:
    """Right evaluation, sum of c_m point^m, by Horner's rule."""
    acc = (0.0, 0.0, 0.0, 0.0)
    for cw, cx, cy, cz in reversed(coeffs):
        w, x, y, z = _qmul(acc, point)
        acc = (w + cw, x + cx, y + cy, z + cz)
    return acc


def _finite(stage: str, *values: float) -> None:
    """Refuse non-finite values computed inside the backend."""
    for value in values:
        if not math.isfinite(value):
            raise NumericFailure(f"non-finite {stage}: {value!r}")


@dataclass(frozen=True)
class QuatF:
    """A float64 Hamilton quaternion; NaN and infinity are refused."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise PreconditionError(f"non-finite component {name}={value!r}")
            object.__setattr__(self, name, value)

    @classmethod
    def from_exact(cls, q: Quaternion) -> "QuatF":
        _require_hamilton(q.algebra)
        return cls(*_exact_coords(q))

    def _coords(self) -> Quat:
        return (self.w, self.x, self.y, self.z)

    def __add__(self, other: "QuatF") -> "QuatF":
        return QuatF(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "QuatF") -> "QuatF":
        return QuatF(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "QuatF":
        return QuatF(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return QuatF(self.w * other, self.x * other, self.y * other, self.z * other)
        if not isinstance(other, QuatF):
            return NotImplemented
        return QuatF(*_qmul(self._coords(), other._coords()))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def conjugate(self) -> "QuatF":
        return QuatF(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return _qnorm(self._coords())

    def trace(self) -> float:
        return 2.0 * self.w

    def magnitude(self) -> float:
        return _magnitude(self._coords())

    def inverse(self) -> "QuatF":
        return QuatF(*_qinverse(self._coords()))

    def __str__(self) -> str:
        return f"({self.w:.12g}, {self.x:.12g}, {self.y:.12g}, {self.z:.12g})"


def _require_hamilton(algebra) -> None:
    if algebra != HAMILTON:
        raise PreconditionError(
            "the float backend models the Hamilton algebra (-1, -1); "
            f"got (a, b) = ({algebra.a}, {algebra.b})"
        )


def _exact_coords(q: Quaternion) -> Quat:
    """Correctly rounded coordinates: int / int has the bits of float(Fraction)."""
    coords = []
    for name, v in zip("wxyz", (q.w, q.x, q.y, q.z)):
        try:
            coords.append(v.numerator / v.denominator)
        except OverflowError:
            raise PreconditionError(f"component {name} is too large for float64") from None
    return tuple(coords)


def _quatf(q: Quat, stage: str) -> QuatF:
    """Hand a computed quaternion out of the backend."""
    _finite(stage, *q)
    return QuatF(*q)


@dataclass(frozen=True)
class NumericSettings:
    """Tolerances for the float backend.

    ``eps_zero`` scales the residual tests, ``eps_class`` scales
    class-invariant matching against the exact backend and subfield
    membership, and ``max_condition`` bounds the companion coefficient
    spread accepted before the eigenvalue solve is refused.
    """

    eps_zero: float = 1e-9
    eps_class: float = 1e-8
    max_condition: float = 1e12

    def __post_init__(self):
        for name in ("eps_zero", "eps_class", "max_condition"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise PreconditionError(f"{name} must be a positive float, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CentralClassF:
    """Float counterpart of a central conjugacy class."""

    value: float

    def __str__(self) -> str:
        return f"central({self.value:.12g})"


@dataclass(frozen=True)
class SphereClassF:
    """Float counterpart of a non-central conjugacy class."""

    trace: float
    norm: float

    def __str__(self) -> str:
        return f"sphere(trace={self.trace:.12g}, norm={self.norm:.12g})"


PolyLike = Union[QPoly, Sequence[QuatF]]


def _as_float_coeffs(poly: PolyLike) -> tuple[Quat, ...]:
    if isinstance(poly, QPoly):
        _require_hamilton(poly.algebra)
        coeffs = tuple(map(_exact_coords, poly.coeffs))
    else:
        for c in poly:
            if not isinstance(c, QuatF):
                raise PreconditionError(f"expected QuatF coefficients, got {c!r}")
        coeffs = tuple(c._coords() for c in poly)
    while coeffs and _qnorm(coeffs[-1]) == 0.0:
        coeffs = coeffs[:-1]
    return coeffs


def eval_f64(poly: PolyLike, point: Union[QuatF, Quaternion]) -> QuatF:
    """Float right evaluation, sum of a_m q^m with powers on the right."""
    if isinstance(point, Quaternion):
        point = QuatF.from_exact(point)
    return _quatf(_eval_float(_as_float_coeffs(poly), point._coords()), "evaluation")


def _float_companion(coeffs: Sequence[Quat]) -> list[float]:
    """The norm form: coefficient k is the sum over m + n = k of <c_m, c_n>."""
    comp = [0.0] * (2 * len(coeffs) - 1)
    for m, (w1, x1, y1, z1) in enumerate(coeffs):
        for k, (w2, x2, y2, z2) in enumerate(coeffs, m):
            comp[k] += w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2
    return comp


def _eval_scale(coeffs: Sequence[float], magnitude: float) -> float:
    """Sum of |c_m| magnitude^m: the size an evaluation is measured against."""
    total, power = 0.0, 1.0
    for c in coeffs:
        total += abs(c) * power
        power *= magnitude
    return total


def companion_roots_f64(
    poly: PolyLike, settings: NumericSettings | None = None
) -> list[complex]:
    """Roots of the float companion polynomial, residual-checked.

    Raises :class:`NumericFailure` (with partial results attached) when
    a companion coefficient is not finite, the coefficient spread
    exceeds ``max_condition``, the eigenvalue solve fails, or any root's
    residual exceeds eps_zero relative to the evaluation scale.
    """
    coeffs = _as_float_coeffs(poly)
    if not coeffs:
        raise PreconditionError("the zero polynomial has roots everywhere")
    return _companion_roots(_float_companion(coeffs), settings or NumericSettings())


def _companion_roots(comp: Sequence[float], st: NumericSettings, roots=None) -> list[complex]:
    _finite("companion coefficient", *comp)
    scale = max(abs(v) for v in comp)
    lead = abs(comp[-1])
    if lead == 0.0 or scale / lead > st.max_condition:
        raise NumericFailure(
            f"companion coefficient spread {scale / lead if lead else math.inf:.3g} "
            f"exceeds max_condition {st.max_condition:.3g}",
            partial=comp,
        )
    roots = real_poly_roots(comp) if roots is None else roots
    for z in roots:
        value = 0.0 + 0.0j
        for c in reversed(comp):
            value = value * z + c
        bound = st.eps_zero * _eval_scale(comp, abs(z))
        _finite("companion root residual", abs(value), bound)
        if abs(value) > bound:
            raise NumericFailure(
                f"companion root {z} has residual {abs(value):.3g} > {bound:.3g}",
                partial=roots,
            )
    return roots


# -- classification engine ----------------------------------------------------


def _quat_quadratic_remainder(coeffs: Sequence[Quat], t: float, n: float) -> tuple[Quat, Quat]:
    """Remainder alpha x + beta of the polynomial modulo the central x^2 - t x + n."""
    alpha, beta = [], []
    for row in zip(*coeffs):  # synthetic division, one coordinate row at a time
        rem = list(row) + [0.0] * (2 - len(row))
        for d in range(len(rem) - 1, 1, -1):
            rem[d - 1] += rem[d] * t
            rem[d - 2] -= rem[d] * n
        alpha.append(rem[1])
        beta.append(rem[0])
    return tuple(alpha), tuple(beta)


def _part_roots(part: Sequence[int], st: NumericSettings) -> list[complex]:
    """Residual-checked roots of an exact primitive integer polynomial.

    A quadratic is solved in closed form: its exact discriminant decides
    real against complex, and real roots are taken without cancellation.
    """
    try:
        comp = [c / part[-1] for c in part]
        roots = None
        if len(part) == 3:
            c0, c1, c2 = part
            disc = c1 * c1 - 4 * c0 * c2
            h, s = -c1 / (2 * c2), math.sqrt(abs(disc) / (4 * c2 * c2))  # roots h +- s or h +- s i
            r1 = h + math.copysign(s, h)  # 0 only when both roots underflow
            roots = ([complex(r1), complex(c0 / c2 / r1 if r1 else 0.0)] if disc > 0
                     else [complex(h, s), complex(h, -s)])
    except OverflowError:
        raise NumericFailure("non-finite companion coefficient: a ratio to the "
                             "leading coefficient exceeds float64") from None
    return _companion_roots(comp, st, roots)


def classify_f64(poly: PolyLike, settings: NumericSettings | None = None) -> RootReport:
    """Float classification mirroring :func:`quatpoly.roots.classify`.

    The classes come from the exact split P = c * G * H, so counts are
    never guessed from clustered eigenvalues: the real roots of
    sqfree(H) are the central roots, its conjugate pairs z give the
    spherical classes (2 Re z, |z|^2), and each conjugate pair of
    sqfree(N(G)) / gcd(., sqfree(H)) gives one class holding one
    isolated root, the float -alpha^{-1} beta of P's remainder modulo
    the class quadratic.  Floats only place the classes and compute the
    representatives; each eigenvalue and each representative must pass
    its residual test at eps_zero, or :class:`NumericFailure` is raised.
    """
    st = settings or NumericSettings()
    coeffs = _as_float_coeffs(poly)
    if len(coeffs) < 2:
        raise PreconditionError("classification needs a polynomial of degree at least 1")
    degree = len(coeffs) - 1
    # the diagonal terms |c_m|^2 of the companion must be floats
    _finite("companion coefficient", max(map(_qnorm, coeffs)))
    if not isinstance(poly, QPoly):
        # a float is a dyadic rational, so the exact form loses nothing
        poly = QPoly(HAMILTON, (HAMILTON.quat(*map(Fraction, c)) for c in coeffs))
    structure = _Structure(poly)

    central: list[float] = []
    entries: list[tuple] = []
    for z in _part_roots(structure.central_squarefree, st):
        if z.imag == 0.0:
            central.append(z.real)
        elif z.imag > 0.0:
            entries.append((SphereClassF(2.0 * z.real, abs(z) ** 2), SphericalRoots()))
    mags = [_magnitude(c) for c in coeffs]
    for z in _part_roots(structure.isolated_part, st):
        if z.imag == 0.0:
            # N(G)(r) = |G(r)|^2, so a real root r would make x - r divide G
            raise NumericFailure(f"the isolated part has a real root {z.real!r}")
        if z.imag < 0.0:
            continue
        t, n = 2.0 * z.real, abs(z) ** 2
        alpha, beta = _quat_quadratic_remainder(coeffs, t, n)
        root = tuple(-v for v in _qmul(_qinverse(alpha), beta))
        residual = _magnitude(_eval_float(coeffs, root))
        bound = st.eps_zero * _eval_scale(mags, _magnitude(root))
        _finite("isolated root residual", residual, bound)
        if residual > bound:
            raise NumericFailure(
                f"isolated root {root} of the class ({t!r}, {n!r}) has residual "
                f"{residual:.3g} > {bound:.3g}")
        entries.append((SphereClassF(t, n), IsolatedRoot(_quatf(root, "isolated root"))))
    central.sort()
    entries.sort(key=lambda e: (e[0].trace, e[0].norm))
    report = RootReport(
        degree=degree,
        central_roots=tuple(central),
        class_entries=tuple(entries),
        candidate_source="numeric",
    )
    if report.root_count > degree:
        raise NumericFailure(
            f"central + isolated + 2 * spherical = {report.root_count} "
            f"exceeds the degree {degree}",
            partial=report,
        )
    return report


@dataclass(frozen=True)
class AgreementReport:
    """Reconciliation of exact and numeric classifications of one P.

    ``mismatches`` are hard contradictions: an exact entry missing or
    differently categorized numerically.  ``flagged`` collects
    numeric-only entries; the exact report is complete for rational
    invariants, so these are irrational classes and central roots, and
    are reported, never silently dropped.
    """

    agreed: bool
    matched: tuple[str, ...]
    mismatches: tuple[str, ...]
    flagged: tuple[str, ...]
    exact_report: RootReport
    numeric_report: RootReport


def agree_with_exact(
    poly: QPoly, settings: NumericSettings | None = None
) -> AgreementReport:
    """Run both backends on a rational polynomial and reconcile.

    Every exact central root and class entry must reappear numerically
    with invariants within eps_class and the same status category.
    Leftover numeric entries are flagged as near-<category> entries:
    the exact report holds every class with rational invariants, so
    theirs are irrational.
    """
    _require_hamilton(poly.algebra)
    st = settings or NumericSettings()
    exact_report = classify(poly)
    numeric_report = classify_f64(poly, st)
    matched: list[str] = []
    mismatches: list[str] = []

    def close(value: float, target: Fraction) -> bool:
        return abs(value - float(target)) <= st.eps_class * (1 + abs(float(target)))

    leftovers_central = list(numeric_report.central_roots)
    for root in exact_report.central_roots:
        hit = next((v for v in leftovers_central if close(v, root)), None)
        if hit is None:
            mismatches.append(f"exact central root {root} missing numerically")
        else:
            leftovers_central.remove(hit)
            matched.append(f"central root {root} ~ {hit:.12g}")

    leftovers = list(numeric_report.class_entries)
    for cls, status in exact_report.class_entries:
        kind = status.kind
        hit = next((pair for pair in leftovers
                    if close(pair[0].trace, cls.trace) and close(pair[0].norm, cls.norm)), None)
        if hit is None:
            mismatches.append(f"exact {kind} class {cls} missing numerically")
            continue
        leftovers.remove(hit)
        if hit[1].kind == kind:
            matched.append(f"{kind} class {cls} ~ ({hit[0].trace:.12g}, {hit[0].norm:.12g})")
        else:
            mismatches.append(f"class {cls}: exact says {kind}, numeric says {hit[1].kind}")

    # the exact report holds every rational class, so what is left over
    # numerically has irrational invariants
    flagged = [f"near-central numeric root {value:.12g} is irrational"
               for value in leftovers_central]
    flagged += [f"near-{status.kind} numeric class ({cls.trace:.12g}, {cls.norm:.12g}) "
                "has irrational invariants" for cls, status in leftovers]

    return AgreementReport(
        agreed=not mismatches,
        matched=tuple(matched),
        mismatches=tuple(mismatches),
        flagged=tuple(flagged),
        exact_report=exact_report,
        numeric_report=numeric_report,
    )


def roots_in_subfield_f64(
    poly: PolyLike,
    s: Union[QuatF, Quaternion],
    settings: NumericSettings | None = None,
) -> list[QuatF]:
    """Float roots of P inside the subfield generated by s.

    Over the full Hamilton quaternions every sphere meets every maximal
    subfield, so each spherical class always contributes a conjugate
    pair t/2 +- beta * pure(s); isolated and central roots contribute
    when they commute with s within tolerance.
    """
    st = settings or NumericSettings()
    if isinstance(s, Quaternion):
        s = QuatF.from_exact(s)
    pure = (0.0, s.x, s.y, s.z)
    pure_norm = _qnorm(pure)
    _finite("subfield generator norm", pure_norm)
    if pure_norm == 0.0:
        raise PreconditionError(f"{s} is central and generates no subfield")
    report = classify_f64(poly, st)
    out = [_quatf((v, 0.0, 0.0, 0.0), "central root") for v in report.central_roots]
    tol = st.eps_class * (1.0 + s.magnitude())
    for cls, status in report.class_entries:
        if isinstance(status, IsolatedRoot):
            rep = status.representative
            r, q = rep._coords(), s._coords()
            commutator = _magnitude(tuple(a - b for a, b in zip(_qmul(r, q), _qmul(q, r))))
            _finite("commutator", commutator)
            if commutator <= tol * (1.0 + rep.magnitude()):
                out.append(rep)
        elif isinstance(status, SphericalRoots) and isinstance(cls, SphereClassF):
            half_trace = cls.trace / 2.0
            radicand = (cls.norm - half_trace**2) / pure_norm
            beta = math.sqrt(max(radicand, 0.0))
            for k in (beta, -beta):
                root = tuple(a + b * k for a, b in zip((half_trace, 0.0, 0.0, 0.0), pure))
                out.append(_quatf(root, "subfield root"))
    return out
