"""Float backend over the classical Hamilton quaternions.

Mirrors the exact classification pipeline in float64 with explicit,
scale-relative tolerances: zero tests compare against eps_zero times
the evaluation scale, class invariants match within eps_class, and any
decision landing within a factor of 10 of its tolerance is flagged as
uncertain instead of silently resolved.

Repeated root classes need care: an eigenvalue of multiplicity m comes
out of the solver scattered around the truth by roughly eps^(1/m), far
beyond any fixed clustering tolerance.  Two mechanisms compensate:
sphere probes re-aim themselves at the invariants of the candidate
root they produce (which lands on the true class), and a healing pass
re-pools fragmented eigenvalue clusters, accepting the merged class
when deflating the companion by it accounts for every eigenvalue in
the group; pooled polygon means are accurate because eigenvalue sums
obey the coefficient sum relations.  Two limits remain: a class
repeated beyond what these recover (for example a cubed linear factor)
stays resolved only to the scatter radius, and distinct classes closer
together than the joint scatter of their combined multiplicity fuse
into their midpoint class.  The exact backend, which reduces to a
square-free companion over the rationals, is the reference in both
situations, and the agreement checker treats a fusion within the
eigenvalue resolution radius as a flag rather than a disagreement.

``agree_with_exact`` runs both backends on one rational polynomial and
reconciles the reports; numeric-only classes whose rationalization
fails exact certification (irrational invariants, or denominators
beyond the bound) are flagged rather than counted as disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ._realroots import fold_cluster, real_poly_roots
from .algebra import HAMILTON, Quaternion, SphereClass, is_rational_square
from .errors import NumericFailure, PreconditionError
from .polynomials import CentralPoly, QPoly
from .roots import (
    ClassStatus,
    IsolatedRoot,
    NoRootInClass,
    RootReport,
    SphericalRoots,
    UncertainStatus,
    _rationalize,
    classify,
)

_MACHINE_EPS = 2.0 ** -52

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
        if q.algebra != HAMILTON:
            raise PreconditionError(
                "the float backend models the Hamilton algebra (-1, -1); "
                f"got (a, b) = ({q.algebra.a}, {q.algebra.b})"
            )
        coords = []
        for name in ("w", "x", "y", "z"):
            try:
                coords.append(float(getattr(q, name)))
            except OverflowError:
                raise PreconditionError(f"component {name} is too large for float64") from None
        return cls(*coords)

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


def _quatf(q: Quat, stage: str) -> QuatF:
    """Hand a computed quaternion out of the backend."""
    _finite(stage, *q)
    return QuatF(*q)


@dataclass(frozen=True)
class NumericSettings:
    """Tolerances for the float backend.

    ``eps_zero`` scales zero tests, ``eps_class`` scales class-invariant
    matching, ``cluster_tol`` groups companion eigenvalues, and
    ``max_condition`` bounds the companion coefficient spread accepted
    before the eigenvalue solve is refused.
    """

    eps_zero: float = 1e-9
    eps_class: float = 1e-8
    cluster_tol: float = 1e-6
    max_condition: float = 1e12

    def __post_init__(self):
        for name in ("eps_zero", "eps_class", "cluster_tol", "max_condition"):
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
        coeffs = tuple(QuatF.from_exact(c)._coords() for c in poly.coeffs)
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


def _div_linear(coeffs: Sequence[float], v: float) -> tuple[list[float], float]:
    """Synthetic division by (x - v): quotient and remainder."""
    quot = [0.0] * max(0, len(coeffs) - 1)
    carry = 0.0
    for d in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[d] + carry * v
        quot[d - 1] = carry
    rem = coeffs[0] + carry * v if coeffs else 0.0
    return quot, rem


def _div_quadratic(coeffs: Sequence[float], t: float, n: float) -> tuple[list[float], float, float]:
    """Synthetic division by x^2 - t x + n: quotient and linear remainder."""
    rem = list(coeffs)
    quot = [0.0] * max(0, len(coeffs) - 2)
    for d in range(len(rem) - 1, 1, -1):
        c = rem[d]
        quot[d - 2] = c
        rem[d - 1] += c * t
        rem[d - 2] -= c * n
    r0 = rem[0] if rem else 0.0
    r1 = rem[1] if len(rem) > 1 else 0.0
    return quot, r1, r0


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


def _companion_roots(comp: Sequence[float], st: NumericSettings) -> list[complex]:
    _finite("companion coefficient", *comp)
    scale = max(abs(v) for v in comp)
    lead = abs(comp[-1])
    if lead == 0.0 or scale / lead > st.max_condition:
        raise NumericFailure(
            f"companion coefficient spread {scale / lead if lead else math.inf:.3g} "
            f"exceeds max_condition {st.max_condition:.3g}",
            partial=comp,
        )
    roots = real_poly_roots(comp)
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


@dataclass
class _Item:
    kind: str                     # "central" or "sphere"
    conf: str                     # "root", "noroot", or "uncertain"
    points: list[complex]
    value: float = 0.0
    trace: float = 0.0
    norm: float = 0.0
    remainder: Optional[tuple[Quat, Quat]] = None  # (alpha, beta) of a sphere probe
    root: Optional[Quat] = None   # the isolated root of a sphere
    reason: str = ""              # why the item is uncertain

    def position(self) -> complex:
        if self.kind == "central":
            return complex(self.value, 0.0)
        return complex(
            self.trace / 2.0, math.sqrt(max(self.norm - self.trace**2 / 4.0, 0.0))
        )

    def status(self) -> ClassStatus:
        if self.root:
            return IsolatedRoot(_quatf(self.root, "isolated root"))
        if self.conf == "root":
            return SphericalRoots()
        alpha, beta = [_quatf(q, "remainder") for q in self.remainder or ()] or (None, None)
        if self.conf == "noroot":
            return NoRootInClass(alpha, beta)
        return UncertainStatus(alpha=alpha, beta=beta, reason=self.reason)


def _zero_call(value: float, threshold: float, stage: str) -> str:
    _finite(stage, value, threshold)
    if value <= threshold:
        return "zero"
    if value <= 10.0 * threshold:
        return "band"
    return "nonzero"


def _quat_quadratic_remainder(coeffs: Sequence[Quat], t: float, n: float) -> tuple[Quat, Quat]:
    """Remainder of the polynomial modulo the central x^2 - t x + n."""
    # reduce each coordinate row; regroup (quotient, r1, r0) across rows
    _, alpha, beta = zip(*(_div_quadratic(row, t, n) for row in zip(*coeffs)))
    return alpha, beta


def _settle_central(
    coeffs: Sequence[Quat], mags: Sequence[float], v: float, points: list[complex],
    st: NumericSettings,
) -> _Item:
    # No Newton refinement: near a multiple root the float companion is
    # cancellation-noise below the scatter radius, so steps random-walk.
    # Cluster means are already backed by the coefficient sum relations,
    # and the healing pass re-pools fragmented polygons.
    residual = _magnitude(_eval_float(coeffs, (v, 0.0, 0.0, 0.0)))
    call = _zero_call(residual, st.eps_zero * _eval_scale(mags, abs(v)), "central evaluation")
    if call == "zero":
        return _Item("central", "root", points, value=v)
    if call == "band":
        reason = f"evaluation residual {residual:.3g} within 10x of the zero tolerance"
        return _Item("central", "uncertain", points, value=v, reason=reason)
    return _Item("central", "noroot", points, value=v)


def _settle_sphere(
    coeffs: Sequence[Quat], mags: Sequence[float], t: float, n: float, points: list[complex],
    st: NumericSettings,
) -> _Item:
    for _ in range(6):
        disc = t * t - 4.0 * n
        if disc >= -100.0 * st.eps_class * (1.0 + t * t + 4.0 * abs(n)):
            # A vanishing or positive discriminant is a (near-)central
            # point, not a sphere; hand it to the central path.
            return _settle_central(coeffs, mags, t / 2.0, points, st)
        rho = math.sqrt(max(abs(n), t * t))
        threshold = st.eps_zero * _eval_scale(mags, 1.0 + rho)
        alpha, beta = remainder = _quat_quadratic_remainder(coeffs, t, n)
        call_a = _zero_call(_magnitude(alpha), threshold, "sphere remainder")
        call_b = _zero_call(_magnitude(beta), threshold, "sphere remainder")
        if call_a == "zero" and call_b == "zero":
            return _Item("sphere", "root", points, trace=t, norm=n)
        if call_a == "band" or (call_a == "zero" and call_b == "band"):
            return _Item("sphere", "uncertain", points, trace=t, norm=n, remainder=remainder,
                         reason="remainder within 10x of the zero tolerance")
        if call_a == "zero":
            return _Item("sphere", "noroot", points, trace=t, norm=n, remainder=remainder)
        candidate = tuple(-v for v in _qmul(_qinverse(alpha), beta))
        t2, n2 = 2.0 * candidate[0], _qnorm(candidate)
        _finite("candidate root invariant", t2, n2)
        if abs(t2 - t) <= st.eps_class * (1.0 + abs(t)) and abs(n2 - n) <= st.eps_class * (
            1.0 + abs(n)
        ):
            residual = _magnitude(_eval_float(coeffs, candidate))
            bound = st.eps_zero * _eval_scale(mags, _magnitude(candidate))
            call_r = _zero_call(residual, bound, "candidate root evaluation")
            if call_r == "zero":
                return _Item("sphere", "root", points, trace=t2, norm=n2, root=candidate)
            if call_r == "band":
                reason = f"candidate root residual {residual:.3g} within 10x of the zero tolerance"
                return _Item("sphere", "uncertain", points, trace=t, norm=n,
                             remainder=remainder, reason=reason)
            return _Item("sphere", "noroot", points, trace=t, norm=n, remainder=remainder)
        t, n = t2, n2
    reason = "class invariants did not settle under re-aiming"
    return _Item("sphere", "uncertain", points, trace=t, norm=n, reason=reason)


def _settle(
    coeffs: Sequence[Quat], mags: Sequence[float], points: list[complex], st: NumericSettings
) -> _Item:
    mean = sum(points) / len(points)
    radius = max(abs(p - mean) for p in points)
    if mean.imag <= max(st.cluster_tol * (1.0 + abs(mean)), 0.8 * radius):
        return _settle_central(coeffs, mags, mean.real, points, st)
    return _settle_sphere(coeffs, mags, 2.0 * mean.real, abs(mean) ** 2, points, st)


def _deflation_coverage(comp: Sequence[float], item: _Item, st: NumericSettings) -> int:
    """How many companion eigenvalues the item's class accounts for."""
    current = list(comp)
    covered = 0
    while True:
        if item.kind == "central":
            if len(current) < 2:
                return covered
            quot, rem = _div_linear(current, item.value)
            bound = 10.0 * st.eps_zero * _eval_scale(current, 1.0 + abs(item.value))
            _finite("deflation remainder", rem, bound)
            if abs(rem) > bound:
                return covered
            covered += 1
        else:
            if len(current) < 3:
                return covered
            rho = 1.0 + math.sqrt(max(abs(item.norm), item.trace**2))
            quot, r1, r0 = _div_quadratic(current, item.trace, item.norm)
            bound = 10.0 * st.eps_zero * _eval_scale(current, rho)
            _finite("deflation remainder", r1, r0, bound)
            if math.hypot(r1, r0) > bound:
                return covered
            covered += 2
        current = quot


def _same_item_class(a: _Item, b: _Item, tol: float) -> bool:
    if a.kind != b.kind:
        return False
    if a.kind == "central":
        return abs(a.value - b.value) <= tol * (1.0 + abs(a.value))
    return abs(a.trace - b.trace) <= tol * (1.0 + abs(a.trace)) and abs(
        a.norm - b.norm
    ) <= tol * (1.0 + abs(a.norm))


_CONF_RANK = {"root": 0, "noroot": 1, "uncertain": 2}


def _dedupe(items: list[_Item], st: NumericSettings) -> list[_Item]:
    merged: list[_Item] = []
    for item in sorted(items, key=lambda it: _CONF_RANK[it.conf]):
        twin = next(
            (m for m in merged if _same_item_class(m, item, 100.0 * st.eps_class)), None
        )
        if twin is None:
            merged.append(item)
        else:
            twin.points = twin.points + item.points
    return merged


def _resolution_radius(companion_degree: int) -> float:
    """Eigenvalue scatter radius: multiplicity m scatters by eps^(1/m), m <= degree."""
    return 8.0 * _MACHINE_EPS ** (1.0 / max(2, companion_degree))


def _heal(
    items: list[_Item], coeffs: Sequence[Quat], mags: Sequence[float], comp: Sequence[float],
    st: NumericSettings,
) -> list[_Item]:
    """Merge fragment clusters when deflation validates the merged class.

    Eigenvalue polygons of high-multiplicity companion roots fragment
    under any fixed clustering tolerance.  Groups of nearby items are
    re-probed as one cluster at escalating radii; the merged class is
    accepted only if it is confidently root-bearing and dividing the
    companion by it accounts for every eigenvalue in the group, so
    genuinely distinct nearby classes are left untouched.
    """
    cap = _resolution_radius(len(comp) - 1)
    level = 4.0 * st.cluster_tol
    positions = [it.position() for it in items]
    while level <= cap and len(items) > 1:
        index_groups = fold_cluster(positions, level)
        if len(index_groups) < len(items):
            new_items: list[_Item] = []
            consumed: set[int] = set()
            for members in index_groups:
                if len(members) < 2:
                    continue
                group = [items[m] for m in members]
                if all(it.conf == "root" for it in group) and len(
                    {it.kind for it in group}
                ) > 1:
                    continue
                pooled = [p for it in group for p in it.points]
                merged = _settle(coeffs, mags, pooled, st)
                if merged.conf != "root":
                    continue
                if _deflation_coverage(comp, merged, st) < len(pooled):
                    continue
                new_items.append(merged)
                consumed.update(members)
            if consumed:
                items = [
                    it for idx, it in enumerate(items) if idx not in consumed
                ] + new_items
                items = _dedupe(items, st)
                positions = [it.position() for it in items]
        level *= 4.0
    return items


def classify_f64(poly: PolyLike, settings: NumericSettings | None = None) -> RootReport:
    """Float classification mirroring :func:`quatpoly.roots.classify`.

    Candidate classes come from clustered companion eigenvalues, with
    self-correcting sphere probes and deflation-validated healing of
    fragmented clusters; statuses use eps-relative zero tests, and
    decisions within a factor of 10 of their tolerance produce
    :class:`UncertainStatus` entries.
    """
    st = settings or NumericSettings()
    coeffs = _as_float_coeffs(poly)
    if len(coeffs) < 2:
        raise PreconditionError("classification needs a polynomial of degree at least 1")
    degree = len(coeffs) - 1
    comp = _float_companion(coeffs)
    roots = _companion_roots(comp, st)
    mags = [_magnitude(c) for c in coeffs]
    folded = [complex(z.real, abs(z.imag)) for z in roots]
    items = [
        _settle(coeffs, mags, [folded[idx] for idx in group], st)
        for group in fold_cluster(folded, st.cluster_tol)
    ]
    items = _dedupe(items, st)
    items = _heal(items, coeffs, mags, comp, st)

    central: list[float] = []
    entries: list[tuple] = []
    for item in items:
        if item.kind == "central":
            if item.conf == "root":
                central.append(item.value)
            elif item.conf == "uncertain":
                entries.append((CentralClassF(item.value), item.status()))
            # Non-root central candidates are eigensolver debris: over
            # the full quaternions a real companion root always
            # certifies a central root, so they carry no finding.
        else:
            entries.append((SphereClassF(item.trace, item.norm), item.status()))
    central.sort()
    entries.sort(
        key=lambda e: (e[0].trace, e[0].norm)
        if isinstance(e[0], SphereClassF)
        else (e[0].value, 0.0)
    )
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

    ``mismatches`` are hard contradictions (an exact entry missing or
    differently categorized numerically, or a numeric entry that
    certifies exactly but was absent from the exact report).
    ``flagged`` collects numeric-only entries that fail exact
    certification at their rationalized invariants; these mark
    genuinely irrational classes or near-degenerate inputs and are
    reported, never silently dropped.
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
    Leftover numeric entries are rationalized and re-certified: success
    means the exact side missed a class (a mismatch); failure means the
    class is not exactly certifiable at desk-scale denominators and is
    flagged as a near-<category> entry.
    """
    if poly.algebra != HAMILTON:
        raise PreconditionError(
            "the float backend models the Hamilton algebra (-1, -1); "
            f"got (a, b) = ({poly.algebra.a}, {poly.algebra.b})"
        )
    st = settings or NumericSettings()
    exact_report = classify(poly)
    numeric_report = classify_f64(poly, st)
    matched: list[str] = []
    mismatches: list[str] = []
    flagged: list[str] = []
    # Classes closer together than the companion eigensolve can resolve
    # (repeated-root scatter grows like eps^(1/multiplicity)) may fuse
    # on the float side; within this radius a missing exact class is a
    # documented resolution limit, not a disagreement.
    resolution = _resolution_radius(2 * poly.degree)

    def _near_any_numeric(t: float, n: Optional[float]) -> bool:
        for v in numeric_report.central_roots:
            if n is None and abs(v - t) <= resolution * (1 + abs(t)):
                return True
        for c, _ in numeric_report.class_entries:
            ct = c.trace if isinstance(c, SphereClassF) else c.value * 2.0
            cn = c.norm if isinstance(c, SphereClassF) else c.value**2
            tt, nn = (t, n) if n is not None else (2.0 * t, t * t)
            if abs(ct - tt) <= resolution * (1 + abs(tt)) and abs(cn - nn) <= resolution * (
                1 + abs(nn)
            ):
                return True
        return False

    leftovers_central = list(numeric_report.central_roots)
    for root in exact_report.central_roots:
        target = float(root)
        hit = next(
            (
                v
                for v in leftovers_central
                if abs(v - target) <= st.eps_class * (1 + abs(target))
            ),
            None,
        )
        if hit is None:
            if _near_any_numeric(target, None):
                flagged.append(
                    f"exact central root {root} unresolved numerically "
                    "(a numeric class sits within the eigenvalue resolution radius)"
                )
            else:
                mismatches.append(f"exact central root {root} missing numerically")
        else:
            leftovers_central.remove(hit)
            matched.append(f"central root {root} ~ {hit:.12g}")

    leftovers = [
        (cls, status)
        for cls, status in numeric_report.class_entries
        if isinstance(cls, SphereClassF)
    ]
    for cls, status in exact_report.class_entries:
        if not isinstance(cls, SphereClass):
            continue
        t, n = float(cls.trace), float(cls.norm)
        hit = next(
            (
                pair
                for pair in leftovers
                if abs(pair[0].trace - t) <= st.eps_class * (1 + abs(t))
                and abs(pair[0].norm - n) <= st.eps_class * (1 + abs(n))
            ),
            None,
        )
        kind = status.kind
        if hit is None:
            if kind == "no-root":
                # A certified class without roots need not resurface on
                # the float side; only root-bearing entries must match.
                flagged.append(f"exact no-root class {cls} not re-derived numerically")
            elif _near_any_numeric(t, n):
                flagged.append(
                    f"exact {kind} class {cls} unresolved numerically "
                    "(a numeric class sits within the eigenvalue resolution radius)"
                )
            else:
                mismatches.append(f"exact {kind} class {cls} missing numerically")
            continue
        leftovers.remove(hit)
        numeric_kind = hit[1].kind
        if numeric_kind == kind:
            matched.append(
                f"{kind} class {cls} ~ ({hit[0].trace:.12g}, {hit[0].norm:.12g})"
            )
        else:
            mismatches.append(
                f"class {cls}: exact says {kind}, numeric says {numeric_kind}"
            )

    comp = poly.companion()
    for value in leftovers_central:
        r = _rationalize(value, 10**6, st.eps_class)
        certified = (
            r is not None
            and CentralPoly((-r, 1)).divides(comp)
            and poly.evaluate(poly.algebra.scalar(r)).is_zero
        )
        if certified:
            mismatches.append(
                f"numeric central root {value:.12g} certifies exactly as {r} "
                "but was absent from the exact report"
            )
        else:
            flagged.append(
                f"near-central numeric root {value:.12g} is not exactly "
                "certifiable at rationalized invariants"
            )
    for cls, status in leftovers:
        kind = status.kind
        if kind == "no-root":
            continue
        rt, rn = (_rationalize(v, 10**6, st.eps_class) for v in (cls.trace, cls.norm))
        certified = (
            rt is not None and rn is not None
            and not is_rational_square(rt**2 - 4 * rn)
            and CentralPoly((rn, -rt, 1)).divides(comp)
        )
        if certified:
            mismatches.append(
                f"numeric {kind} class ({cls.trace:.12g}, {cls.norm:.12g}) certifies "
                f"exactly as ({rt}, {rn}) but was absent from the exact report"
            )
        else:
            flagged.append(
                f"near-{kind} numeric class ({cls.trace:.12g}, {cls.norm:.12g}) "
                "is not exactly certifiable at rationalized invariants"
            )

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
