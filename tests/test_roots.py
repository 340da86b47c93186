"""Root classification, sphere-count bounds, and structural analyzers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpoly import (
    HAMILTON,
    AlgebraParams,
    IsolatedRoot,
    NoRootInClass,
    PreconditionError,
    QPoly,
    SphereClass,
    SphericalRoots,
    ZeroDivisorError,
    analyze_sparse,
    candidate_classes,
    class_remainder,
    class_status,
    classify,
    classify_cubic,
    common_subfield,
    conjugacy_class,
    conjugation_root_kernel,
    eval_right,
    in_subfield,
    minimal_polynomial,
    nonroot_conjugates,
    parse_to_qpoly,
    roots_in_center,
    roots_in_subfield,
    same_class,
    spherical_bound_report,
    spherical_classes,
)
from quatpoly.roots import _quadratic, _sphere_witness

from conftest import (
    DIVISION_ALGEBRAS,
    FRACTIONAL_ALGEBRAS,
    qpolys,
    quaternions,
    separated_class_product,
    small_fractions,
)

A = HAMILTON


def entries_by_kind(report):
    spherical, isolated, none, uncertain = [], [], [], []
    for cls, status in report.class_entries:
        if isinstance(status, SphericalRoots):
            spherical.append(cls)
        elif isinstance(status, IsolatedRoot):
            isolated.append((cls, status.representative))
        elif isinstance(status, NoRootInClass):
            none.append(cls)
        else:
            uncertain.append(cls)
    return spherical, isolated, none, uncertain


class TestClassifyExamples:
    def test_three_central_roots(self):
        rep = classify(parse_to_qpoly("x^3 - x"))
        assert rep.central_roots == (Fraction(-1), Fraction(0), Fraction(1))
        assert rep.class_entries == ()
        assert rep.candidate_source == "exact"

    def test_central_root_plus_sphere(self):
        rep = classify(parse_to_qpoly("x^3 + x"))
        assert rep.central_roots == (Fraction(0),)
        assert [c for c in rep.spherical_classes] == [SphereClass(0, 1)]

    def test_isolated_beside_two_central(self):
        rep = classify(parse_to_qpoly("(x - i)(x^2 - 1)"))
        assert rep.central_roots == (Fraction(-1), Fraction(1))
        spherical, isolated, _, _ = entries_by_kind(rep)
        assert spherical == []
        assert isolated == [(SphereClass(0, 1), A.i)]

    def test_whole_sphere_despite_isolated_looking_factor(self):
        rep = classify(parse_to_qpoly("(x - i)(x^2 + 1)"))
        assert rep.central_roots == ()
        spherical, isolated, _, _ = entries_by_kind(rep)
        assert spherical == [SphereClass(0, 1)]
        assert isolated == []

    def test_double_central_and_isolated(self):
        rep = classify(parse_to_qpoly("(x - i)(x + 1)^2"))
        assert rep.central_roots == (Fraction(-1),)
        _, isolated, _, _ = entries_by_kind(rep)
        assert isolated == [(SphereClass(0, 1), A.i)]

    def test_sphere_and_isolated_together(self):
        rep = classify(parse_to_qpoly("(x - i)(x^2 + x + 1)"))
        spherical, isolated, _, _ = entries_by_kind(rep)
        assert spherical == [SphereClass(-1, 1)]
        assert isolated == [(SphereClass(0, 1), A.i)]
        assert rep.classes_with_roots == 2

    def test_constant_rejected(self):
        with pytest.raises(PreconditionError):
            classify(QPoly.constant(A.i))


class TestClassifyProperties:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_planted_classes_all_recovered(self, rng):
        poly, tags = separated_class_product(rng)
        if poly.degree < 1:
            return
        rep = classify(poly)
        want_central = sorted(v for kind, *rest in tags if kind == "central"
                              for v in rest)
        assert list(rep.central_roots) == want_central
        got = {(c.trace, c.norm) for c, _ in rep.class_entries}
        want = {(t, n) for kind, t, n in
                (tag for tag in tags if tag[0] == "sphere")}
        assert got == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_isolated_representatives_are_roots(self, data):
        poly = data.draw(qpolys(min_degree=1, max_degree=4, bound=4).filter(
            lambda f: f.degree >= 1))
        rep = classify(poly)
        for r in rep.isolated_roots:
            assert eval_right(poly, r).is_zero
        for v in rep.central_roots:
            assert eval_right(poly, A.scalar(v)).is_zero
        # root-bearing classes, central singletons included, never
        # exceed the degree
        assert rep.classes_with_roots <= poly.degree

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_class_status_matches_remainder(self, data):
        poly = data.draw(qpolys(min_degree=1, max_degree=4, bound=4).filter(
            lambda f: not f.is_zero))
        q = data.draw(quaternions(bound=4).filter(lambda v: not v.is_central))
        cls = conjugacy_class(q)
        status = class_status(poly, cls)
        c0, c1 = class_remainder(poly, cls)
        if isinstance(status, SphericalRoots):
            assert c0.is_zero and c1.is_zero
        else:
            assert not (c0.is_zero and c1.is_zero)


@st.composite
def planted_products(draw):
    """(x - q1)...(x - qk), times a sphere quadratic half of the time."""
    alg = draw(st.sampled_from(DIVISION_ALGEBRAS + FRACTIONAL_ALGEBRAS))
    x = QPoly.x(alg)
    poly = QPoly.constant(alg.one)
    for q in draw(st.lists(quaternions(alg, bound=3), min_size=1, max_size=3)):
        poly = poly * (x - QPoly.constant(q))
    q = draw(quaternions(alg, bound=3))
    if not q.is_central and draw(st.booleans()):
        poly = poly * minimal_polynomial(conjugacy_class(q)).lift(alg)
    return poly


class TestClassifyAgreesWithStages:
    """classify shares one integer structure across its stages; each
    public stage function must give what classify reports."""

    @given(planted_products())
    @settings(max_examples=40, deadline=None)
    def test_classify_matches_public_stages(self, poly):
        rep = classify(poly)
        assert list(rep.central_roots) == roots_in_center(poly)
        spheres = [c for c in candidate_classes(poly) if isinstance(c, SphereClass)]
        assert [cls for cls, _ in rep.class_entries] == spheres
        for cls, status in rep.class_entries:
            assert class_status(poly, cls) == status


def fraction_norm(q):
    """w^2 - a x^2 - b y^2 + ab z^2, in Fraction arithmetic."""
    a, b = q.algebra.a, q.algebra.b
    return q.w**2 - a * q.x**2 - b * q.y**2 + a * b * q.z**2


def remainder_decision(poly, cls):
    """The class decision from (alpha, beta) in Fraction arithmetic: the
    candidate -alpha^-1 beta is a root when it has the class's trace and
    norm."""
    alpha, beta = class_remainder(poly, cls)
    if alpha.is_zero:
        return SphericalRoots() if beta.is_zero else NoRootInClass(alpha, beta)
    n = fraction_norm(alpha)
    inverse = alpha.algebra.quat(*(c / n for c in alpha.conjugate().coords()))
    candidate = -(inverse * beta)
    if candidate.trace() == cls.trace and fraction_norm(candidate) == cls.norm:
        return IsolatedRoot(candidate)
    return NoRootInClass(alpha, beta)


class TestIntegerClassDecision:
    """class_status decides on integer vectors; the oracle decides on
    the Fraction remainder."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_fraction_decision(self, data):
        alg = data.draw(st.sampled_from(DIVISION_ALGEBRAS + FRACTIONAL_ALGEBRAS))
        x = QPoly.x(alg)
        factors = data.draw(st.lists(quaternions(alg, bound=3), min_size=1, max_size=4))
        poly = QPoly.constant(alg.one)
        for q in factors:
            poly = poly * (x - QPoly.constant(q))
        noncentral = [q for q in factors if not q.is_central]
        own = data.draw(st.booleans()) and noncentral
        q = (data.draw(st.sampled_from(noncentral)) if own
             else data.draw(quaternions(alg, bound=3).filter(lambda v: not v.is_central)))
        cls = conjugacy_class(q)
        if data.draw(st.integers(0, 3)) == 0:
            poly = poly * minimal_polynomial(cls).lift(alg)  # the whole class
        status = class_status(poly, cls)
        assert status == remainder_decision(poly, cls)
        if q is factors[-1]:
            # the rightmost linear factor's point is a root of P
            assert isinstance(status, SphericalRoots) or status == IsolatedRoot(q)

    def test_examples(self):
        poly = parse_to_qpoly("(x - 1 - j)(x - i)")
        assert class_status(poly, SphereClass(0, 1)) == IsolatedRoot(A.i)
        assert remainder_decision(poly, SphereClass(0, 1)) == IsolatedRoot(A.i)
        # the candidate i matches only the trace of x^2 + 2, only the norm
        # of x^2 - x + 1
        for cls in (SphereClass(0, 2), SphereClass(1, 1)):
            assert class_status(parse_to_qpoly("x - i"), cls) == NoRootInClass(A.one, -A.i)

    def test_zero_norm_alpha_raises_over_a_split_algebra(self):
        split = AlgebraParams(Fraction(1), Fraction(1))
        # (1 + i) x leaves alpha = 1 + i modulo x^2 + 1, of norm 1 - 1 = 0
        poly = QPoly(split, [split.zero, split.one + split.i])
        assert class_remainder(poly, SphereClass(0, 1)) == (split.one + split.i, split.zero)
        with pytest.raises(ZeroDivisorError, match="zero norm and no inverse"):
            class_status(poly, SphereClass(0, 1))


class TestSphereWitness:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_witness_lies_in_its_class(self, data):
        alg = data.draw(st.sampled_from(DIVISION_ALGEBRAS + FRACTIONAL_ALGEBRAS))
        cls = conjugacy_class(data.draw(quaternions(alg, bound=5).filter(
            lambda v: not v.is_central)))
        witness = _sphere_witness(alg, _quadratic(cls))
        if witness is not None:
            assert witness.trace() == cls.trace and fraction_norm(witness) == cls.norm

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_found_for_a_class_through_a_unit(self, data):
        alg = data.draw(st.sampled_from(DIVISION_ALGEBRAS + FRACTIONAL_ALGEBRAS))
        t, s = data.draw(small_fractions()), data.draw(small_fractions().filter(bool))
        unit = data.draw(st.sampled_from(alg.units()))
        cls = conjugacy_class(alg.scalar(t) + alg.scalar(s) * unit)
        witness = _sphere_witness(alg, _quadratic(cls))
        assert witness is not None and conjugacy_class(witness) == cls

    def test_examples(self):
        alg = AlgebraParams(Fraction(-1), Fraction(-2))
        assert _sphere_witness(alg, [2, 0, 1]) == alg.j
        assert _sphere_witness(HAMILTON, [7, 0, 1]) is None


class TestSphericalBound:
    def test_even_equality_forces_central_coefficients(self):
        rep = spherical_bound_report(parse_to_qpoly("(x^2 + 1)(x^2 + x + 1)"))
        assert rep.degree == 4 and rep.bound == 2 and rep.count == 2
        assert rep.equality_parity == "even"
        assert rep.coefficients_central is True

    def test_odd_equality_forces_commuting_coefficients(self):
        rep = spherical_bound_report(parse_to_qpoly("(x - i)(x^2 + 1)"))
        assert rep.degree == 3 and rep.bound == 1 and rep.count == 1
        assert rep.equality_parity == "odd"
        assert rep.coefficients_commute is True

    def test_below_bound_no_structure_claim(self):
        rep = spherical_bound_report(parse_to_qpoly("(x^2 + 1)(x - 1)(x - 2)"))
        assert rep.bound == 2 and rep.count == 1
        assert rep.equality_parity is None

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_bound_holds_on_random_input(self, data):
        poly = data.draw(qpolys(min_degree=1, max_degree=5, bound=4).filter(
            lambda f: f.degree >= 1))
        rep = spherical_bound_report(poly)
        assert rep.count <= rep.bound <= rep.degree // 2
        assert len(spherical_classes(poly)) == rep.count


class TestSparseAnalysis:
    def test_lone_noncentral_coefficient(self):
        res = analyze_sparse(parse_to_qpoly("x^3 + i x + 1"))
        assert res.applicable and res.case == "lone_noncentral"
        assert res.bound == 0 and res.spherical_found == 0

    def test_shared_subfield_pair(self):
        res = analyze_sparse(parse_to_qpoly("(x^2 + 1)(x - i)"))
        assert res.applicable and res.case == "shared_subfield"
        assert res.low_position == 0 and res.high_position == 2
        assert res.bound == 1 and res.spherical_found == 1
        # candidate factor pins every spherical class
        assert res.candidate_factor is not None
        for cls in spherical_classes(parse_to_qpoly("(x^2 + 1)(x - i)")):
            assert res.candidate_factor.evaluate(cls.trace) is not None

    def test_separate_subfields_pair(self):
        res = analyze_sparse(parse_to_qpoly("x^3 + i x + j"))
        assert res.applicable and res.case == "separate_subfields"
        assert res.bound == 0 and res.spherical_found == 0

    def test_all_central_not_applicable(self):
        res = analyze_sparse(parse_to_qpoly("x^3 + 2x + 1"))
        assert not res.applicable
        assert "central" in res.reason

    def test_three_noncentral_not_applicable(self):
        res = analyze_sparse(parse_to_qpoly("x^3 + i x^2 + j x + k"))
        assert not res.applicable

    def test_requires_monic(self):
        with pytest.raises(PreconditionError):
            analyze_sparse(parse_to_qpoly("i x^2 + j"))


class TestCubicAnalysis:
    CASES = [
        ("x^3 - 1", "all_central", 1),
        ("x^3 + i x^2 + x + 1", "single_noncentral", 0),
        ("x^3 + i x^2 + 2 x + 3i", "outer_pair_in_subfield", 1),
        ("x^3 + i x^2 + 2 x + j", "no_common_subfield", 0),
        ("x^3 + 2 x^2 + i x + 3i", "lower_pair_in_subfield", 0),
        ("x^3 + i x^2 + 2i x + 1", "upper_pair_in_subfield", 0),
        ("x^3 + i x^2 + 2i x + 3i", "all_in_subfield", 1),
        ("x^3 + i x^2 + j x + k", "no_common_subfield", 0),
    ]

    @pytest.mark.parametrize("text,case,bound", CASES)
    def test_case_labels_and_bounds(self, text, case, bound):
        res = classify_cubic(parse_to_qpoly(text))
        assert res.case == case
        assert res.bound == bound
        assert res.spherical_found <= res.bound

    @pytest.mark.parametrize("text,case", [
        ("(x^2 + 1)(x - i)", "outer_pair_in_subfield"),
        ("(x^2 - 2x + 2)(x - i)", "all_in_subfield"),
        ("x^3 - 1", "all_central"),
    ])
    def test_bound_one_is_reached(self, text, case):
        res = classify_cubic(parse_to_qpoly(text))
        assert (res.case, res.bound, res.spherical_found) == (case, 1, 1)

    def test_one_subfield_is_not_enough(self):
        # every coefficient lies in Q(i), but a sphere needs a
        # non-central constant term beside the non-central x^2 term
        res = classify_cubic(parse_to_qpoly("x^3 + i x"))
        assert (res.case, res.bound, res.spherical_found) == ("single_noncentral", 0, 0)

    def test_requires_monic_cubic(self):
        with pytest.raises(PreconditionError):
            classify_cubic(parse_to_qpoly("x^2 + 1"))

    def test_common_subfield_detection(self):
        found = common_subfield(parse_to_qpoly("x^2 + i x + 1"))
        assert found is not None and not found.central
        assert not found.generator.is_central
        assert common_subfield(parse_to_qpoly("x^2 + i x + j")) is None
        central = common_subfield(parse_to_qpoly("x^2 + 2"))
        assert central is not None and central.central


class TestRootsInSubfield:
    def test_central_roots_always_present(self):
        roots = roots_in_subfield(parse_to_qpoly("x^2 - 1"), A.j)
        assert {str(q) for q in roots} == {"-1", "1"}

    def test_sphere_meets_subfield_when_beta_rational(self):
        p = parse_to_qpoly("(x^2 + 1)(x^2 + x + 1)")
        roots = roots_in_subfield(p, A.j)
        # the (0, 1) sphere meets F(j) at +-j; the (-1, 1) sphere needs
        # beta^2 = 3/4, not a rational square, so it contributes nothing
        assert {str(q) for q in roots} == {"j", "-j"}
        assert roots_in_subfield(p, A.quat(0, 1, 2, 0)) == []

    def test_isolated_root_only_in_its_own_subfield(self):
        p = parse_to_qpoly("(x - i)(x^2 - 1)")
        with_i = roots_in_subfield(p, A.i)
        assert {str(q) for q in with_i} == {"-1", "1", "i"}
        with_j = roots_in_subfield(p, A.j)
        assert {str(q) for q in with_j} == {"-1", "1"}

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_reported_root_verifies(self, data):
        poly = data.draw(qpolys(min_degree=1, max_degree=4, bound=3).filter(
            lambda f: not f.is_zero))
        s = data.draw(quaternions(bound=3).filter(lambda q: not q.is_central))
        for root in roots_in_subfield(poly, s):
            assert eval_right(poly, root).is_zero
            assert in_subfield(root, s)


class TestConjugationKernel:
    def test_dimension_four_when_sphere_is_roots(self):
        kernel = conjugation_root_kernel(parse_to_qpoly("x^2 + 1"), A.i)
        assert len(kernel) == 4

    def test_dimension_zero_when_class_misses(self):
        assert conjugation_root_kernel(parse_to_qpoly("x^2 + x + 1"), A.i) == []

    def test_dimension_two_for_isolated_root(self):
        kernel = conjugation_root_kernel(parse_to_qpoly("(x - i)(x^2 - 1)"), A.j)
        assert len(kernel) == 2
        for y in kernel:
            conj = y * A.j * y.inverse()
            assert eval_right(parse_to_qpoly("(x - i)(x^2 - 1)"), conj).is_zero

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel_dimension_is_even(self, data):
        poly = data.draw(qpolys(min_degree=1, max_degree=4, bound=3).filter(
            lambda f: not f.is_zero))
        c = data.draw(quaternions(bound=3).filter(lambda q: not q.is_central))
        kernel = conjugation_root_kernel(poly, c)
        assert len(kernel) in (0, 2, 4)
        # kernel vectors map c onto roots
        for y in kernel:
            if not y.is_zero:
                assert eval_right(poly, y * c * y.inverse()).is_zero

    def test_central_point_degenerates_to_scaling(self):
        # conjugation fixes a central point, so the kernel is all or
        # nothing depending on whether the point is a root
        assert conjugation_root_kernel(parse_to_qpoly("x^2 + 1"), A.one) == []
        assert len(conjugation_root_kernel(parse_to_qpoly("x^2 - 1"), A.one)) == 4


class TestNonrootConjugates:
    def test_distinct_verified_nonroots(self):
        p = parse_to_qpoly("x^2 + x + 1")
        out = nonroot_conjugates(p, A.i, 10)
        assert len(out) == 10
        assert len({q.coords() for q in out}) == 10
        for q in out:
            assert same_class(q, A.i)
            assert not eval_right(p, q).is_zero

    def test_spherical_class_has_no_nonroots(self):
        with pytest.raises(PreconditionError):
            nonroot_conjugates(parse_to_qpoly("x^2 + 1"), A.i, 3)

    def test_central_point_rejected(self):
        with pytest.raises(PreconditionError):
            nonroot_conjugates(parse_to_qpoly("x^2 + 1"), A.scalar(2), 3)
