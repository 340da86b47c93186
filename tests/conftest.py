"""Shared generators and the acceptance-criteria summary.

Random data comes in two flavors: hypothesis strategies for property
tests, and seeded ``random.Random`` helpers for the acceptance suite,
which needs reproducible corpora with controlled class separation.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from quatpoly import HAMILTON, AlgebraParams, QPoly, Quaternion

#: Division algebras exercised beside Hamilton's; a < 0 and b < 0 keeps
#: the norm form anisotropic over the rationals.
DIVISION_ALGEBRAS = [
    HAMILTON,
    AlgebraParams(Fraction(-1), Fraction(-2)),
    AlgebraParams(Fraction(-2), Fraction(-3)),
    AlgebraParams(Fraction(-1), Fraction(-7)),
]

#: Division algebras with denominators in a and in b, which the integer
#: kernels clear.
FRACTIONAL_ALGEBRAS = [
    AlgebraParams(Fraction(-1, 2), Fraction(-3)),
    AlgebraParams(Fraction(-2, 3), Fraction(-5, 7)),
]


def small_fractions(bound: int = 10, max_denominator: int = 6):
    return st.fractions(
        min_value=-bound, max_value=bound, max_denominator=max_denominator
    )


def quaternions(algebra: AlgebraParams = HAMILTON, bound: int = 10):
    f = small_fractions(bound)
    return st.builds(algebra.quat, f, f, f, f)


def nonzero_quaternions(algebra: AlgebraParams = HAMILTON, bound: int = 10):
    return quaternions(algebra, bound).filter(lambda q: not q.is_zero)


@st.composite
def qpolys(draw, algebra: AlgebraParams = HAMILTON, max_degree: int = 6,
           bound: int = 10, min_degree: int = 0):
    degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
    coeffs = [draw(quaternions(algebra, bound)) for _ in range(degree + 1)]
    return QPoly(algebra, coeffs)


@st.composite
def monic_qpolys(draw, algebra: AlgebraParams = HAMILTON, max_degree: int = 6,
                 bound: int = 10, min_degree: int = 1):
    degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
    coeffs = [draw(quaternions(algebra, bound)) for _ in range(degree)]
    coeffs.append(algebra.one)
    return QPoly(algebra, coeffs)


def product_count(monkeypatch, cls, power) -> int:
    """How many ``cls.__mul__`` calls ``power()`` makes."""
    calls, mul = [], cls.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(cls, "__mul__", counted)
        power()
    return len(calls)


@pytest.fixture(scope="session")
def sympy():
    """The sympy oracle; tests that use it skip where it is missing."""
    return pytest.importorskip("sympy")


# -- seeded helpers for the acceptance corpus ---------------------------------


def rand_fraction(rng: random.Random, bound: int = 10, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))


def rand_quat(rng: random.Random, algebra: AlgebraParams = HAMILTON,
              bound: int = 10) -> Quaternion:
    return algebra.quat(*(rand_fraction(rng, bound) for _ in range(4)))


def rand_poly(rng: random.Random, degree: int,
              algebra: AlgebraParams = HAMILTON, bound: int = 10) -> QPoly:
    coeffs = [rand_quat(rng, algebra, bound) for _ in range(degree)]
    lead = rand_quat(rng, algebra, bound)
    while lead.is_zero:
        lead = rand_quat(rng, algebra, bound)
    return QPoly(algebra, coeffs + [lead])


def rand_monic(rng: random.Random, degree: int,
               algebra: AlgebraParams = HAMILTON, bound: int = 10) -> QPoly:
    coeffs = [rand_quat(rng, algebra, bound) for _ in range(degree)]
    return QPoly(algebra, coeffs + [algebra.one])


def separated_class_product(rng: random.Random, algebra: AlgebraParams = HAMILTON,
                            max_degree: int = 5, min_gap: float = 0.1):
    """A monic product of linear/quadratic factors with distinct classes.

    Class positions (v, 0) for central values and (t/2, sqrt(n - t^2/4))
    for spheres are kept at least ``min_gap`` apart, so both backends
    must resolve every factor; returns (poly, classes) where classes is
    a list of ("central", v) and ("sphere", t, n) tags.
    """
    import math

    def position(tag):
        if tag[0] == "central":
            return (float(tag[1]), 0.0)
        _, t, n = tag
        half = float(t) / 2.0
        return (half, math.sqrt(max(float(n) - half * half, 0.0)))

    poly = QPoly(algebra, [algebra.one])
    tags: list[tuple] = []
    budget = rng.randint(1, max_degree)
    guard = 0
    while budget > 0 and guard < 200:
        guard += 1
        kind = rng.choice(["central", "sphere", "point"] if budget >= 2
                          else ["central", "point"])
        if kind == "central":
            v = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4]))
            tag = ("central", v)
            factor = QPoly(algebra, [algebra.scalar(-v), algebra.one])
            cost = 1
        elif kind == "sphere":
            t = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            n = t * t / 4 + Fraction(rng.randint(1, 12), rng.choice([1, 2, 4]))
            tag = ("sphere", t, n)
            factor = QPoly(algebra, [algebra.scalar(n), algebra.scalar(-t), algebra.one])
            cost = 2
        else:
            q = rand_quat(rng, algebra, 4)
            if q.is_central or q.pure().norm() == 0:
                continue
            tag = ("sphere", q.trace(), q.norm())
            factor = QPoly(algebra, [-q, algebra.one])
            cost = 1
        px, py = position(tag)
        too_close = any(
            (px - ox) ** 2 + (py - oy) ** 2 < min_gap**2
            for ox, oy in (position(other) for other in tags)
        )
        if too_close:
            continue
        poly = poly * factor
        tags.append(tag)
        budget -= cost
    return poly, tags


# -- acceptance criterion bookkeeping -----------------------------------------

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


@contextmanager
def criterion(name: str):
    """Record pass/fail of one acceptance criterion for the summary."""
    try:
        yield
    except BaseException as err:
        ACCEPTANCE_RESULTS.append((name, False, f"{type(err).__name__}: {err}"))
        raise
    else:
        ACCEPTANCE_RESULTS.append((name, True, ""))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
