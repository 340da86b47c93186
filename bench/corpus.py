"""Seeded input corpora for the three benchmark workloads.

Every input is generated as text from ``random.Random`` seeded by the
workload name and ``--seed``, so one seed always yields the same
corpus and the program under test receives only the generated text.
Inputs are grouped in *blocks* of fixed composition (one input of each
kind per block); a run walks the blocks in order, so any prefix of a
run has nearly the same mix of input kinds whatever the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

#: The six worked cubics; their CLI documents are the repository goldens
#: ``tests/golden/classify_cubic_<n>.json``, in this order.
EXAMPLE_CUBICS = (
    "x^3 - x",
    "x^3 + x",
    "x^3 - i x^2 - x + i",
    "x^3 - i x^2 + x - i",
    "x^3 + (2 - i) x^2 + (1 - 2i) x - i",
    "x^3 + (1 - i) x^2 + (1 - i) x - i",
)

HAMILTON_AB = (-1, -1)
SECOND_AB = (-1, -2)

#: Inputs a backend is known to miss at the commit that defined this
#: benchmark (``known_misses.json``).  They stay in every block of their
#: workload, so a fix shows as a falling ``error_rate``.
KNOWN_MISSES = json.loads((Path(__file__).resolve().parent / "known_misses.json").read_text())
#: The three ROADMAP item-2 probes of the exact backend.
PROBES = tuple(entry["input"] for entry in KNOWN_MISSES
               if entry["workload"] == "exact-classify")

#: The float backend refuses, by its documented ``max_condition``
#: contract, companions whose coefficient spread exceeds 1e12, and
#: locates classes closer than its eigenvalue scatter only up to that
#: scatter (a documented resolution limit).  The float corpus therefore
#: keeps companion spreads within MAX_CONDITION and classes MIN_GAP apart.
MAX_CONDITION = 1e12
MIN_GAP = 1.0

# (central, sphere, point) factor counts of a planted product, by degree;
# a fixed recipe keeps the cost of each block steady across seeds.
_RECIPES = {
    4: (1, 1, 1),
    5: (1, 1, 2),
    6: (2, 1, 2),
    7: (1, 2, 2),
    8: (2, 2, 2),
    9: (3, 2, 2),
    10: (2, 2, 4),
    11: (3, 2, 4),
    12: (3, 3, 3),
    16: (4, 4, 4),
    20: (4, 5, 6),
}


@dataclass(frozen=True)
class Planted:
    """A product of linear and quadratic factors with known root classes.

    ``classes`` tags each planted class: ("central", v) is a central
    root, ("sphere", t, n) a spherical class and ("point", t, n) the
    class of a non-central linear factor, which holds an isolated root.
    ``norms`` holds (t, n, power) for each factor: the companion is the
    product of the ``(x^2 - t x + n)^power``.
    """

    text: str
    classes: tuple
    norms: tuple


@dataclass(frozen=True)
class Op:
    """One operation of a workload: what to run and how to check it."""

    kind: str
    text: str
    ab: tuple = HAMILTON_AB
    degree: int = 0
    planted: tuple = ()
    argv: tuple = ()
    coeffs: tuple = ()
    extra: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def label(self) -> str:
        if self.argv:
            return " ".join(self.argv[:1]) + f" [{self.kind}] " + self.text
        return f"[{self.kind} (a,b)={self.ab}] {self.text}"


# -- text builders -------------------------------------------------------------


def quat_text(coords) -> str:
    """A parenthesized quaternion literal, e.g. ``(1 - 2i + 1/2 k)``."""
    terms = []
    for value, unit in zip(coords, ("", "i", "j", "k")):
        value = Fraction(value)
        if value == 0:
            continue
        mag = abs(value)
        if unit and mag == 1:
            body = unit
        elif unit:
            body = f"{str(mag)} {unit}"
        else:
            body = str(mag)
        terms.append(("-" if value < 0 else "+", body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return f"({out})"


def _power(d: int) -> str:
    return "" if d == 0 else ("x" if d == 1 else f"x^{d}")


def poly_text(coeffs_const_first) -> str:
    """Text of sum c_d x^d; each coefficient is a 4-tuple of rationals."""
    terms = []
    for d in range(len(coeffs_const_first) - 1, -1, -1):
        c = coeffs_const_first[d]
        if all(Fraction(v) == 0 for v in c):
            continue
        if d > 0 and tuple(Fraction(v) for v in c) == (1, 0, 0, 0):
            terms.append(_power(d))
        else:
            terms.append((quat_text(c) + " " + _power(d)).strip())
    return " + ".join(terms) if terms else "0"


def random_monic(rng: random.Random, degree: int, bound: int = 4) -> tuple:
    """Constant-first integer coordinates of a random monic polynomial."""
    coeffs = [tuple(rng.randint(-bound, bound) for _ in range(4)) for _ in range(degree)]
    return tuple(coeffs) + ((1, 0, 0, 0),)


def random_monic_text(rng: random.Random, degree: int, bound: int = 4) -> str:
    return poly_text(random_monic(rng, degree, bound))


def _noncentral(rng: random.Random, bound: int) -> tuple:
    while True:
        q = tuple(rng.randint(-bound, bound) for _ in range(4))
        if any(q[1:]):
            return q


def _class_of(tag) -> tuple:
    if tag[0] == "central":
        return (2 * tag[1], tag[1] * tag[1])
    return (tag[1], tag[2])


def companion_spread(planted: Planted) -> Fraction:
    """Largest coefficient of the (monic) companion of a planted product,
    the product of its factors' norms ``(x^2 - t x + n)^power``."""
    comp = [Fraction(1)]
    for t, n, power in planted.norms:
        for _ in range(power):
            out = [Fraction(0)] * (len(comp) + 2)
            for m, cm in enumerate(comp):
                for d, fd in enumerate((n, -t, Fraction(1))):
                    out[m + d] += cm * fd
            comp = out
    return max(abs(c) for c in comp)


def well_conditioned_product(rng: random.Random, degree: int, repeat: bool = False) -> Planted:
    """A Hamilton planted product the float backend promises to resolve:
    classes ``MIN_GAP`` apart, companion spread within ``MAX_CONDITION``."""
    while True:
        planted = planted_product(rng, degree, HAMILTON_AB, MIN_GAP, repeat)
        if companion_spread(planted) <= MAX_CONDITION:
            return planted


def planted_product(rng: random.Random, degree: int, ab=HAMILTON_AB,
                    min_gap: float = 0.25, repeat: bool = False) -> Planted:
    """A shuffled product of factors from the degree's recipe.

    Planted classes are pairwise distinct and at least ``min_gap`` apart
    in the (Re, |Im|) half-plane, so each is a separate class of the
    product.  With ``repeat`` one non-central linear factor appears
    squared (listed last in ``classes``), which gives the companion a
    multiple root.
    """
    a, b = (Fraction(v) for v in ab)
    n_central, n_sphere, n_point = _RECIPES[degree]
    if repeat:
        # the squared factor takes the place of two point factors
        n_point -= 2
    tags: list[tuple] = []
    factors: list[str] = []
    norms: list[tuple] = []

    def far_enough(tag) -> bool:
        t, n = _class_of(tag)
        re, im = float(t) / 2, max(float(n) - float(t) ** 2 / 4, 0.0) ** 0.5
        for other in tags:
            ot, on = _class_of(other)
            ore, oim = float(ot) / 2, max(float(on) - float(ot) ** 2 / 4, 0.0) ** 0.5
            if (re - ore) ** 2 + (im - oim) ** 2 < min_gap**2:
                return False
        return True

    def draw(kind: str) -> tuple:
        if kind == "central":
            v = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
            return ("central", v), f"(x - {quat_text((v, 0, 0, 0))})"
        if kind == "sphere":
            t = Fraction(rng.randint(-4, 4))
            n = t * t / 4 + rng.randint(1, 9)
            return ("sphere", t, n), f"(x^2 - {quat_text((t, 0, 0, 0))} x + {quat_text((n, 0, 0, 0))})"
        q = _noncentral(rng, 3)
        w, x, y, z = (Fraction(v) for v in q)
        return ("point", 2 * w, w * w - a * x * x - b * y * y + a * b * z * z), f"(x - {quat_text(q)})"

    kinds = ["central"] * n_central + ["sphere"] * n_sphere + ["point"] * n_point
    for kind in kinds + (["repeat"] if repeat else []):
        tag, text = draw("point" if kind == "repeat" else kind)
        while not far_enough(tag):
            tag, text = draw("point" if kind == "repeat" else kind)
        tags.append(tag)
        factors.append(text + "^2" if kind == "repeat" else text)
        norms.append(_class_of(tag) + (1 if kind == "point" else 2,))
    order = list(range(len(factors)))
    rng.shuffle(order)
    text = " ".join(factors[i] for i in order)
    return Planted(text=text, classes=tuple(tags), norms=tuple(norms))


# -- workloads -------------------------------------------------------------------


# Each exact block is 30 inputs whose sorted costs put the median inside
# the five degree-12 random inputs and p90 inside the four degree-20
# random inputs, the two most uniform groups, so both percentiles stay
# steady from seed to seed.
_EXACT_RANDOM = ((HAMILTON_AB, 12), (SECOND_AB, 12), (HAMILTON_AB, 12), (SECOND_AB, 12),
                 (HAMILTON_AB, 12), (HAMILTON_AB, 16), (SECOND_AB, 16), (HAMILTON_AB, 20),
                 (SECOND_AB, 20), (HAMILTON_AB, 20), (SECOND_AB, 20), (SECOND_AB, 24))
_EXACT_PLANTED = ((HAMILTON_AB, 4), (SECOND_AB, 4), (HAMILTON_AB, 8), (SECOND_AB, 8),
                  (HAMILTON_AB, 12), (SECOND_AB, 12), (HAMILTON_AB, 16), (SECOND_AB, 16),
                  (SECOND_AB, 20))


def exact_blocks(seed: int, count: int) -> list[list[Op]]:
    """Blocks for ``exact-classify``: random, planted, cubics and probes."""
    rng = random.Random(f"exact-classify:{seed}")
    blocks = []
    for _ in range(count):
        block: list[Op] = []
        for ab, degree in _EXACT_RANDOM:
            coeffs = random_monic(rng, degree)
            block.append(Op("random", poly_text(coeffs), ab, degree, coeffs=coeffs))
        for ab, degree in _EXACT_PLANTED:
            p = planted_product(rng, degree, ab)
            block.append(Op("planted", p.text, ab, degree))
        block.extend(Op("cubic", text, HAMILTON_AB, 3) for text in EXAMPLE_CUBICS)
        block.extend(Op("probe", text, HAMILTON_AB, 0) for text in PROBES)
        blocks.append(block)
    return blocks


#: Planted products on which the float backend misses a class (see
#: ``known_misses.json``); every float block ends with them.
FLOAT_PROBES = tuple(
    Planted(entry["input"], tuple((tag[0],) + tuple(Fraction(v) for v in tag[1:])
                                  for tag in entry["classes"]), ())
    for entry in KNOWN_MISSES if entry["workload"] == "float-classify")


def float_blocks(seed: int, count: int) -> list[list[Op]]:
    """Blocks for ``float-classify``: Hamilton planted products, degree 4-12,
    and the known float misses."""
    rng = random.Random(f"float-classify:{seed}")
    blocks = []
    for _ in range(count):
        block = []
        # every degree from 4 to 12, so costs spread without gaps and no
        # percentile sits between two groups of very different cost
        for degree, repeat in ((4, False), (5, False), (6, False), (6, True), (7, False),
                               (8, False), (9, False), (10, False), (10, True), (11, False),
                               (12, False)):
            p = well_conditioned_product(rng, degree, repeat)
            block.append(Op("planted-rep" if repeat else "planted", p.text,
                            HAMILTON_AB, degree, p.classes))
        block.extend(Op("probe", p.text, HAMILTON_AB, 0, p.classes) for p in FLOAT_PROBES)
        blocks.append(block)
    return blocks


def cli_blocks(seed: int, count: int) -> list[list[Op]]:
    """Blocks for ``cli-batch``: one CLI subprocess per operation."""
    rng = random.Random(f"cli-batch:{seed}")
    blocks = []
    json_flags = ("--format", "json")
    for _ in range(count):
        block = []
        for index, text in enumerate(EXAMPLE_CUBICS, start=1):
            block.append(Op("golden", text, HAMILTON_AB, 3,
                            argv=("classify", text) + json_flags,
                            extra={"golden": index}))
        text = random_monic_text(rng, 8)
        block.append(Op("classify", text, HAMILTON_AB, 8, argv=("classify", text) + json_flags))
        p = planted_product(rng, 12, SECOND_AB)
        block.append(Op("classify", p.text, SECOND_AB, 12,
                        argv=("classify", p.text, "--algebra=-1,-2") + json_flags))
        for degree in (8, 12):
            p = well_conditioned_product(rng, degree)
            block.append(Op("classify-numeric", p.text, HAMILTON_AB, degree,
                            argv=("classify", p.text, "--numeric") + json_flags))
        for dd, sd in ((16, 8), (10, 4)):
            dividend = random_monic_text(rng, dd, 3)
            divisor = poly_text([tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(sd)]
                                + [_noncentral(rng, 2)])
            block.append(Op("divrem", dividend, HAMILTON_AB, dd,
                            argv=("divrem", dividend, divisor) + json_flags,
                            extra={"other": divisor}))
        # a planted common right factor for gcrd to recover
        right = random_monic_text(rng, 4, 2)
        first, second = (f"({random_monic_text(rng, d, 2)})({right})" for d in (12, 8))
        block.append(Op("gcrd", first, HAMILTON_AB, 16,
                        argv=("gcrd", first, second) + json_flags, extra={"other": second}))
        # a planted central right factor for Beck's decomposition to recover
        text = f"({random_monic_text(rng, 8, 2)})(x^2 + {rng.randint(1, 9)})(x - {rng.randint(1, 5)})"
        block.append(Op("decompose", text, HAMILTON_AB, 11, argv=("decompose", text) + json_flags))
        text = random_monic_text(rng, 16)
        point = quat_text(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)))
        block.append(Op("eval", text, HAMILTON_AB, 16, argv=("eval", text, "--at", point) + json_flags,
                        extra={"at": point}))
        blocks.append(block)
    return blocks


BUILDERS = {
    "exact-classify": exact_blocks,
    "float-classify": float_blocks,
    "cli-batch": cli_blocks,
}


def build(workload: str, seed: int, count: int) -> list[list[Op]]:
    return BUILDERS[workload](seed, count)


def algebra_of(ab, quatpoly):
    if tuple(ab) == HAMILTON_AB:
        return quatpoly.HAMILTON
    return quatpoly.AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))


def build_input(op: Op, quatpoly):
    """The operation's polynomial, built through the library: random inputs
    from their coordinates by the constructors, the rest by the parser."""
    algebra = algebra_of(op.ab, quatpoly)
    if op.coeffs:
        return quatpoly.QPoly(algebra, [algebra.quat(*c) for c in op.coeffs])
    return quatpoly.parse_to_qpoly(op.text, algebra)
