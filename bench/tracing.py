"""Spans and counters around quatpoly's public functions, from outside.

``Tracer.install(quatpoly)`` replaces each traced function by a wrapper
that records a span: its name, start, end, the span that was open when
it was called, and the operation it belongs to.  Functions imported by
name into other modules (``roots``, ``numeric``, ``decompose`` and
``cli`` do this) are patched at every module binding, so no call slips
past.  ``uninstall`` restores the originals.

The hottest arithmetic (``Quaternion.__mul__``, ``Quaternion.inverse``,
``QPoly.__mul__``, ``CentralPoly.__divmod__``) is counted and timed in
aggregate rather than recorded span by span.  Self time of a layer is
its span time minus the time of the traced calls it made.  Spans stay in
memory until ``write_spans`` at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

#: Prefix of the line on which a traced subprocess reports its spans.
TRACE_MARK = "@@bench-trace@@"

# (module, attribute, span name) of every traced free function
FUNCTIONS = (
    ("roots", "classify", "roots.classify"),
    ("roots", "candidate_classes", "roots.candidate_classes"),
    ("roots", "class_status", "roots.class_status"),
    ("polynomials", "right_divrem", "polynomials.right_divrem"),
    ("polynomials", "gcrd", "polynomials.gcrd"),
    ("polynomials", "central_gcd", "polynomials.central_gcd"),
    ("decompose", "beck_decompose", "decompose.beck_decompose"),
    ("decompose", "rational_roots", "decompose.rational_roots"),
    ("numeric", "classify_f64", "numeric.classify_f64"),
    ("numeric", "companion_roots_f64", "numeric.companion_roots_f64"),
    ("_realroots", "real_poly_roots", "realroots.real_poly_roots"),
    ("parsing", "parse_to_qpoly", "parsing.parse_to_qpoly"),
    ("parsing", "poly_to_json_obj", "parsing.poly_to_json_obj"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name, recorded per call)
METHODS = (
    ("polynomials", "QPoly", "companion", "polynomials.companion", True),
    ("polynomials", "CentralPoly", "squarefree_part", "polynomials.squarefree_part", True),
    ("polynomials", "QPoly", "__mul__", "polynomials.qpoly_mul", False),
    ("polynomials", "CentralPoly", "__divmod__", "polynomials.central_divmod", False),
)


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


class Tracer:
    """Collects spans, per-layer call counts and times, and counters."""

    def __init__(self):
        # name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.records: list[tuple] = []
        self._stack: list[list] = []  # open frames: [span id, name, child_ns]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.op_id: int | None = None
        self._op_span: int | None = None
        self._op_start = 0

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name: str, fn, record: bool = True, after=None, on_error=None):
        stack, stats, records = self._stack, self.stats, self.records

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            parent = stack[-1][0] if stack else self._op_span
            frame = [self._next_id, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(err)
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if record:
                    records.append((frame[0], parent, self.op_id, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def start_op(self, op_id: int):
        """Open the root span of one benchmark operation."""
        self._next_id += 1
        self.op_id, self._op_span, self._op_start = op_id, self._next_id, perf_counter_ns()

    def end_op(self):
        self.records.append((self._op_span, None, self.op_id, "op", self._op_start,
                             perf_counter_ns()))
        self.op_id = self._op_span = None

    # -- counters on the hottest arithmetic ---------------------------------------

    def _count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------------

    def _bindings(self, quatpoly):
        prefix = quatpoly.__name__
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def _patch_everywhere(self, quatpoly, original, wrapper):
        for module in self._bindings(quatpoly):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, quatpoly):
        """Wrap every traced function and method of the loaded package."""
        import importlib

        mods = {name: importlib.import_module(f"{quatpoly.__name__}.{name}")
                for name in ("algebra", "polynomials", "decompose", "roots", "numeric",
                             "_realroots", "parsing", "cli")}
        counters, maxima = self.counters, self.maxima

        def candidates_after(args, result):
            counters["roots.candidate_classes.certified"] += len(result)

        def f64_after(args, result):
            counters["numeric.uncertain_entries"] += len(result.uncertain_entries)

        def f64_error(err):
            if isinstance(err, quatpoly.NumericFailure):
                counters["numeric.numeric_failures"] += 1

        def realroots_after(args, result):
            maxima["realroots.real_poly_roots.max_degree"] = max(
                maxima["realroots.real_poly_roots.max_degree"], len(result))

        hooks = {
            "roots.candidate_classes": {"after": candidates_after},
            "numeric.classify_f64": {"after": f64_after, "on_error": f64_error},
            "realroots.real_poly_roots": {"after": realroots_after},
        }
        for module, attr, name in FUNCTIONS:
            original = getattr(mods[module], attr)
            self._patch_everywhere(quatpoly, original, self._wrap(name, original,
                                                                 **hooks.get(name, {})))

        def divmod_after(args, result):
            if result is NotImplemented:
                return
            bits = max(_coeff_bits(args[0]), _coeff_bits(args[1]))
            if bits > maxima["polynomials.central_divmod.max_coeff_bits"]:
                maxima["polynomials.central_divmod.max_coeff_bits"] = bits

        for module, cls_name, attr, name, record in METHODS:
            cls = getattr(mods[module], cls_name)
            after = divmod_after if attr == "__divmod__" else None
            self._patch_attr(cls, attr, self._wrap(name, cls.__dict__[attr], record, after))

        quat = mods["algebra"].Quaternion
        self._patch_attr(quat, "__mul__", self._count("algebra.quat_mul", quat.__dict__["__mul__"]))
        self._patch_attr(quat, "inverse", self._count("algebra.quat_inverse",
                                                      quat.__dict__["inverse"]))

        # proposals reach candidate_classes through pair_and_cluster; the
        # rational-root sieve tries each candidate by one CentralPoly.evaluate
        pair = mods["roots"].pair_and_cluster
        stack = self._stack

        @functools.wraps(pair)
        def counted_pair(*args, **kwargs):
            reals, spheres = pair(*args, **kwargs)
            counters["roots.candidate_classes.proposed"] += len(reals) + len(spheres)
            return reals, spheres

        self._patch_everywhere(quatpoly, pair, counted_pair)
        central = mods["polynomials"].CentralPoly
        evaluate = central.__dict__["evaluate"]

        @functools.wraps(evaluate)
        def counted_evaluate(poly, point):
            if stack and stack[-1][1] == "decompose.rational_roots":
                counters["decompose.rational_roots.candidates_tried"] += 1
            return evaluate(poly, point)

        self._patch_attr(central, "evaluate", counted_evaluate)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain data, for merging across processes."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters),
                "maxima": dict(self.maxima)}

    def merge(self, snapshot: dict, records=()):
        for name, (calls, total, self_ns) in snapshot["stats"].items():
            entry = self.stats[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_ns
        for name, value in snapshot["counters"].items():
            self.counters[name] += value
        for name, value in snapshot["maxima"].items():
            self.maxima[name] = max(self.maxima[name], value)
        # span ids of another process are shifted past this tracer's ids;
        # its top-level spans hang off the currently open operation
        base = self._next_id
        for sid, parent, _, name, start, end in records:
            self.records.append((base + sid, self._op_span if parent is None else base + parent,
                                 self.op_id, name, start, end))
            self._next_id = max(self._next_id, base + sid)

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                       "spans": self.records}, out)
