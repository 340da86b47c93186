"""Tests of the benchmark itself: its oracle, its tracer and its corpora.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

import quatpoly  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def _exact_verdict(text: str, known_miss: bool = False) -> tuple:
    poly = quatpoly.parse_to_qpoly(text)
    return checks.check_exact(checks.exact_summary(quatpoly.classify(poly), quatpoly),
                              checks.exact_oracle(poly), known_miss)


def test_oracle_flags_probe_one_and_passes_x3_plus_x():
    verdict, reason = _exact_verdict(corpus.PROBES[0], known_miss=True)
    assert verdict == checks.MISS
    assert "(t=0, n=1)" in reason and "(t=2/1000003, n=1)" in reason
    assert _exact_verdict("x^3 + x") == (checks.OK, None)


def test_known_misses_miss_and_unlisted_misses_fail():
    assert len(corpus.PROBES) == 3
    for text in corpus.PROBES:
        assert _exact_verdict(text, known_miss=True)[0] == checks.MISS
        # the same missed class on an input not in known_misses.json fails
        assert _exact_verdict(text)[0] == checks.FAILED
    eps = quatpoly.NumericSettings().eps_class
    assert corpus.FLOAT_PROBES
    for planted in corpus.FLOAT_PROBES:
        poly = quatpoly.parse_to_qpoly(planted.text)
        summary = checks.float_summary(quatpoly.classify_f64(poly), quatpoly)
        assert checks.check_planted(summary, planted.classes, eps)[0] == checks.MISS


def test_oracle_fails_a_wrong_category():
    poly = quatpoly.parse_to_qpoly("x^3 + x")
    # x (x^2 + 1): the class (t=0, n=1) is spherical, so "isolated" is wrong
    summary = ((Fraction(0),), ((Fraction(0), Fraction(1), "IsolatedRoot"),))
    assert checks.check_exact(summary, checks.exact_oracle(poly))[0] == checks.FAILED


def test_planted_check_on_the_float_backend():
    import random

    planted = corpus.well_conditioned_product(random.Random(7), 8, repeat=True)
    poly = quatpoly.parse_to_qpoly(planted.text)
    summary = checks.float_summary(quatpoly.classify_f64(poly), quatpoly)
    assert checks.check_planted(summary, planted.classes, 1e-8) == (checks.OK, None)
    # a planted class that is nowhere in the report is a failure
    assert checks.check_planted(summary, planted.classes + (("sphere", 100, 10001),),
                                1e-8)[0] == checks.FAILED
    central, entries = summary
    # so is a root-bearing class reported twice, and a class or central
    # root that stands for no planted class
    bearing = next(e for e in entries if e[2] != "NoRootInClass")
    for bad in ((central, entries + (bearing,)),
                (central, entries + ((100.0, 10001.0, "SphericalRoots"),)),
                (central + (100.0,), entries)):
        verdict, reason = checks.check_planted(bad, planted.classes, 1e-8)
        assert verdict == checks.FAILED, bad
    # a class with no root is not a finding, so it may be anywhere
    debris = (central, entries + ((100.0, 10001.0, "NoRootInClass"),))
    assert checks.check_planted(debris, planted.classes, 1e-8) == (checks.OK, None)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_seed_builds_identical_corpora_in_separate_processes(workload):
    code = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import corpus; "
            f"blocks = corpus.build({workload!r}, 5, 2); "
            "print(hashlib.sha256(repr(blocks).encode()).hexdigest())")
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1
    assert corpus.build(workload, 5, 2) != corpus.build(workload, 6, 2)


def _traced_and_plain(workload, indices):
    plain = [workload.summarize(i, workload.run(i)) for i in indices]
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install(quatpoly)
    traced = []
    try:
        for i in indices:
            tracer.start_op(i)
            output = workload.run(i)
            tracer.end_op()
            traced.append(workload.summarize(i, output))
    finally:
        tracer.uninstall()
        workload.tracer = None
    return plain, traced, tracer


@pytest.mark.parametrize("name", ["exact-classify", "float-classify"])
def test_tracing_changes_no_library_result(name):
    workload = run.make_workload(name, quatpoly, 3, ROOT)
    first_block = range(len(corpus.build(name, 3, 1)[0]))
    light = [i for i in first_block if workload.ops[i].degree <= 12]
    original = quatpoly.roots.classify
    plain, traced, tracer = _traced_and_plain(workload, light)
    assert traced == plain
    assert quatpoly.roots.classify is original and quatpoly.numeric.classify is original
    layer = "roots.classify" if name == "exact-classify" else "numeric.classify_f64"
    assert tracer.stats[layer][0] == len(light)
    assert all(parent is not None for _, parent, _, name_, _, _ in tracer.records
               if name_ != "op")


def test_tracing_changes_no_cli_document():
    workload = run.make_workload("cli-batch", quatpoly, 3, ROOT)
    indices = [i for i, op in enumerate(workload.ops[:15])
               if op.argv[0] in ("gcrd", "divrem") or op.kind == "golden"][:3]
    plain, traced, tracer = _traced_and_plain(workload, indices)
    assert traced == plain
    assert tracer.stats["cli.main"][0] == len(indices)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (unit, _, _) in run.PER_LAYER.items()]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "cli-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
