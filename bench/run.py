"""The quatpoly benchmark: three single-client, closed-loop workloads.

Run from the root of a checkout (it imports ``src/quatpoly``):

    python3 bench/run.py --workload exact-classify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One process issues one operation at a time and waits for it.  A run
builds its inputs from ``--seed``, warms up, then times operations until
their summed wall time reaches ``--seconds``; every output is checked
after the timed loop.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
the same operations run under the tracer of ``tracing.py`` and then
again untraced, and the JSON holds the per-layer metrics and the
tracing overhead.  A full record of the run (machine, versions, seed,
samples, failures) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import corpus  # noqa: E402

WORKLOADS = ("exact-classify", "float-classify", "cli-batch")
#: Distinct input blocks per run; a run cycles through them.
BLOCKS = {"exact-classify": 12, "float-classify": 16, "cli-batch": 4}
SETUP_REPEATS = 5
START_REPEATS = 5
WARMUP_S = 1.0
#: Enough operations that at least ten samples lie beyond p90.
MIN_SAMPLES = 100
OUT_DIR = ".bench_out"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_rate", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name -> (unit, how it is computed from the tracer: per-op calls or self
# time of a span, a per-op counter, a maximum, or a special value)
PER_LAYER = {
    "polynomials.companion.self_ms": ("ms/op", "self", "polynomials.companion"),
    "polynomials.squarefree_part.self_ms": ("ms/op", "self", "polynomials.squarefree_part"),
    "polynomials.central_gcd.calls": ("calls/op", "calls", "polynomials.central_gcd"),
    "polynomials.central_gcd.self_ms": ("ms/op", "self", "polynomials.central_gcd"),
    "polynomials.central_divmod.calls": ("calls/op", "calls", "polynomials.central_divmod"),
    "polynomials.central_divmod.self_ms": ("ms/op", "self", "polynomials.central_divmod"),
    "polynomials.central_divmod.max_coeff_bits": (
        "bits", "max", "polynomials.central_divmod.max_coeff_bits"),
    "roots.candidate_classes.self_ms": ("ms/op", "self", "roots.candidate_classes"),
    "roots.candidate_classes.proposed": (
        "count/op", "counter", "roots.candidate_classes.proposed"),
    "roots.candidate_classes.certified": (
        "count/op", "counter", "roots.candidate_classes.certified"),
    "roots.candidate_classes.certified_ratio": ("ratio", "certified_ratio", None),
    "decompose.rational_roots.self_ms": ("ms/op", "self", "decompose.rational_roots"),
    "decompose.rational_roots.candidates_tried": (
        "count/op", "counter", "decompose.rational_roots.candidates_tried"),
    "decompose.beck_decompose.self_ms": ("ms/op", "self", "decompose.beck_decompose"),
    "algebra.quat_mul.calls": ("calls/op", "counter", "algebra.quat_mul"),
    "algebra.quat_inverse.calls": ("calls/op", "counter", "algebra.quat_inverse"),
    "polynomials.qpoly_mul.calls": ("calls/op", "calls", "polynomials.qpoly_mul"),
    "polynomials.qpoly_mul.self_ms": ("ms/op", "self", "polynomials.qpoly_mul"),
    "polynomials.right_divrem.calls": ("calls/op", "calls", "polynomials.right_divrem"),
    "polynomials.right_divrem.self_ms": ("ms/op", "self", "polynomials.right_divrem"),
    "polynomials.gcrd.calls": ("calls/op", "calls", "polynomials.gcrd"),
    "polynomials.gcrd.self_ms": ("ms/op", "self", "polynomials.gcrd"),
    "roots.class_status.calls": ("calls/op", "calls", "roots.class_status"),
    "roots.class_status.self_ms": ("ms/op", "self", "roots.class_status"),
    "roots.classify.self_ms": ("ms/op", "self", "roots.classify"),
    "numeric.classify_f64.self_ms": ("ms/op", "self", "numeric.classify_f64"),
    "numeric.companion_roots_f64.self_ms": ("ms/op", "self", "numeric.companion_roots_f64"),
    "numeric.uncertain_entries": ("count/op", "counter", "numeric.uncertain_entries"),
    "numeric.numeric_failures": ("count/op", "counter", "numeric.numeric_failures"),
    "realroots.real_poly_roots.calls": ("calls/op", "calls", "realroots.real_poly_roots"),
    "realroots.real_poly_roots.self_ms": ("ms/op", "self", "realroots.real_poly_roots"),
    "realroots.real_poly_roots.max_degree": (
        "degree", "max", "realroots.real_poly_roots.max_degree"),
    "cli.process_start_ms": ("ms", "special", None),
    "cli.import_ms": ("ms", "special", None),
    "cli.main.self_ms": ("ms/op", "self", "cli.main"),
    "parsing.parse_to_qpoly.self_ms": ("ms/op", "self", "parsing.parse_to_qpoly"),
    "parsing.poly_to_json_obj.self_ms": ("ms/op", "self", "parsing.poly_to_json_obj"),
    "trace.overhead_ratio": ("ratio", "special", None),
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_quatpoly(root: Path):
    src = root / "src"
    if not (src / "quatpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: no quatpoly sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import quatpoly

    if Path(quatpoly.__file__).resolve().parent != (src / "quatpoly").resolve():
        raise SystemExit(f"error: imported quatpoly from {quatpoly.__file__}, not {src}")
    return quatpoly


# -- workloads -----------------------------------------------------------------------


class LibraryWorkload:
    """One library call per operation; outputs are summarized, then checked."""

    def __init__(self, name: str, quatpoly, seed: int, root: Path):
        self.name, self.qp, self.root = name, quatpoly, root
        self.ops = [op for block in corpus.build(name, seed, BLOCKS[name]) for op in block]
        self.inputs = [corpus.build_input(op, quatpoly) for op in self.ops]
        self.tracer = None

    def run(self, index: int):
        if self.name == "exact-classify":
            return self.qp.classify(self.inputs[index])
        return self.qp.classify_f64(self.inputs[index])

    def summarize(self, index: int, output):
        if self.name == "exact-classify":
            return checks.exact_summary(output, self.qp)
        return checks.float_summary(output, self.qp)

    def check(self, index: int, summary) -> tuple:
        if self.name == "exact-classify":
            return checks.check_exact(summary, checks.exact_oracle(self.inputs[index]),
                                      known_miss=self.ops[index].kind == "probe")
        return checks.check_planted(summary, self.ops[index].planted,
                                    self.qp.NumericSettings().eps_class)


class CliWorkload:
    """One ``python -m quatpoly ... --format json`` subprocess per operation."""

    name = "cli-batch"

    def __init__(self, quatpoly, seed: int, root: Path):
        self.qp, self.root = quatpoly, root
        self.ops = [op for block in corpus.build(self.name, seed, BLOCKS[self.name])
                    for op in block]
        for op in self.ops:
            algebra = corpus.algebra_of(op.ab, quatpoly)
            quatpoly.parse_to_qpoly(op.text, algebra)
            if "other" in op.extra:
                quatpoly.parse_to_qpoly(op.extra["other"], algebra)
        self.env = child_env(root)
        self.tracer = None

    def run(self, index: int):
        if self.tracer is None:
            prefix = [sys.executable, "-m", "quatpoly"]
        else:
            prefix = [sys.executable, str(BENCH_DIR / "cli_traced.py")]
        done = subprocess.run(prefix + list(self.ops[index].argv), cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def summarize(self, index: int, output):
        returncode, stdout, stderr = output
        if self.tracer is not None:
            from tracing import TRACE_MARK

            payload = [line for line in stderr.splitlines() if line.startswith(TRACE_MARK)]
            if payload:
                data = json.loads(payload[-1][len(TRACE_MARK):])
                self.tracer.merge(data["snapshot"], data["records"])
        return returncode, stdout

    def check(self, index: int, summary) -> tuple:
        returncode, stdout = summary
        return checks.check_cli(self.ops[index], stdout, returncode, self.qp, self.root)


def make_workload(name: str, quatpoly, seed: int, root: Path):
    if name == "cli-batch":
        return CliWorkload(quatpoly, seed, root)
    return LibraryWorkload(name, quatpoly, seed, root)


# -- measuring ---------------------------------------------------------------------


def timed_loop(workload, seconds: float, count: int | None = None, min_samples: int = 0):
    """Closed loop over the corpus; returns latencies and output tallies.

    Stops when the summed operation time reaches ``seconds`` and at least
    ``min_samples`` operations ran (or after exactly ``count``
    operations).  Only the call itself is timed; summarizing the output
    happens between operations.
    """
    latencies: list[float] = []
    outcomes: dict[int, Counter] = defaultdict(Counter)
    tracer = workload.tracer
    n = len(workload.ops)
    busy, i = 0.0, 0
    wall_limit = time.perf_counter() + 3 * seconds + 30

    def more() -> bool:
        if count is not None:
            return i < count
        return (busy < seconds or i < min_samples) and time.perf_counter() < wall_limit

    while more():
        index = i % n
        if tracer is not None:
            tracer.start_op(i)
        start = time.perf_counter()
        try:
            output, error = workload.run(index), None
        except Exception as err:  # a failed operation is a result, not a crash
            output, error = None, f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        latencies.append(elapsed)
        busy += elapsed
        key = ("raised", error) if error else workload.summarize(index, output)
        outcomes[index][key] += 1
        i += 1
    return latencies, outcomes


def judge(workload, outcomes) -> tuple[Counter, list]:
    """Tally verdicts over every operation and list the inputs that missed
    or failed, with their counts."""
    tally: Counter = Counter()
    problems: Counter = Counter()
    for index, seen in sorted(outcomes.items()):
        for key, count in seen.items():
            if key[0] == "raised":
                verdict, reason = checks.FAILED, key[1]
            else:
                verdict, reason = workload.check(index, key)
            tally[verdict] += count
            if verdict != checks.OK:
                problems[(verdict, workload.ops[index].label, reason)] += count
    return tally, [{"verdict": verdict, "count": count, "input": label, "reason": reason}
                   for (verdict, label, reason), count in problems.items()]


def median_wall(argv: list, env: dict, cwd: Path, repeats: int, until_line: bool = False) -> float:
    """Median seconds from spawning ``argv`` to its exit, or to its first
    line of output with ``until_line``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
        try:
            if until_line:
                proc.stdout.readline()
                samples.append(time.perf_counter() - start)
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if not until_line:
            samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: {argv} exited with {proc.returncode}")
    return statistics.median(samples)


def latency_metrics(latencies: list, block: int) -> dict:
    """Percentiles over every operation; throughput as the median over
    passes through one block, so a burst of load on a shared machine
    moves it less than a mean over the whole run would."""
    p90 = statistics.quantiles(latencies, n=10)[8]
    passes = [sum(latencies[k:k + block]) for k in range(0, len(latencies) - block + 1, block)]
    return {"ops_per_s": block / statistics.median(passes),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "beyond_p90": sum(1 for v in latencies if v > p90)}


def layer_metrics(tracer, ops: int, extra: dict) -> dict:
    """Per-operation layer figures from the tracer, plus ``extra`` values."""
    out = {}
    for name, (unit, how, key) in PER_LAYER.items():
        if how == "self":
            value = tracer.stats[key][2] / 1e6 / ops if key in tracer.stats else 0.0
        elif how == "calls":
            value = tracer.stats[key][0] / ops if key in tracer.stats else 0.0
        elif how == "counter":
            value = tracer.counters.get(key, 0) / ops
        elif how == "max":
            value = tracer.maxima.get(key, 0)
        elif how == "certified_ratio":
            proposed = tracer.counters.get("roots.candidate_classes.proposed", 0)
            value = tracer.counters.get("roots.candidate_classes.certified", 0) / proposed \
                if proposed else 0.0
        else:
            value = extra[name]
        out[name] = {"value": value, "unit": unit}
    return out


def environment(args) -> dict:
    import numpy

    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor(), "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# -- one workload ----------------------------------------------------------------------


def run_workload(args, root: Path) -> int:
    quatpoly = load_quatpoly(root)
    workload = make_workload(args.workload, quatpoly, args.seed, root)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    env = child_env(root)
    timed_loop(workload, min(WARMUP_S, args.seconds / 10))
    if args.trace:
        from tracing import Tracer

        workload.tracer = Tracer()
        workload.tracer.install(quatpoly)
        latencies, outcomes = timed_loop(workload, args.seconds, min_samples=MIN_SAMPLES)
        workload.tracer.uninstall()
        tracer, workload.tracer = workload.tracer, None
        plain, plain_outcomes = timed_loop(workload, args.seconds, count=len(latencies))
        bare = median_wall([sys.executable, "-c", "pass"], env, root, START_REPEATS)
        imported = median_wall([sys.executable, "-c", "import quatpoly.cli"], env, root,
                               START_REPEATS)
        extra = {"trace.overhead_ratio": sum(latencies) / sum(plain) - 1.0,
                 "cli.process_start_ms": bare * 1e3, "cli.import_ms": (imported - bare) * 1e3}
        metrics = layer_metrics(tracer, len(latencies), extra)
        tracer.write_spans(root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        same = plain_outcomes == outcomes
    else:
        latencies, outcomes = timed_loop(workload, args.seconds, min_samples=MIN_SAMPLES)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli-batch"
                                   else resource.RUSAGE_SELF)
        peak_rss_mb = usage.ru_maxrss / 1024.0
        same = True
    tally, problems = judge(workload, outcomes)
    if not same:
        tally[checks.FAILED] += 1
        problems.append({"verdict": checks.FAILED, "count": 1, "input": "(all)",
                         "reason": "traced and untraced runs gave different outputs"})
    attempted = len(latencies)
    lat = latency_metrics(latencies, len(workload.ops) // BLOCKS[args.workload])
    if not args.trace:
        setup_s = median_wall([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                               args.workload, "--seed", str(args.seed), "--setup-only"],
                              env, root, SETUP_REPEATS, until_line=True)
        values = {"ops_per_s": lat["ops_per_s"], "latency_p50_ms": lat["latency_p50_ms"],
                  "latency_p90_ms": lat["latency_p90_ms"],
                  "ok_rate": tally[checks.OK] / attempted, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": tally[checks.FAILED] == 0, "attempted": attempted,
              "failed": tally[checks.FAILED], "metrics": metrics}
    report(args, result, lat, tally, problems, root)
    print(json.dumps(result), flush=True)
    return 0


def report(args, result, lat, tally, problems, root: Path):
    """Human-readable summary on stdout, full record under .bench_out/."""
    env = environment(args)
    attempted = result["attempted"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} | {env['machine']} "
          f"nproc={env['nproc']} python {env['python']} numpy {env['numpy']}")
    print(f"  samples {attempted}, {lat['beyond_p90']} beyond p90; "
          f"error_rate {(tally[checks.MISS] + tally[checks.FAILED]) / attempted:.4f} "
          f"({tally[checks.MISS]} missed, {tally[checks.FAILED]} failed)")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    known = {entry["input"] for entry in corpus.KNOWN_MISSES}
    for problem in problems:
        tag = "known " if any(text in problem["input"] for text in known) else ""
        print(f"  {tag}{problem['verdict']} x{problem['count']}: {problem['input']} -- "
              f"{problem['reason']}")
    out = root / OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"environment": env, "result": result, "latency": lat,
                               "verdicts": dict(tally), "problems": problems}, indent=1))


# -- every workload -----------------------------------------------------------------------


def run_all(args, root: Path) -> int:
    """Run each workload in its own process and print one table."""
    rows, status = [], 0
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            status = 1
            continue
        rows.append((name, json.loads(lines[-1])))
    print()
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:44s} {value['value']:14.6g} {value['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (times set-up)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
