#!/usr/bin/env python3
"""End-to-end benchmark of cbix: build, run, check, report.

Builds bench/e2e in Release (into .bench_build/e2e at the repository
root), runs each workload in a fresh process of e2e_bench, checks its
correctness verdicts, and prints every metric of BENCHMARK.json by name
with its unit. README.md explains the workloads and the metrics.

  python3 bench/e2e/run.py --seed S [--workload W] [--seconds T]
                           [--trace 0|1 | --traced]
                           [--repeat N] [--check-repeatability]

The untraced run (--trace 0, the default) reports the end-to-end
metrics; the traced run (--trace 1) the per-layer metrics and the
critical-path table. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"} for one workload,
with "metrics" replaced by "workloads" (one metrics object each) when
several workloads ran. The exit code is 0 only when every correctness
check passed.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build" / "e2e"
SCRATCH_DIR = BUILD_DIR / "scratch"
BINARY = BUILD_DIR / "e2e_bench"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]+$")

PERCENTILES = {"p05": 0.05, "p50": 0.50, "p99": 0.99}

# How each declared metric is computed from the binary's raw output.
#   ("value",)             the scalar e2e_bench reports under that name
#   ("p05" | "p50" | "p99", S)
#                          that percentile of series S
#   ("median", S)          the median of series S (repeated set-ups)
#   ("mean", S)            the mean of series S
#   ("overhead", T, U)     100 * (p50(T) / p50(U) - 1)
# Latency is a low percentile because the host makes whole stretches of
# a CPU fast or slow, and the slow share drifts over minutes: p05 is the
# latency of a request the host left alone (README.md, Workloads).
END_TO_END = {
    "setup_s": ("median", "setup_s"),
    "latency_p05_ms": ("p05", "latency_ms"),
    "peak_rss_mb": ("value",),
    "distance_evals_per_query": ("value",),
    "recall_at_10": ("value",),
    "p_at_10": ("value",),
    "map_at_10": ("value",),
}

PER_LAYER = {
    "client.qps": ("value",),
    "client.latency_p50_ms": ("p50", "latency_ms"),
    "client.latency_p99_ms": ("p99", "latency_ms"),
    "image.decode_share": ("value",),
    "features.extract_share": ("value",),
    "client.gap_ms_p50": ("p50", "client.gap_ms"),
    "serving.search_ms_p50": ("p50", "serving.search_ms"),
    "serving.search_ms_p99": ("p99", "serving.search_ms"),
    "serving.self_ms_p50": ("p50", "serving.self_ms"),
    "serving.delta_share": ("value",),
    "serving.delta_rows_mean": ("mean", "serving.delta_rows"),
    "serving.merges": ("value",),
    "serving.merge_stall_share": ("value",),
    "serving.load_s": ("median", "serving.load_s"),
    "engine.knn_batch_ms_p50": ("p50", "engine.knn_batch_ms"),
    "engine.self_ms_p50": ("p50", "engine.self_ms"),
    "engine.queue_wait_ms_p50": ("p50", "engine.queue_wait_ms"),
    "engine.shard_skew": ("p50", "engine.shard_skew"),
    "engine.work_items_per_call": ("value",),
    "engine.retries": ("value",),
    "engine.work_item_failures": ("value",),
    "index.shard_ms_p50": ("p50", "index.shard_ms"),
    "index.shard_ms_p99": ("p99", "index.shard_ms"),
    "index.distance_evals_per_query": ("value",),
    "index.evals_fraction": ("value",),
    "index.nodes_visited_per_query": ("value",),
    "index.leaves_visited_per_query": ("value",),
    "index.ef_survivors_per_query": ("value",),
    "quant.rerank_evals_per_query": ("value",),
    "quant.rerank_share": ("value",),
    "distance.ns_per_eval": ("value",),
    "obs.trace_overhead_pct": (
        "overhead", "serving.search_ms_traced", "serving.search_ms_untraced"),
}

# End-to-end metrics that are a function of the seed alone: two runs
# with one seed must report them identically. They come from the
# evaluation queries, searched after the timed phase (on ingest_mixed
# after Flush), so no timing reaches them.
DETERMINISTIC = ("distance_evals_per_query", "recall_at_10", "p_at_10",
                 "map_at_10")


class BenchError(Exception):
    """A run that cannot report: a build, usage or sample-size failure."""


# ---------------------------------------------------------------------------
# Statistics.

def percentile(values, q):
    """Nearest-rank q-quantile, reported only when at least ten samples
    lie beyond it on the side of its tail: above a p50 or a p99, below a
    p05 (a p99 needs 1,000 samples, a p50 twenty, a p05 220)."""
    n = len(values)
    rank = math.ceil(q * n)
    beyond = rank - 1 if q < 0.5 else n - rank
    if n == 0 or beyond < 10:
        raise BenchError(
            f"p{q * 100:g} of {n} samples has {max(0, beyond)} beyond it; "
            "at least 10 are needed")
    return sorted(values)[rank - 1]


def median(values):
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else (0.0 if q3 == q1 else math.inf)


def worsening(better, base, head):
    """How much worse `head` is than `base`, as a share of `base`
    (negative when it is better)."""
    if base == 0:
        return 0.0 if head == base else math.inf
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def within_bound(metric, base, head):
    return worsening(metric["better"], base, head) <= metric["bound"]


# ---------------------------------------------------------------------------
# BENCHMARK.json.

def load_spec(path=BENCHMARK):
    with open(path) as f:
        spec = json.load(f)
    validate_spec(spec)
    return spec


def validate_spec(spec):
    """The structural rules of BENCHMARK.json: its keys, counts, names,
    units and bounds."""
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        raise BenchError(f"BENCHMARK.json keys {sorted(spec)} != "
                         f"{sorted(want)}")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            raise BenchError(f"bad workload entry {w}")
        names.append(w["name"])
    if not 2 <= len(spec["workloads"]) <= 8:
        raise BenchError("2 to 8 workloads")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            raise BenchError(f"bad end_to_end entry {m}")
        if not 0 <= m["bound"] <= 0.25:
            raise BenchError(f"bound of {m['name']} outside [0, 0.25]")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            raise BenchError(f"bad per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not UNIT_RE.match(m["unit"]) or len(m["unit"]) > 16:
            raise BenchError(f"bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            raise BenchError(f"bad direction of {m['name']}")
    for name in names:
        if not valid_name(name):
            raise BenchError(f"bad name {name!r}")
    if len(set(names)) != len(names):
        raise BenchError("a name is used twice")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        raise BenchError("1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        raise BenchError("1 to 128 per-layer metrics")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise BenchError("setup_s (unit s, lower is better) is required")


def valid_name(name):
    return (bool(NAME_RE.match(name)) and len(name) <= 64
            and name[0].isalnum())


# ---------------------------------------------------------------------------
# Build and run.

def check_checkout():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(
            f"{ROOT} is not a cbix checkout (no CMakeLists.txt and src/); "
            "the benchmark builds the library from source")


def build():
    check_checkout()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"build step timed out: {' '.join(cmd)}")
        if proc.returncode != 0:
            sys.stderr.write((proc.stdout + proc.stderr)[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)


def run_binary(workload, seed, seconds, trace):
    """One workload in a fresh process; returns its JSON document."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--scratch", str(SCRATCH_DIR)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise BenchError(f"{workload} exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if doc["build_type"] != "Release":
        raise BenchError(f"refusing numbers from a {doc['build_type']} build")
    return doc


def compute(rule, doc):
    kind = rule[0]
    series = doc["series"]
    try:
        if kind in PERCENTILES:
            return percentile(series[rule[1]], PERCENTILES[kind])
        if kind == "median":
            return median(series[rule[1]])
        if kind == "mean":
            return statistics.fmean(series[rule[1]])
        if kind == "overhead":
            return 100.0 * (percentile(series[rule[1]], 0.5)
                            / percentile(series[rule[2]], 0.5) - 1.0)
    except KeyError as e:
        raise BenchError(f"e2e_bench printed no series {e}")
    raise BenchError(f"unknown rule {rule}")


def metrics_of(doc, declared, rules):
    """{name: value} for every declared metric, from one run's output."""
    out = {}
    for m in declared:
        name = m["name"]
        rule = rules[name]
        if rule[0] == "value":
            if name not in doc["values"]:
                raise BenchError(f"e2e_bench printed no value {name}")
            out[name] = doc["values"][name]
        else:
            out[name] = compute(rule, doc)
    return out


def declared_metrics(spec, trace):
    return (spec["per_layer"], PER_LAYER) if trace else (
        spec["end_to_end"], END_TO_END)


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (git is not even started then)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# Reports.

def fmt(value):
    return f"{value:.6g}"


def print_meta(doc, commit):
    meta = doc["meta"]
    threads = ", ".join(f"{k.split('.', 1)[1]}={int(v)}"
                        for k, v in sorted(meta.items())
                        if k.startswith("threads."))
    print(f"== {doc['workload']} (seed {doc['seed']}, "
          f"{'traced' if doc['trace'] else 'untraced'})")
    print(f"   commit {commit}, build {doc['build_type']}, "
          f"simd {doc['simd_tier']}, nproc {int(meta['nproc'])}, "
          f"threads: {threads}")


def print_run(doc, metrics, declared, commit):
    meta = doc["meta"]
    print_meta(doc, commit)
    print(f"   {int(meta['timed_requests'])} timed requests; "
          f"{doc['attempted']} attempted, {doc['failed']} failed; "
          f"checks passed: {', '.join(doc['passed']) or 'none'}")
    for name, detail in sorted(doc["failures"].items()):
        print(f"   CHECK FAILED {name}: {detail}")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in metrics.items():
        print(f"   {name:34s} {fmt(value):>14s} {units[name]}")
    if doc["trace"]:
        print_critical_path(doc)


def print_critical_path(doc):
    path = doc["critical_path"]
    n = path["requests"]
    if n == 0:
        return
    wall = path["wall_ms"] / n
    print(f"   critical path, mean over {n} traced requests "
          f"(rows sum to the measured wall time):")
    total = 0.0
    for name, ms in path["rows"]:
        total += ms / n
        note = ("  <- root span time no child span covers"
                if name == "serving.self" else "")
        print(f"     {name:26s} {ms / n:12.4f} ms {100 * ms / n / wall:6.2f}%"
              f"{note}")
    print(f"     {'sum of rows':26s} {total:12.4f} ms")
    print(f"     {'measured wall':26s} {wall:12.4f} ms")


def result_line(outcomes, metrics_by_workload, declared):
    units = {m["name"]: m["unit"] for m in declared}
    tagged = {w: {k: {"value": v, "unit": units[k]} for k, v in ms.items()}
              for w, ms in metrics_by_workload.items()}
    line = {
        "correct": all(not o["failures"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
    }
    if len(tagged) == 1:
        line["metrics"] = next(iter(tagged.values()))
    else:
        line["workloads"] = tagged
    return json.dumps(line)


def print_spread_table(workload, runs, declared):
    print(f"== {workload}: {len(runs)} runs")
    print(f"   {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>7s}")
    for m in declared:
        values = [r[m["name"]] for r in runs]
        q1, q2, q3 = quartiles(values)
        bound = m.get("bound")
        s = spread(values)
        flag = ""
        if bound is not None and m["name"] != "setup_s" and s > bound:
            flag = "  SPREAD ABOVE BOUND"
        print(f"   {m['name']:34s} {fmt(q2):>12s} {fmt(q1):>12s} "
              f"{fmt(q3):>12s} {100 * s:7.2f}% "
              f"{'' if bound is None else f'{100 * bound:6.2f}%'}{flag}")


def compare_sets(workload, first, second, declared, trace):
    """Failures of a repeatability check between two sets of runs over
    the same seeds."""
    failures = []
    for m in declared:
        name = m["name"]
        a = [r[name] for r in first]
        b = [r[name] for r in second]
        if not trace and name in DETERMINISTIC:
            if a != b:
                failures.append(f"{workload}.{name}: not identical per seed "
                                f"({a} vs {b})")
            continue
        if "bound" in m and not within_bound(m, median(a), median(b)):
            failures.append(
                f"{workload}.{name}: median {fmt(median(a))} -> "
                f"{fmt(median(b))} is worse by more than "
                f"{100 * m['bound']:g}%")
    return failures


# ---------------------------------------------------------------------------

def parse_args(argv, spec):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--repeat", type=int, default=1,
                   help="fresh runs per workload, seeds S..S+N-1; prints "
                        "median, quartiles and spread of every metric")
    p.add_argument("--check-repeatability", action="store_true",
                   help="run two sets of --repeat runs (at least 5) over the "
                        "same seeds and fail if a median moves by more than "
                        "its bound or a seed-determined metric changes")
    args = p.parse_args(argv)
    args.trace = bool(args.trace or args.traced)
    args.workload = args.workload or names
    if args.check_repeatability:
        args.repeat = max(5, args.repeat)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    return args


def main(argv):
    try:
        spec = load_spec()
        args = parse_args(argv, spec)
        build()
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    declared, rules = declared_metrics(spec, args.trace)
    commit = git_commit()
    sets = 2 if args.check_repeatability else 1
    outcomes = []  # per run: failures, attempted, failed (not the series)
    runs = {w: [[] for _ in range(sets)] for w in args.workload}
    try:
        for s in range(sets):
            for w in args.workload:
                for i in range(args.repeat):
                    doc = run_binary(w, args.seed + i, args.seconds,
                                     args.trace)
                    metrics = metrics_of(doc, declared, rules)
                    if args.repeat == 1:
                        print_run(doc, metrics, declared, commit)
                    else:
                        if i == 0:
                            print_meta(doc, commit)
                        print(f"   {w} seed {args.seed + i}: "
                              f"{'ok' if not doc['failures'] else 'FAILED'}",
                              file=sys.stderr)
                        for name, detail in doc["failures"].items():
                            print(f"   CHECK FAILED {name}: {detail}")
                    outcomes.append({k: doc[k] for k in
                                     ("failures", "attempted", "failed")})
                    runs[w][s].append(metrics)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    problems = []
    if args.repeat > 1:
        for w in args.workload:
            for s in range(sets):
                print_spread_table(w, runs[w][s], declared)
            if args.check_repeatability:
                problems += compare_sets(w, runs[w][0], runs[w][1], declared,
                                         args.trace)
        for p in problems:
            print(f"REPEATABILITY FAILED {p}")
        if args.check_repeatability and not problems:
            print("repeatability: every median within its bound")
    medians = {w: {m["name"]: median([r[m["name"]] for r in runs[w][0]])
                   for m in declared}
               for w in args.workload}
    print(result_line(outcomes, medians, declared))
    correct = all(not o["failures"] for o in outcomes)
    return 0 if correct and not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
