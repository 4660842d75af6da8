#!/usr/bin/env python3
"""Compare two google-benchmark JSON reports and enforce perf gates.

Part of the PDGC project.

Reads a *before* and an *after* report (as written by
bench/run_benchmarks.sh), picks one representative time per benchmark
(the `median` aggregate when repetitions were run, the plain entry
otherwise), and applies three kinds of gates:

  --guard NAME            benchmark NAME must not regress by more than
                          --max-regress-pct (repeatable)
  --require-speedup NAME:RATIO
                          after must be at least RATIO times faster than
                          before on NAME (repeatable)
  --max-geomean-ratio R   the geometric mean of after/before over every
                          benchmark present in both reports must not
                          exceed R; no common benchmark fails the gate

With --forbid-debug, a report whose `pdgc_build_type` stamp is missing
or not Release/RelWithDebInfo fails the comparison outright — numbers
from unoptimized builds gate nothing (see run_benchmarks.sh).

Exit status: 0 when every gate holds, 1 otherwise.

Example (the CI bench-smoke gate):

  bench/compare_benchmarks.py BENCH_pr8_before.json BENCH_pr8.json \
      --guard BM_BuildRpg --guard BM_RebuildInterference \
      --max-regress-pct 2 --require-speedup BM_BuildCpg:2.0

Example (the CI overhead gates: instrumented build within 2% of one with
the instrumentation compiled out):

  bench/compare_benchmarks.py bench-stats-off.json bench-stats-on.json \
      --max-geomean-ratio 1.02
"""

import argparse
import json
import math
import sys


def load_times(path):
    """Returns {benchmark name: real_time in ns} plus the context block."""
    with open(path) as f:
        report = json.load(f)
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    medians = {}
    plains = {}
    for entry in report.get("benchmarks", []):
        scale = unit_ns.get(entry.get("time_unit", "ns"), 1.0)
        time_ns = entry["real_time"] * scale
        aggregate = entry.get("aggregate_name")
        if aggregate == "median":
            medians[entry["run_name"]] = time_ns
        elif aggregate is None:
            plains[entry["name"]] = time_ns
    # Median aggregates win; plain entries cover REPS=1 runs.
    times = dict(plains)
    times.update(medians)
    return times, report.get("context", {})


def check_build_type(path, context, failures):
    build_type = context.get("pdgc_build_type")
    if build_type not in ("Release", "RelWithDebInfo"):
        failures.append(
            f"{path}: pdgc_build_type is {build_type!r}, want Release "
            "(re-record with bench/run_benchmarks.sh)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--guard", action="append", default=[],
                        metavar="NAME",
                        help="benchmark that must not regress")
    parser.add_argument("--max-regress-pct", type=float, default=2.0,
                        help="allowed regression on guards (default 2)")
    parser.add_argument("--require-speedup", action="append", default=[],
                        metavar="NAME:RATIO",
                        help="after must beat before by RATIO on NAME")
    parser.add_argument("--max-geomean-ratio", type=float, metavar="R",
                        help="fail when geomean(after/before) over the "
                        "common benchmarks exceeds R")
    parser.add_argument("--forbid-debug", action="store_true",
                        help="fail unless both reports are Release-stamped")
    args = parser.parse_args()

    before, before_ctx = load_times(args.before)
    after, after_ctx = load_times(args.after)

    failures = []
    if args.forbid_debug:
        check_build_type(args.before, before_ctx, failures)
        check_build_type(args.after, after_ctx, failures)

    def lookup(times, path, name):
        if name not in times:
            failures.append(f"{path}: no entry for benchmark {name!r}")
            return None
        return times[name]

    for name in args.guard:
        b = lookup(before, args.before, name)
        a = lookup(after, args.after, name)
        if b is None or a is None:
            continue
        delta_pct = (a - b) / b * 100.0
        status = "ok"
        if delta_pct > args.max_regress_pct:
            failures.append(
                f"{name}: regressed {delta_pct:+.1f}% "
                f"({b:.0f}ns -> {a:.0f}ns), limit "
                f"{args.max_regress_pct:.1f}%")
            status = "FAIL"
        print(f"guard    {name}: {b:.0f}ns -> {a:.0f}ns "
              f"({delta_pct:+.1f}%) {status}")

    for spec in args.require_speedup:
        name, _, ratio_text = spec.partition(":")
        ratio = float(ratio_text) if ratio_text else 1.0
        b = lookup(before, args.before, name)
        a = lookup(after, args.after, name)
        if b is None or a is None:
            continue
        speedup = b / a if a > 0 else float("inf")
        status = "ok"
        if speedup < ratio:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below required "
                f"{ratio:.2f}x ({b:.0f}ns -> {a:.0f}ns)")
            status = "FAIL"
        print(f"speedup  {name}: {b:.0f}ns -> {a:.0f}ns "
              f"({speedup:.2f}x, need {ratio:.2f}x) {status}")

    if args.max_geomean_ratio is not None:
        common = sorted(set(before) & set(after))
        if not common:
            failures.append("geomean gate: no benchmark is common to "
                            f"{args.before} and {args.after}")
        else:
            for name in common:
                print(f"ratio    {name}: {after[name] / before[name]:.4f}")
            geomean = math.exp(
                math.fsum(math.log(after[n] / before[n]) for n in common) /
                len(common))
            status = "ok"
            if geomean > args.max_geomean_ratio:
                failures.append(
                    f"geomean after/before {geomean:.4f} exceeds "
                    f"{args.max_geomean_ratio:.4f}")
                status = "FAIL"
            print(f"geomean  {len(common)} benchmarks: {geomean:.4f} "
                  f"(limit {args.max_geomean_ratio:.4f}) {status}")

    for failure in failures:
        print(f"compare_benchmarks: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
