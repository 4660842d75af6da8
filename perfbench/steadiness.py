#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

    python3 perfbench/steadiness.py [--runs K] [--workloads a,b] [--seed S]
                                    [--seconds N] [--json FILE]

Runs every workload of BENCHMARK.json K times (seeds S, S+1, ...), the way
the benchmark is run for acceptance, and prints per end-to-end metric the
median, the quartiles, the quartile spread and the worst deviation from the
median, each as a share of the median against the metric's declared bound.
It records nproc and the load average at start and end, so a noisy host
shows in the evidence. Exit status 1 when a run fails or is incorrect, or a
spread exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import benchmath

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def loadavg():
    with open("/proc/loadavg") as f:
        return " ".join(f.read().split()[:3])


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("nproc %d, load average at start %s" % (os.cpu_count(), loadavg()))
    ok = True
    raw = {}
    for workload in args.workloads.split(","):
        values = {}
        started = time.time()
        for i in range(args.runs):
            seed = args.seed + i
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     "%g" % args.seconds, "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (workload, seed,
                                               done.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect (%d of %d failed)" %
                      (workload, seed, result["failed"],
                       result["attempted"]))
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[workload] = values
        print("\n%s: %d runs in %.0f s, load average now %s" %
              (workload, args.runs, time.time() - started, loadavg()))
        print("  %-12s %14s %14s %14s %8s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "worst", "bound",
               "spread/bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3, spread = benchmath.spread(vals)
            worst = max(abs(v - med) for v in vals) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            ratio = spread / bound if bound else float("inf")
            flag = ""
            if spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif ratio > 1 / 3.0:
                flag = "  above bound/3"
            print("  %-12s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %6.2f %.2f%s"
                  % (name, med, q1, q3, 100 * spread, 100 * worst, bound,
                     ratio, flag))
    print("\nload average at end %s" % loadavg())
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
