#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --workload session --runs 10 [--seconds S]
        [--first-seed 1]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) and
prints, for every end-to-end metric and for the ungated latencies of the
diagnostics line, the median of the runs and the spread: the distance between
the first and third quartiles (statistics.quantiles(values, n=4)) as a share
of the median.  It also prints each metric's bound from BENCHMARK.json, the
host-speed probe of every run and whether any run failed.
Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip().splitlines()
    diag = next(json.loads(l)["diagnostics"] for l in out if l.startswith('{"diagnostics"'))
    return json.loads(out[-1]), diag


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, failed = {}, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, diag = run_once(args.workload, seed, seconds)
        failed += result["failed"] + (0 if result["correct"] else 1)
        probe = diag["host_probe_ms"]
        print("seed %d: run %.1fs, probe %.2f/%.2f ms, %s, %s" % (
            seed, diag["run_s"], probe["before"], probe["after"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()),
            " ".join("%s=%.4g" % (k, v) for k, v in diag["timings"].items() if v is not None)),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in diag["timings"].items():
            if v is not None:
                values.setdefault(name, []).append(v)

    print("%-18s %12s %8s %8s %s" % ("metric", "median", "spread", "bound", "verdict"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = "not gated" if bound is None else (
            "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE"))
        print("%-18s %12.5g %8.4f %8s %s" % (name, med, spread, bound, verdict))
    print("failed ops or incorrect runs: %d" % failed)


if __name__ == "__main__":
    main()
