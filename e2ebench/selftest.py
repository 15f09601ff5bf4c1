#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.  Run from the root of a checkout:

    python3 e2ebench/selftest.py

Checks, with short runs (--seconds 1: one round of nine ops for edit, which
takes about 15 s a run, two ops for session and 130 for serve):
  * two runs with the same seed give the same op sequence and identical
    counts and allocation figures;
  * a different seed gives a different op sequence;
  * short runs of every workload finish with zero failed ops;
  * the traced run reports every per-layer metric of BENCHMARK.json, and the
    untraced run every end-to-end metric.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys

EXACT = ["alloc_mb_per_op", "state_mb"]


def run(workload, seed, trace=0):
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip().splitlines()
    diag = next(json.loads(l)["diagnostics"] for l in out if l.startswith('{"diagnostics"'))
    return json.loads(out[-1]), diag


def check(cond, what):
    print("%s: %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        sys.exit(1)


def main():
    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        r1, d1 = run(w, 7)
        check(r1["correct"] and r1["failed"] == 0 and r1["attempted"] > 0,
              "%s: short run, %d ops, none failed" % (w, r1["attempted"]))
        check(sorted(r1["metrics"]) == sorted(m["name"] for m in spec["end_to_end"]),
              "%s: untraced run reports every end-to-end metric" % w)
        r2, d2 = run(w, 7)
        check(d1["ops_digest"] == d2["ops_digest"], "%s: same seed, same op sequence" % w)
        check(d1["counts"] == d2["counts"], "%s: same seed, identical counts" % w)
        check(all(r1["metrics"][m]["value"] == r2["metrics"][m]["value"] for m in EXACT),
              "%s: same seed, identical %s" % (w, " and ".join(EXACT)))
        _, d3 = run(w, 8)
        check(d3["ops_digest"] != d1["ops_digest"], "%s: another seed, another op sequence" % w)
        rt, _ = run(w, 7, trace=1)
        check(rt["correct"] and rt["failed"] == 0, "%s: traced run, none failed" % w)
        check(sorted(rt["metrics"]) == sorted(m["name"] for m in spec["per_layer"]),
              "%s: traced run reports every per-layer metric" % w)
    print("selftest passed")


if __name__ == "__main__":
    main()
