#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload edit|session|serve --seed N \
        --seconds S --trace 0|1

Builds e2ebench/e2e.exe with dune (the first run builds the whole
repository), then runs it once with the library switches IMC_JOBS, IMC_IVM,
IMC_LINT_WF, CI and OCAMLRUNPARAM unset, which is their user default.  The
program's lines are passed through; the last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}.  Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

SWITCHES = ["IMC_JOBS", "IMC_IVM", "IMC_LINT_WF", "CI", "OCAMLRUNPARAM"]
EXE = os.path.join("_build", "default", "e2ebench", "e2e.exe")
RUN_TIMEOUT_S = 170


def clean_env():
    env = {k: v for k, v in os.environ.items() if k not in SWITCHES}
    # Keep the build inside the checkout: no shared dune cache.
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./e2ebench/e2e.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("e2ebench: build failed\n")
        return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["edit", "session", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    env = clean_env()
    try:
        if not build(env):
            return 1
    except FileNotFoundError:
        sys.stderr.write("e2ebench: dune not found\n")
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: run timed out\n")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("e2ebench: run failed (exit %d)\n" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("e2ebench: no result line\n")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write("e2ebench: malformed result line\n")
        return 1
    for line in lines[:-1]:
        print(line)
    # What the caller's environment held, before the run unset it.
    print(json.dumps({"caller_env": {k: os.environ.get(k) for k in SWITCHES}}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
