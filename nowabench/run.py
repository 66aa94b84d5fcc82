#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 nowabench/run.py --workload fork-join|pipeline|serve \
        --seed N --seconds S --trace 0|1

Builds nowabench/nowabench.exe from source with dune into .bench_build/
(release profile), runs it, passes its progress lines through to stderr
and its result object through to stdout as the last line.  Exits non-zero,
printing no result, when the checkout cannot be built or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "nowabench/nowabench.exe"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg):
    print("nowabench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune is not on PATH")


def build():
    for need in ("dune-project", "lib", os.path.join("nowabench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a checkout of the repository: %s is missing" % need)
    cmd = dune() + [
        "build", "--root", ROOT, "--build-dir", BUILD_DIR,
        "--profile", "release", "./" + TARGET,
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        die("build failed (dune exit %d)" % done.returncode)
    return os.path.join(ROOT, BUILD_DIR, "default", TARGET)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fork-join", "pipeline", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    exe = build()
    start = time.monotonic()
    try:
        done = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        die("run failed (exit %d)" % done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("run printed no result line")
    if set(result) != RESULT_KEYS:
        die("result line has keys %s" % sorted(result))
    print("nowabench: %s seed %d trace %d took %.1f s"
          % (args.workload, args.seed, args.trace, time.monotonic() - start),
          file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
