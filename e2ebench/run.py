#!/usr/bin/env python3
"""Build and run the sitm end-to-end benchmark.

    python3 e2ebench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Builds e2ebench/ (libsitm from the repository's src/ plus the sitm_e2e
program) into .bench_build/sitm-e2e, then runs one workload.  Build output
goes to stderr; the report of sitm_e2e goes to stdout, and its last line is
the JSON result.  Exits nonzero, without a result, when the build fails (for
example when the repository's sources are absent).  See NOTES.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sitm-e2e")
BINARY = os.path.join(BUILD, "sitm_e2e")
WORKLOADS = ("corpus", "ladder-mt", "wide-lib", "serve-zipf")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass (traced: a few rounds) for the smoke test")
    args = parser.parse_args()

    if not build():
        return 3
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT,
           "--out", os.path.join(ROOT, ".bench_build", "e2e-out")]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("sitm_e2e exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
