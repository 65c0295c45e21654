#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fast_grid --seed 7 --seconds 20 --trace 0

The first run configures and builds perfbench/ (and the tracepre
library from src/) into .bench_build/perfbench; later runs rebuild
incrementally. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result.

    python3 perfbench/run.py --selftest        # output-check self-test
    python3 perfbench/run.py --record-digests  # rewrite digests.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tpbench")
DIGESTS = os.path.join(HERE, "digests.txt")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build tpbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no tracepre sources at %s; run from a repository "
             "checkout" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "tpbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_ref():
    """The git commit when the checkout has one, plus a digest of the
    simulator and benchmark sources, which names the code even in a
    checkout without git metadata."""
    commit = "no-git"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            commit = f.read().strip()
        if commit.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", commit[5:])
            if os.path.isfile(ref):
                with open(ref) as f:
                    commit = f.read().strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s src-sha256:%s" % (commit[:12], digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    build()
    if args.record_digests:
        out = subprocess.run([BINARY, "--record-digests"],
                             stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            fail("recording digests failed")
        with open(DIGESTS, "w") as f:
            f.write(out.stdout)
        return 0
    if args.selftest:
        return subprocess.run([BINARY, "--selftest",
                               "--digests", DIGESTS]).returncode
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    cmd = [BINARY, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--digests", DIGESTS,
           "--git-ref", source_ref(),
           "--spans", os.path.join(ROOT, ".bench_build",
                                   "spans_%s.json" % args.workload)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
