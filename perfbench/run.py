#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Everything the build and the run write
stays under .bench_build/ in that checkout: the Go build cache, the
binary, span files and the fleet's scratch write-ahead logs. The
arguments are passed to the benchmark binary unchanged; its exit status
is this script's. A failed build exits 1 without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOENV="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["-out", os.path.join(BUILD, "out")]
    try:
        return subprocess.run([binary] + args, cwd=ROOT, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark ran past 175 s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
