#!/usr/bin/env python3
"""Builds and runs the lmerge end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload divergent --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds the
lmerge library from ../src plus the benchmark program into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  With --trace 1 the Chrome trace of the
traced rounds is written to <build>/traces/<workload>-seed<seed>.json.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_build_step(cmd, build):
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=env)
    if result.returncode != 0:
        sys.exit(result.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "net", "server.h")):
        print("e2ebench: no lmerge sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build_root, "e2ebench")
    os.makedirs(build, exist_ok=True)
    with open(os.path.join(build, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            run_build_step(["cmake", "-S", HERE, "-B", build,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], build)
        jobs = str(min(4, os.cpu_count() or 1))
        run_build_step(["cmake", "--build", build, "-j", jobs], build)

    cmd = [os.path.join(build, "lmerge_e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
