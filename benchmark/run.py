#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the BrePartition index.

Run from the root of a checkout:

  python3 benchmark/run.py --workload knn-isd100 --seed 1 --seconds 15 --trace 0

The benchmark package (benchmark/CMakeLists.txt) is configured and built in
Release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then brep_benchmark runs with the same arguments. Build output goes to
standard error; the last line of standard output is the JSON result. The
run's checkpoint and log files live in a per-process directory under the
build directory and are removed afterwards.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(build_dir, "CMakeCache.txt")
        if not os.path.exists(cache):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                # Leave no half-configured tree for the next attempt.
                if os.path.exists(cache):
                    os.remove(cache)
                return False
        make = ["cmake", "--build", build_dir, "--target", "brep_benchmark",
                "-j", jobs]
        return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("benchmark build failed", file=sys.stderr)
        return 1
    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    try:
        cmd = [os.path.join(build_dir, "brep_benchmark")] + sys.argv[1:] + ["--dir", run_dir]
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
