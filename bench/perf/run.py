#!/usr/bin/env python3
"""Build bench_perf from source and run one workload.

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
bench/perf (and the library it links) into the build directory:
$CARGO_TARGET_DIR if set, else .bench_build. Later calls reuse the build.
All files the run writes (data files, result JSON, the Chrome trace of a
--trace 1 run) stay under that directory. The last line of standard output
is the run's JSON result; build output goes to standard error.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "bench_perf"],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_perf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="1234")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "store.h")):
        print("run.py: the bandana sources (src/) are missing next to "
              "bench/perf; nothing to build", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    data = os.path.join(build_dir, "perf-data")
    os.makedirs(data, exist_ok=True)
    name = f"{args.workload}-{args.seed}"
    if args.trace == "1":
        name += "-traced"
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--dir", data,
           "--out", os.path.join(data, name + ".json")]
    if args.trace == "1":
        cmd += ["--trace", os.path.join(data, name + ".trace.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
