#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload cli_regression --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  On first use this configures and builds
perfbench/ -- which compiles the library sources under src/ -- into the
directory named by CARGO_TARGET_DIR (default .bench_build); later runs only
rebuild what changed.  Build output goes to stderr, so the last line on
stdout is the driver's JSON result.  Scratch journals, reports and span
files live under <build dir>/work.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("perfbench: '%s' failed (exit %d)\n"
                         % (" ".join(command), result.returncode))
        sys.exit(result.returncode or 1)


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", out, "--target", target, "-j", jobs])
    return os.path.join(out, target)


def main(args):
    if args == ["--selftest"]:
        test = build("perfbench_workloads_test")
        sys.exit(subprocess.run([test]).returncode)
    driver = build("ddl_perfbench")
    # A child process rather than exec: the driver's peak_rss_mb reads the
    # largest reaped child, which must not be a compiler from the build.
    sys.exit(subprocess.run([driver] + args + [
        "--work-dir", os.path.join(build_dir(), "work")]).returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
