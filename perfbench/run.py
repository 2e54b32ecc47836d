#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the checkout root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and with it the library
sources under src/) into the build directory: $CARGO_TARGET_DIR when set,
else .bench_build/. Later calls rebuild incrementally. Build output goes to
stderr; stdout carries only the benchmark's own output, whose last line is
the JSON result. The benchmark's self-test runs before every workload. Any
failure exits non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def check(cmd, **kwargs):
    """Runs a build step with its output on stderr; exits on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)
    if done.returncode != 0:
        sys.exit(f"perfbench: step failed ({done.returncode}): {' '.join(cmd)}")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check(["cmake", "-S", HERE, "-B", out, *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
           "perfbench_selftest"])


def main():
    out = build_dir()
    build(out)
    check([os.path.join(out, "perfbench_selftest")])
    try:
        done = subprocess.run(
            [os.path.join(out, "perfbench"), *sys.argv[1:],
             "--trace-dir", os.path.join(out, "traces")],
            cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
