#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

From the repository root:

    python3 perfbench/run.py [workload settings] \
        --workload <cold_compile|pack_start|warm_serve|vqe_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

The library under src/ and the perfbench binary are built with CMake into
.bench_build/ (kept for later runs; the first build takes a few minutes).
Every argument is passed to the binary, whose last line of standard output
is the run's JSON result; build output goes to standard error. The exit code
is the binary's: 0 when every gate and output check passed.
"""
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/ (run from a full checkout)")
    build_dir = os.path.join(ROOT, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    # A work directory relative to the root keeps the daemon's socket path short.
    work_dir = os.path.join(BUILD_DIR, "run")
    return subprocess.run([exe, "--work-dir", work_dir] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
