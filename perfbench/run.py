#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and the driver are compiled from source (CMake, Release) into
the build tree named by CARGO_TARGET_DIR, default .bench_build, under the
repository root; later runs reuse it. Build output goes to stderr, so the
last line of stdout is the driver's result JSON. The exit code is the
driver's: 0 only when every correctness check passed.
"""
import fcntl
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
TARGET = "gcsm_perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    for tool in ("cmake", "g++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Concurrent runs in one checkout share the build tree.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", TARGET])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, TARGET)


def main(argv):
    # A terminated runner still stops and reaps the driver (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_dir = os.path.join(
        REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    scratch = os.path.join(build_dir, f"scratch-{os.getpid()}")
    proc = subprocess.Popen([binary, *argv, "--scratch", scratch], cwd=REPO)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
