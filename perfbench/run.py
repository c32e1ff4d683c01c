#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fleet_pipeline --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
from ../src) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset, then runs the benchmark binary with the given
arguments. Build output goes to stderr; the binary's standard output is
passed through unchanged, so its last line is the result object. The exit
code is the binary's, or 2 when the build fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, env=env, check=True)


def main():
    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    try:
        build(source_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    args = [binary, "--trace-dir", os.path.join(build_dir, "trace")]
    args += sys.argv[1:]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
