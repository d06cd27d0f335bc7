#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The program is compiled from ../src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), a build tree of
the benchmark's own; trace files and per-run storage directories go to
.bench_build/out. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. See README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def configure_and_build(build):
    configure = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if subprocess.run(configure, **quiet).returncode != 0:
        # A build tree configured from another source directory cannot be
        # reused; start it afresh once.
        shutil.rmtree(build, ignore_errors=True)
        if subprocess.run(configure, **quiet).returncode != 0:
            return False
    build_cmd = ["cmake", "--build", build, "--target", "perfbench", "-j", "4"]
    return subprocess.run(build_cmd, **quiet).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the program's sources (src/) are not next to perfbench/; nothing to build")
        return 2
    if shutil.which("cmake") is None:
        log("cmake is not installed")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build = os.path.join(build_root, "perfbench")
    if not configure_and_build(build):
        log("build failed")
        return 1
    out_dir = os.path.join(build_root, "out")
    cmd = [os.path.join(build, "perfbench")] + sys.argv[1:] + ["--out-dir", out_dir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
