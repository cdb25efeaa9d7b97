#!/usr/bin/env python3
"""Builds fim_bench from this checkout's sources and runs it.

    python3 fimbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ at the root of the checkout and is
incremental after the first run. Every argument is passed on to
fim_bench, whose last line of output is the JSON result. When the build
fails, this exits non-zero and prints no result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "--target", "fim_bench", "-j", jobs]
    for command in (configure, compile_):
        # Build output goes to stderr: the last line of stdout is the result.
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("fim_bench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "fim_bench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
