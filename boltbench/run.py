#!/usr/bin/env python3
"""Builds Bolt and the benchmark driver from this checkout, then runs it.

    python3 boltbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 boltbench/run.py            # every workload at seed 1

Everything it builds and writes lands in .bench_build/ at the checkout
root. The driver's last stdout line is the result object; the line before
it holds per-metric quartiles and the workload's traffic mix.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"boltbench: no Bolt sources in {ROOT}")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp), CCACHE_DISABLE="1")
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "bolt_bench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"boltbench: build failed: {' '.join(step)}")
    return cmake_dir / "bolt_bench", env


def main():
    binary, env = build()
    argv = [str(binary), *sys.argv[1:], "--work", str(BUILD / "work")]
    sys.stdout.flush()
    os.execve(argv[0], argv, env)


if __name__ == "__main__":
    main()
