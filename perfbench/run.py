#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (which
compiles the simulator from ../src) into .bench_build/perfbench with
CMake, then runs it with the same arguments. Build output goes to
stderr; the benchmark's stdout passes through, so its last line is the
result object. Exits non-zero, printing no result, when the build
fails or the benchmark fails its correctness checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 170


def build() -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def main() -> int:
    binary = build()
    try:
        done = subprocess.run(
            [str(binary), *sys.argv[1:]],
            stdout=subprocess.PIPE,
            text=True,
            timeout=TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    if done.returncode != 0 or not valid:
        sys.stderr.write(done.stdout)
        sys.exit(f"perfbench: benchmark failed (exit code {done.returncode})")
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
