#!/usr/bin/env python3
# Copyright 2026 The pkgstream Authors.
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which pulls in the pkgstream library from the root project) into
perfbench-cmake/ under the directory named by CARGO_TARGET_DIR (default
.bench_build); later calls only rebuild what changed. The last line of standard output is the result:
one JSON object with the keys correct, attempted, failed and metrics. Any
build failure, failed output check or hang exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wordcount_closed", "fanout_500", "wordcount_paced")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def configured_for_here(bdir):
    """Whether bdir holds a CMake cache generated from this perfbench/."""
    cache = bdir / "CMakeCache.txt"
    if not cache.exists():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve() == HERE
    return False


def build(bdir):
    """Configures (once) and builds the perfbench binary into its own tree
    under bdir; None on failure."""
    tree = bdir / "perfbench-cmake"
    if tree.exists() and not configured_for_here(tree):
        # A tree left by another checkout cannot be reused: CMake refuses a
        # cache made from a different source directory.
        shutil.rmtree(tree)
    tree.mkdir(parents=True, exist_ok=True)
    tmp = tree / "tmp"
    tmp.mkdir(exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not configured_for_here(tree):
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "--target", "perfbench",
                  "-j", jobs])
    log = tree / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    env=env, timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                out.write(f"\n{cmd[0]}: {e}\n")
                rc = 1
            if rc != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed\n")
                return None
    return tree / "perfbench"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed non-negative")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 1
    trace_dir = bdir / "traces"
    trace_dir.mkdir(exist_ok=True)
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--trace-dir={trace_dir}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(f"perfbench: no result within {e.timeout} s\n")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(f"perfbench: failed (exit {proc.returncode}): "
                         f"{lines[-1]}\n")
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
