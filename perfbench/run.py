#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload lifecycle|chain-transfer|des-rumor \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) into .bench_build/ with CMake, then runs the benchmark binary
with the same arguments and relays its output; the last line of stdout is
the JSON result. `--workload all` runs the three workloads in turn and
prints each one's summary and result line.
"""
import os
import shutil
import subprocess
import sys

WORKLOADS = ["lifecycle", "chain-transfer", "des-rumor"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repository root")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    log = os.path.join(out, "perfbench-build.log")
    os.makedirs(out, exist_ok=True)
    with open(log, "w") as f:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", src, "-B", out, *gen,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "pds2_perfbench",
                      "-j", jobs])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
            if rc.returncode:
                fail(f"build failed, see {log}")
    return os.path.join(out, "pds2_perfbench")


def main(argv):
    root = os.getcwd()
    binary = build(root)
    i = argv.index("--workload") if "--workload" in argv else -1
    if i >= 0 and argv[i + 1:i + 2] == ["all"]:
        rc = 0
        for w in WORKLOADS:
            args = argv[:i] + ["--workload", w] + argv[i + 2:]
            rc |= subprocess.run([binary] + args).returncode
        return rc
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
