#!/usr/bin/env python3
"""Builds and runs the SpecRPC benchmark.

Run from the repository root:

    python3 perfbench/run.py \
        --workload <ycsbt-wan|chain-lan-nopredict|chain-lan|qstream-batch> \
        --seed <n> --seconds <s> --trace <0|1> [--fault <none|replica|result>]

The first run configures and builds perfbench/ (the benchmark plus the
repository's src/ libraries, Release) into .bench_build/perfbench; later
runs rebuild incrementally. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Each run also leaves
its full result (with sample counts and the stamp) and, when traced, its
spans under .bench_build/perfbench-results/.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "perfbench-results")
BINARY = os.path.join(BUILD_DIR, "specrpc_perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "specrpc_perfbench",
               "-j", jobs]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("build failed")


def source_hash():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ycsbt-wan", "chain-lan-nopredict",
                                 "chain-lan", "qstream-batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--fault", default="none",
                        choices=["none", "replica", "result"])
    args = parser.parse_args()

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fault", args.fault,
           "--result-out", os.path.join(RESULTS_DIR, tag + ".json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(RESULTS_DIR, tag + ".spans.csv")]
    env = dict(os.environ)
    # The scale ycsbt-wan applies to Table 1 (kLatencyScale), for the stamp.
    env["SPECRPC_LAT_SCALE"] = "0.2"
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SRC_HASH"] = source_hash()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
