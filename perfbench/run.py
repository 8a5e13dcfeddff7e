#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds the S2 libraries and the benchmark
binary (perfbench/CMakeLists.txt) into the build directory, which is
$CARGO_TARGET_DIR when set and .bench_build otherwise, then runs one
workload. Build output goes to stderr; the benchmark's report goes to
stdout, and its last line is the JSON result. Spill files land in a
per-run temp directory inside the build directory, removed afterwards.
Exits nonzero without a result when the build or the run fails.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fattree_verify", "fattree_verify_proc", "dcn_whatif",
             "dcn_serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build(build_dir):
    """Configures and builds into build_dir; True on success."""
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.exists(os.path.join(build_dir, name))
                   for name in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", build_dir, "--parallel",
                      str(min(4, os.cpu_count() or 1)),
                      "--target", "perfbench", "s2_worker"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                print(f"build step failed: {error}", file=sys.stderr)
                return False
            if done.returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("benchmark build failed", file=sys.stderr)
        return 1

    tmp = os.path.join(build_dir, "tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp,
               S2_WORKER_BIN=os.path.join(build_dir, "s2", "s2_worker"))
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Its own session, so a timeout can stop the worker processes too.
    bench = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print("benchmark timed out or was interrupted", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
