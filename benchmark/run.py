#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 benchmark/run.py --workload serve_origin --seed 1 --seconds 10 --trace 0

Builds the benchmark package in this directory (the origin library from
../src plus origin_bench) into benchmark/.build, trains the model cache
into benchmark/.models on first use, runs one workload and prints its
result. The last stdout line is the JSON result
{correct, attempted, failed, metrics}; "# report" and "# env" lines before
it record counts, sample sizes, the kernel backend, SIMD features, nproc,
CPU model and git commit. Exits non-zero without a result when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(HERE, ".build")
CACHE_DIR = os.path.join(HERE, ".models")
BINARY = os.path.join(BUILD_DIR, "origin_bench")
WORKLOADS = ("serve_origin", "serve_personalize", "fleet_bl1")
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 170
COLD_RUN_TIMEOUT_S = 800  # the first run also trains the model cache


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("origin sources not found next to the benchmark directory")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "--build", BUILD_DIR, "--target", "origin_bench",
                  "-j", BUILD_JOBS]]
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="micro models and sizes: a smoke run, not a "
                             "measurement")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one served output before the oracle "
                             "check")
    args = parser.parse_args()
    if "ORIGIN_SERVE_BATCH" in os.environ:
        fail("ORIGIN_SERVE_BATCH is set; unset it to run the benchmark")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    cold = not os.path.isdir(CACHE_DIR) or not os.listdir(CACHE_DIR)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--cache-dir", CACHE_DIR]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, cwd=HERE,
            timeout=COLD_RUN_TIMEOUT_S if cold and not args.tiny
            else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("origin_bench timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("origin_bench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("origin_bench printed a malformed result")
    for line in lines[:-1]:
        print(line)
    env = environment()
    env["run_wall_s"] = time.monotonic() - started
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
