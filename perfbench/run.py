#!/usr/bin/env python3
"""Time-to-verdict benchmark runner.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
repository's libraries from ../src) into .bench_build/perfbench, runs the
span-arithmetic self-test, measures set-up time over several fresh
processes, then runs one workload for --seconds seconds and prints its
metrics.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1.  The exit code is 0 only when every verdict matches the
paper, no execution failed and the sample digests agree.

    python3 perfbench/run.py --workload cr-n4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["cr-n4", "vss-n16", "process-n4"]
# Fresh processes that only warm up, on top of the measuring process: the
# set-up time reported is the median over all of them.
SETUP_PROCESSES = 24
# A run must end within 180 s; leave room for set-up and the build check.
RUN_TIMEOUT_S = 160

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and rebuilds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulcast sources next to perfbench/ (expected src/CMakeLists.txt)")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n") not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
                    "perfbench_selftest"], check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(BUILD, "perfbench_selftest")], check=True, stdout=sys.stderr)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                            text=True, env=env, check=False)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def setup_seconds(started, line):
    """Process start (as seen from here) to the end of warm-up, both on
    CLOCK_MONOTONIC (Python's time.monotonic and C++'s steady_clock)."""
    return int(line.split("=", 1)[1]) * 1e-9 - started


def measure_setup(binary, workload, seed):
    values = []
    for _ in range(SETUP_PROCESSES):
        started = time.monotonic()
        result = subprocess.run([binary, "--workload=" + workload, "--seed=" + str(seed),
                                 "--setup-only"], capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
        lines = [l for l in result.stdout.splitlines() if l.startswith("setup_end_ns=")]
        if result.returncode != 0 or not lines:
            sys.stderr.write(result.stderr)
            raise RuntimeError(workload + ": set-up process failed")
        values.append(setup_seconds(started, lines[0]))
    return values


def run_workload(workload, seed, seconds, trace, commit):
    """Returns (exit code, result object or None)."""
    binary = os.path.join(BUILD, "perfbench")
    setups = [] if trace else measure_setup(binary, workload, seed)
    command = [binary, "--workload=" + workload, "--seed=" + str(seed),
               "--seconds=" + str(seconds), "--trace=" + str(trace), "--commit=" + commit]
    started = time.monotonic()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(workload + ": timed out")
            return 1, None
    lines = out.splitlines()
    result = None
    for line in lines:
        if line.startswith("setup_end_ns="):
            setups.append(setup_seconds(started, line))
        elif line.startswith("{"):
            result = json.loads(line)
        else:
            print(line)
    if result is None:
        log(workload + ": no result (exit code %d)" % proc.returncode)
        return proc.returncode or 1, None
    if not trace:
        setup = statistics.median(setups)
        print("%s: setup_s = %.6g s (median of %d set-ups)" % (workload, setup, len(setups)))
        metrics = result["metrics"]
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        result["metrics"] = {k: metrics[k] for k in
                             ("time_to_verdict_s", "exec_per_s", "setup_s", "peak_rss_mb")}
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    commit = git_commit()
    status = 0
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        try:
            code, result = run_workload(workload, args.seed, args.seconds, args.trace, commit)
        except (RuntimeError, OSError, subprocess.SubprocessError) as e:
            log("perfbench: %s" % e)
            code, result = 1, None
        if result is not None:
            print(json.dumps(result), flush=True)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
