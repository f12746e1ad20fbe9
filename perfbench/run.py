#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload batch_cold|serve_read|stream_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. It configures and builds perfbench/ (which
compiles the library from src/) in .bench_build/perfbench with CMake in
Release mode, then runs one workload. Inputs, snapshots and the trace file
go to .bench_build/work. The last line of stdout is the JSON result. It
exits non-zero when its metric names differ from BENCHMARK.json or the run
is not correct.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as log:
        try:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        with open(log_path, "rb") as log:
            tail = log.read()[-4000:].decode(errors="replace")
        fail("failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at src/; run from the repository root",
             2)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(ROOT, ".bench_build", "build.log")
    open(log, "wb").close()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
                "perfbench_selftest"], log, BUILD_TIMEOUT_S)


def expected_metrics(traced):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(line, traced):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ: %s" % sorted(result))
    names = expected_metrics(traced)
    if names is not None and set(result["metrics"]) != names:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(names - set(result["metrics"])),
            sorted(set(result["metrics"]) - names)))
    if result["correct"] is not True:
        fail("run is not correct: %s of %s operations failed" % (
            result["failed"], result["attempted"]))


def selftest():
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(WORK, "selftest_trace.json")
    done = subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                           trace_path], timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        fail("perfbench_selftest failed")
    with open(trace_path) as f:
        trace = json.load(f)  # the trace writer must emit valid JSON
    events = trace["traceEvents"]
    if not events:
        fail("sample trace is empty")
    for event in events:
        for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
            if key not in event:
                fail("trace event lacks %r: %s" % (key, event))
        if event["ph"] != "X" or event["dur"] < 0:
            fail("bad trace event: %s" % event)
    print("selftest: trace JSON valid (%d events)" % len(events))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)

    build()
    if args.selftest:
        selftest()
        return

    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    out = done.stdout.decode(errors="replace").rstrip("\n")
    if done.returncode != 0 or not out:
        sys.stdout.write(out + "\n")
        fail("benchmark exited with %d" % done.returncode)
    sys.stdout.write(out + "\n")
    sys.stdout.flush()
    check_result(out.split("\n")[-1], args.trace == 1)


if __name__ == "__main__":
    main()
