#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the dmml libraries and the perfbench binary from source (CMake, into
.bench_build/perfbench under the repo root) and runs one workload:

    python3 perfbench/run.py --workload star_factorized --seed 1 --seconds 20 --trace 0

The last line of stdout is the JSON result: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are BENCHMARK.json's
end_to_end set, with --trace 1 its per_layer set; the names and units are
checked against BENCHMARK.json before the result is printed.

    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --all --seconds 25

run every workload, untraced and traced (--smoke at tiny sizes), print every
metric with its unit, and check every metric name, unit and oracle.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("dmml sources (src/) not found next to perfbench/; cannot build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def run_once(workload, seed, seconds, trace, smoke=False):
    """Runs the perfbench binary; returns (note lines, result dict)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, "%s_seed%s.json" % (workload, seed))]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, p.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON result" % workload)
    return lines[:-1], result


def check_result(result, trace):
    """Returns a list of problems with `result` against BENCHMARK.json."""
    want, _ = expected_metrics(trace)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            problems.append("metric %s: unit %s, expected %s" %
                            (name, got.get(name), want.get(name)))
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    return problems


def run_all(seed, seconds, smoke):
    """Runs every workload untraced and traced; prints every metric with its
    unit and checks names, units and oracles. Returns the exit code."""
    build()
    _, workloads = expected_metrics(False)
    bad = 0
    for workload in workloads:
        for trace in (False, True):
            _, result = run_once(workload, seed, seconds, trace, smoke=smoke)
            problems = check_result(result, trace)
            if not result["correct"] or result["failed"]:
                problems.append("oracle: %d of %d ops failed" %
                                (result["failed"], result["attempted"]))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-16s trace=%d  %4d ops  %s" %
                  (workload, trace, result["attempted"], status))
            for name, m in result["metrics"].items():
                print("    %-30s %.6g %s" % (name, m["value"], m["unit"]))
            bad += bool(problems)
    print("%s: %s" % ("smoke" if smoke else "all",
                      "passed" if not bad else "%d checks failed" % bad))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny sizes, traced and untraced")
    ap.add_argument("--all", action="store_true",
                    help="every workload at full size, traced and untraced")
    args = ap.parse_args()
    if args.smoke:
        return run_all(args.seed, 1, smoke=True)
    if args.all:
        return run_all(args.seed, args.seconds, smoke=False)
    if not args.workload:
        ap.error("--workload is required")
    build()
    notes, result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = check_result(result, bool(args.trace))
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
