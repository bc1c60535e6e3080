#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload sweep-cold|sim-base|serve-mixed|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Builds perfbench/ (the cta libraries, the
`cta` daemon and the `ctabench` program) into .bench_build/perfbench, runs
the workload, checks the exact work counters against perfbench/expected.json
and prints every metric with its unit and sample count. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The full result, with its host stamp, is kept under
.bench_build/results/ for perfbench/compare.py. Exits non-zero when any
check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ["sweep-cold", "sim-base", "serve-mixed"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds ctabench and cta; returns their paths."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                return None
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        if subprocess.call(["cmake", "--build", BUILD_DIR, "--target",
                            "ctabench", "cta", "-j", jobs],
                           stdout=log, stderr=log) != 0:
            return None
    return (os.path.join(BUILD_DIR, "ctabench"),
            os.path.join(BUILD_DIR, "cta-tools", "cta", "cta"))


def run_workload(exe, cta, workload, seed, seconds, trace, spec, expected):
    stamp = "%s-seed%d-trace%d-%d" % (workload, seed, trace, time.time_ns())
    results = os.path.join(".bench_build", "results")
    work = os.path.join(".bench_build", "work", stamp)
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, stamp + ".json")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cta", cta, "--dsl-dir", os.path.join("workloads", "dsl"),
           "--work-dir", work, "--out", out,
           "--spans", os.path.join(results, stamp + ".spans.jsonl")]
    try:
        rc = subprocess.call(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not os.path.exists(out):
        fail("%s wrote no result (exit code %d)" % (workload, rc))
    with open(out) as f:
        result = json.load(f)

    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["failures"])
    if rc != 0 and failed == 0:
        failed, failures = 1, failures + ["ctabench exited with %d" % rc]

    # Exact work counters: a mismatch is a failure, not noise.
    for name, want in expected.get(workload, {}).items():
        got = result["counters"].get(name)
        attempted += 1
        if got != want:
            failed += 1
            failures.append("counter %s = %s, expected %s" % (name, got, want))

    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = result["metrics"]
    if sorted(wanted) != sorted(metrics):
        fail("%s reported metrics %s, expected %s"
             % (workload, sorted(metrics), sorted(wanted)))

    host = result["host"]
    print("== %s (seed %d, trace %d): nproc=%s build=%s compiler=%s" % (
        workload, seed, trace, host["nproc"], host["build_type"],
        host["compiler"]))
    for name in wanted:
        m = metrics[name]
        print("  %-32s %16.6g %-6s (n=%d)" % (name, m["value"], m["unit"],
                                               m["samples"]))
    print("  %-32s %16.6g %-6s (n=%d)" % ("error_ratio", failed / attempted,
                                           "ratio", attempted))
    for name, value in result["counters"].items():
        print("  counter %-24s %s" % (name, value))
    for name, value in result["notes"].items():
        print("  note    %-24s %s" % (name, value))
    for message in failures:
        print("  FAILED: " + message)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n]["value"],
                            "unit": metrics[n]["unit"]} for n in wanted}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    for path in ("BENCHMARK.json", os.path.join("src", "CMakeLists.txt"),
                 os.path.join("workloads", "dsl")):
        if not os.path.exists(path):
            fail("run from the root of a cta checkout (%s is missing)" % path)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(os.path.join("perfbench", "expected.json")) as f:
        expected = json.load(f)

    built = build()
    if built is None:
        fail("build failed; see .bench_build/build.log")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    outcomes = [run_workload(built[0], built[1], w, args.seed, args.seconds,
                             args.trace, spec, expected) for w in workloads]
    if len(outcomes) == 1:
        summary = outcomes[0]
    else:
        summary = {
            "correct": all(o["correct"] for o in outcomes),
            "attempted": sum(o["attempted"] for o in outcomes),
            "failed": sum(o["failed"] for o in outcomes),
            "metrics": {w + "." + n: v for w, o in zip(workloads, outcomes)
                        for n, v in o["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
