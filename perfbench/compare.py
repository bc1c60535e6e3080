#!/usr/bin/env python3
"""Compares two sets of perfbench results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them (run.py keeps each
result under .bench_build/results/). For every workload measured on both
sides it prints each metric's median and quartile spread per side and the
change of the medians, and flags an end-to-end metric whose median got
worse by more than its bound in BENCHMARK.json. Results taken with a
different nproc or build type are not comparable: the script refuses them
(exit 2) instead of skipping them. Exit 1 when a bound is exceeded or the
exact work counters differ.
"""

import json
import os
import statistics
import sys


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    results = []
    for name in files:
        with open(name) as f:
            doc = json.load(f)
        if doc.get("schema") == "ctabench-result-v1":
            results.append(doc)
    if not results:
        sys.exit("compare: no ctabench results in %s" % path)
    return results


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    stamps = {(r["host"]["nproc"], r["host"]["build_type"])
              for r in base + new}
    if len(stamps) != 1:
        print("compare: refusing to compare results taken on different "
              "hosts or builds: %s" % sorted(stamps), file=sys.stderr)
        return 2
    spec = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    status = 0
    keys = sorted({(r["workload"], r["trace"]) for r in base} &
                  {(r["workload"], r["trace"]) for r in new})
    for workload, trace in keys:
        sides = [[r for r in rs if (r["workload"], r["trace"]) ==
                  (workload, trace)] for rs in (base, new)]
        print("== %s (trace %d): %d base runs, %d new runs"
              % (workload, trace, len(sides[0]), len(sides[1])))
        counters = {json.dumps(r["counters"], sort_keys=True)
                    for r in sides[0] + sides[1]}
        if len(counters) != 1:
            print("  EXACT COUNTERS DIFFER between runs")
            status = 1
        for name in sides[0][0]["metrics"]:
            b_med, b_spread = summary([r["metrics"][name]["value"]
                                       for r in sides[0]])
            n_med, n_spread = summary([r["metrics"][name]["value"]
                                       for r in sides[1]])
            change = (n_med - b_med) / b_med if b_med else 0.0
            verdict = ""
            if name in bounds and not trace:
                m = bounds[name]
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    verdict, status = "WORSE THAN BOUND %.2f" % m["bound"], 1
                elif b_spread > m["bound"]:
                    verdict = "unresolved (base spread above bound)"
            print("  %-32s base %-12.6g (iqr %5.1f%%)  new %-12.6g "
                  "(iqr %5.1f%%)  %+6.1f%%  %s"
                  % (name, b_med, 100 * b_spread, n_med, 100 * n_spread,
                     100 * change, verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
