#!/usr/bin/env python3
"""Compares two bench --emit-json artifacts with their timing fields removed.

    python3 scripts/compare_artifacts.py A.json B.json [--ignore KEY ...]

Every key named seconds, start_seconds, peak_rss_kb or mapping_seconds is
dropped at any depth (wall clock and memory high-water marks differ from
run to run); each --ignore KEY drops one more key the same way (for
example `jobs` when the two runs used different --jobs values). What is
left — cycles, statistics, counters, phase names and order — must be
equal. Prints the first differing paths and exits 1 when it is not, 0
when it is.
"""

import argparse
import json
import sys

TIMING_KEYS = {"seconds", "start_seconds", "peak_rss_kb", "mapping_seconds"}


def strip(value, keys):
    """Returns \\p value without any dictionary entry whose key is in keys."""
    if isinstance(value, dict):
        return {k: strip(v, keys) for k, v in value.items() if k not in keys}
    if isinstance(value, list):
        return [strip(v, keys) for v in value]
    return value


def differences(a, b, path, out, limit):
    """Appends up to \\p limit "path: a != b" lines for where a and b differ."""
    if len(out) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append("%s.%s: only in %s" % (path, key,
                                                   "A" if key in a else "B"))
            else:
                differences(a[key], b[key], "%s.%s" % (path, key), out, limit)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append("%s: %d entries != %d" % (path, len(a), len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            differences(x, y, "%s[%d]" % (path, i), out, limit)
    elif a != b:
        out.append("%s: %r != %r" % (path, a, b))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--ignore", action="append", default=[],
                        help="one more key to drop before comparing")
    args = parser.parse_args()

    keys = TIMING_KEYS | set(args.ignore)
    docs = []
    for path in (args.a, args.b):
        with open(path) as f:
            docs.append(strip(json.load(f), keys))
    out = []
    differences(docs[0], docs[1], "$", out, limit=20)
    if out:
        print("artifacts differ (A=%s, B=%s):" % (args.a, args.b))
        for line in out:
            print("  " + line)
        return 1
    print("artifacts equal without timing fields: %s, %s" % (args.a, args.b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
