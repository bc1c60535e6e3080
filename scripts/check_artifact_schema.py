#!/usr/bin/env python3
"""Sanity-check cta artifact JSON files (stdlib only).

Usage: check_artifact_schema.py FILE [FILE...]

Validates several document kinds, dispatched on shape:

 * cta-bench-artifact-v1 — what bench binaries emit via --emit-json /
   CTA_EMIT_JSON: schema tags, required keys, value types and the
   internal consistency invariants external tooling relies on (levels
   report misses = lookups - hits; per-cache levels appear in the levels
   aggregate).
 * cta-trace-v1 — Chrome trace-event JSON from `cta run --emit-trace`
   (recognized by a top-level "traceEvents" key): event record shapes,
   the otherData identification block, and the exact per-cache event
   totals being internally consistent (fills = misses, evictions <=
   fills).
 * cta-serve-resp-v1 — one `cta serve` response document (captured with
   `cta client --dump-response`): ok responses embed a full
   cta-run-artifact-v1 under "run"; error responses carry a typed kind.
 * cta-serve-bench-v1 — the `cta client` load report: counts reconcile
   (ok + errors = measured requests) and the latency block is ordered
   (p50 <= p90 <= p99 <= max).
 * cta-adaptive-bench-v1 — bench/adaptive_headroom's head-to-head
   document: per (scenario, workload, strategy) the simulated cycles
   and the runtime.adapt.* counters. Static strategies must report
   zero adaptive telemetry; adaptive strategies must report either
   remap rounds or a fallback, never neither.
 * cta-serve-stats-v1 — one live telemetry snapshot (a stats frame from
   the daemon's Unix socket, also what /metrics renders): monotonic
   counters, gauges, and log-bucketed histograms whose bucket counts
   must reconcile with the reported count.
 * cta-serve-event-v1 — the --log-json structured event log. A file of
   JSON lines (one object per request lifecycle transition) is
   accepted as well as a single-object file; every line must carry the
   schema tag, an epoch timestamp, a pid and a known event name, with
   trace/span ids as 16-char lowercase hex.

Exits non-zero and prints one line per violation; this is a guard
against silent schema drift, not a full JSON-Schema validator.
"""

import json
import sys

ERRORS = []


def err(path, msg):
    ERRORS.append(f"{path}: {msg}")


def expect_keys(obj, keys, path):
    for key, types in keys.items():
        if key not in obj:
            err(path, f"missing key '{key}'")
        elif not isinstance(obj[key], types):
            err(path, f"key '{key}' has type {type(obj[key]).__name__}")


def check_counters(obj, path):
    if not isinstance(obj, dict):
        err(path, "counters is not an object")
        return
    for name, value in obj.items():
        if not isinstance(value, int) or value < 0:
            err(path, f"counter '{name}' is not a non-negative integer")


def check_engine_counters(obj, path):
    """Consistency of the simulator-engine observability counters.

    The engines publish families of counters that only make sense
    together: a run that went through the batched sequential path bumps
    both sim.batch.rows and sim.batch.accesses (and simulates at least
    one access per batched row); a run that went through the
    epoch-parallel engine reports its arena footprint and deferred-work
    sizes alongside sim.parallel.runs. A family member appearing alone
    means an engine stopped publishing half its telemetry.
    """
    if not isinstance(obj, dict):
        return
    if "sim.batch.rows" in obj or "sim.batch.accesses" in obj:
        for key in ("sim.batch.rows", "sim.batch.accesses"):
            if key not in obj:
                err(path, f"batched-engine counters incomplete: '{key}' "
                    "missing")
        if obj.get("sim.batch.accesses", 0) < obj.get("sim.batch.rows", 0):
            err(path, "sim.batch.accesses < sim.batch.rows")
    parallel = [k for k in obj if k.startswith("sim.parallel.")]
    if parallel:
        for key in ("sim.parallel.runs", "sim.parallel.arena-bytes",
                    "sim.parallel.deferred-probes",
                    "sim.parallel.deferred-iters"):
            if key not in obj:
                err(path, f"parallel-engine counters incomplete: '{key}' "
                    "missing")
        if obj.get("sim.parallel.runs", 0) == 0:
            err(path, "sim.parallel.* counters present but "
                "sim.parallel.runs is 0")


def check_phase(phase, path):
    expect_keys(
        phase,
        {
            "name": str,
            "start_seconds": (int, float, type(None)),
            "seconds": (int, float, type(None)),
            "peak_rss_kb": int,
            "counters": dict,
        },
        path,
    )
    if "counters" in phase:
        check_counters(phase["counters"], f"{path}.counters")


def check_run(run, path):
    expect_keys(
        run,
        {
            "schema": str,
            "label": str,
            "fingerprint": str,
            "cache_status": str,
            "cycles": int,
            "mapping_seconds": (int, float, type(None)),
            "block_size_bytes": int,
            "imbalance": (int, float, type(None)),
            "rounds": int,
            "memory_accesses": int,
            "total_accesses": int,
            "levels": list,
            "caches": list,
            "sharing": dict,
            "phases": list,
            "counters": dict,
        },
        path,
    )
    if run.get("schema") != "cta-run-artifact-v1":
        err(path, f"unexpected run schema {run.get('schema')!r}")
    # "warm"/"coalesced"/"skipped" are the serve-tier views added with
    # `cta serve`; CLI artifacts only ever carry the first four.
    if run.get("cache_status") not in (
            "hit", "miss", "disabled", "bypass", "warm", "coalesced",
            "skipped"):
        err(path, f"unexpected cache_status {run.get('cache_status')!r}")

    level_ids = set()
    for i, level in enumerate(run.get("levels", [])):
        lpath = f"{path}.levels[{i}]"
        expect_keys(
            level,
            {"level": int, "lookups": int, "hits": int, "misses": int,
             "evictions": int},
            lpath,
        )
        if all(k in level for k in ("lookups", "hits", "misses")):
            if level["misses"] != level["lookups"] - level["hits"]:
                err(lpath, "misses != lookups - hits")
        level_ids.add(level.get("level"))
    for i, cache in enumerate(run.get("caches", [])):
        cpath = f"{path}.caches[{i}]"
        expect_keys(
            cache,
            {"node": int, "level": int, "lookups": int, "hits": int,
             "evictions": int},
            cpath,
        )
        if cache.get("lookups", 0) > 0 and cache.get("level") not in level_ids:
            err(cpath, f"level {cache.get('level')} missing from levels[]")
    sharing = run.get("sharing", {})
    if isinstance(sharing, dict):
        expect_keys(sharing, {"total": int, "levels": list}, f"{path}.sharing")
        for i, s in enumerate(sharing.get("levels", [])):
            expect_keys(
                s,
                {"level": int, "within": int, "across": int},
                f"{path}.sharing.levels[{i}]",
            )
    for i, phase in enumerate(run.get("phases", [])):
        check_phase(phase, f"{path}.phases[{i}]")
    if "counters" in run:
        check_counters(run["counters"], f"{path}.counters")
        check_engine_counters(run["counters"], f"{path}.counters")


def check_bench(doc, path):
    expect_keys(
        doc,
        {
            "schema": str,
            "bench": str,
            "jobs": int,
            "cache": dict,
            "simulator_invocations": int,
            "simulated_accesses": int,
            "runs": list,
            "process_counters": dict,
            "process_phases": list,
        },
        path,
    )
    if doc.get("schema") != "cta-bench-artifact-v1":
        err(path, f"unexpected schema {doc.get('schema')!r}")
    cache = doc.get("cache", {})
    if isinstance(cache, dict):
        expect_keys(
            cache,
            {"enabled": bool, "hits": int, "misses": int, "stores": int},
            f"{path}.cache",
        )
    for i, run in enumerate(doc.get("runs", [])):
        check_run(run, f"{path}.runs[{i}]")
    if "process_counters" in doc:
        check_counters(doc["process_counters"], f"{path}.process_counters")
        check_engine_counters(doc["process_counters"],
                              f"{path}.process_counters")
    for i, phase in enumerate(doc.get("process_phases", [])):
        check_phase(phase, f"{path}.process_phases[{i}]")


def check_trace(doc, path):
    expect_keys(
        doc,
        {"traceEvents": list, "displayTimeUnit": str, "otherData": dict},
        path,
    )
    other = doc.get("otherData", {})
    if isinstance(other, dict):
        opath = f"{path}.otherData"
        expect_keys(
            other,
            {
                "schema": str,
                "workload": str,
                "machine": str,
                "strategy": str,
                "total_events": int,
                "dropped_events": int,
                "ring_capacity": int,
                "rounds": int,
                "memory_accesses": int,
                "caches": list,
            },
            opath,
        )
        if other.get("schema") != "cta-trace-v1":
            err(opath, f"unexpected trace schema {other.get('schema')!r}")
        for i, cache in enumerate(other.get("caches", [])):
            cpath = f"{opath}.caches[{i}]"
            expect_keys(
                cache,
                {"node": int, "level": int, "hits": int, "misses": int,
                 "evictions": int, "fills": int},
                cpath,
            )
            # Inclusive fill-on-miss: every miss fills, and only fills into
            # a full set evict.
            if cache.get("fills") != cache.get("misses"):
                err(cpath, "fills != misses")
            if cache.get("evictions", 0) > cache.get("fills", 0):
                err(cpath, "evictions > fills")
    for i, ev in enumerate(doc.get("traceEvents", [])):
        epath = f"{path}.traceEvents[{i}]"
        if not isinstance(ev, dict):
            err(epath, "event is not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            err(epath, f"unexpected phase type {ph!r}")
            continue
        required = {"name": str, "ph": str, "pid": int, "tid": int}
        if ph == "X":
            required.update({"ts": (int, float), "dur": (int, float)})
        elif ph == "i":
            required.update({"ts": (int, float), "s": str})
        else:
            required.update({"args": dict})
        expect_keys(ev, required, epath)


def check_serve_resp(doc, path):
    expect_keys(doc, {"schema": str, "id": str, "status": str}, path)
    status = doc.get("status")
    if status == "ok":
        expect_keys(
            doc,
            {
                "cache_status": str,
                "queue_seconds": (int, float),
                "service_seconds": (int, float),
                "run": dict,
            },
            path,
        )
        if doc.get("cache_status") not in (
                "warm", "coalesced", "hit", "miss", "disabled"):
            err(path, f"unexpected cache_status {doc.get('cache_status')!r}")
        if isinstance(doc.get("run"), dict):
            check_run(doc["run"], f"{path}.run")
    elif status == "error":
        error = doc.get("error")
        if not isinstance(error, dict):
            err(path, "error response without an 'error' object")
            return
        expect_keys(error, {"kind": str, "message": str}, f"{path}.error")
        if error.get("kind") not in (
                "bad_request", "parse", "overloaded", "shutdown"):
            err(f"{path}.error", f"unexpected kind {error.get('kind')!r}")
    else:
        err(path, f"unexpected status {status!r}")


def check_serve_bench(doc, path):
    expect_keys(
        doc,
        {
            "schema": str,
            "benchmark": str,
            "socket": str,
            "workload": str,
            "machine": str,
            "strategy": str,
            "requests": int,
            "concurrency": int,
            "mix": str,
            "ok": int,
            "errors": dict,
            "cache_status": dict,
            "wall_seconds": (int, float),
            "requests_per_second": (int, float),
            "latency_seconds": dict,
            "queue_seconds_mean": (int, float),
            "service_seconds_mean": (int, float),
        },
        path,
    )
    check_counters(doc.get("errors", {}), f"{path}.errors")
    check_counters(doc.get("cache_status", {}), f"{path}.cache_status")
    measured = doc.get("ok", 0) + sum(doc.get("errors", {}).values())
    if measured != doc.get("requests"):
        err(path, f"ok + errors = {measured} != requests "
            f"{doc.get('requests')}")
    lat = doc.get("latency_seconds", {})
    if isinstance(lat, dict):
        lpath = f"{path}.latency_seconds"
        expect_keys(
            lat,
            {"mean": (int, float), "p50": (int, float), "p90": (int, float),
             "p99": (int, float), "max": (int, float)},
            lpath,
        )
        quantiles = [lat.get(k, 0) for k in ("p50", "p90", "p99", "max")]
        if all(isinstance(q, (int, float)) for q in quantiles):
            if quantiles != sorted(quantiles):
                err(lpath, "latency quantiles are not monotone")
    # The server-attributed split (one sample per ok response, echoed in
    # cta-serve-resp-v1): present on reports from daemons new enough to
    # attribute latency, always well-formed when present.
    for key in ("server_queue_seconds", "server_service_seconds"):
        split = doc.get(key)
        if split is None:
            continue
        spath = f"{path}.{key}"
        if not isinstance(split, dict):
            err(spath, "latency split is not an object")
            continue
        expect_keys(
            split,
            {"mean": (int, float), "p50": (int, float), "p99": (int, float),
             "max": (int, float)},
            spath,
        )
        quantiles = [split.get(k, 0) for k in ("p50", "p99", "max")]
        if all(isinstance(q, (int, float)) for q in quantiles):
            if quantiles != sorted(quantiles):
                err(spath, "latency split quantiles are not monotone")


ADAPT_COUNTER_KEYS = ("rounds", "remaps", "migrations", "fallbacks")


def check_adaptive_bench(doc, path):
    expect_keys(
        doc,
        {
            "schema": str,
            "benchmark": str,
            "adapt_interval": int,
            "workloads": list,
            "scenarios": list,
        },
        path,
    )
    if isinstance(doc.get("adapt_interval"), int) and \
            doc["adapt_interval"] < 1:
        err(path, f"adapt_interval {doc['adapt_interval']} is not positive")
    for i, scenario in enumerate(doc.get("scenarios", [])):
        spath = f"{path}.scenarios[{i}]"
        expect_keys(scenario, {"name": str, "machine": str, "entries": list},
                    spath)
        for j, entry in enumerate(scenario.get("entries", [])):
            epath = f"{spath}.entries[{j}]"
            expect_keys(
                entry,
                {"workload": str, "strategy": str, "cycles": int,
                 "adapt": dict},
                epath,
            )
            if isinstance(entry.get("cycles"), int) and entry["cycles"] <= 0:
                err(epath, f"cycles {entry['cycles']} is not positive")
            adapt = entry.get("adapt")
            if not isinstance(adapt, dict):
                continue
            expect_keys(adapt, {k: int for k in ADAPT_COUNTER_KEYS},
                        f"{epath}.adapt")
            check_counters(adapt, f"{epath}.adapt")
            strategy = entry.get("strategy", "")
            if strategy.startswith("Adaptive"):
                # An adaptive run either reached at least one remap commit
                # point or fell back to the static executor; silence means
                # the counters stopped flowing.
                if adapt.get("rounds", 0) == 0 and \
                        adapt.get("fallbacks", 0) == 0:
                    err(f"{epath}.adapt", "adaptive entry reports neither "
                        "remap rounds nor a fallback")
            else:
                for key in ADAPT_COUNTER_KEYS:
                    if adapt.get(key, 0) != 0:
                        err(f"{epath}.adapt", f"static strategy "
                            f"{strategy!r} reports nonzero {key}")


def check_telemetry_hex_id(obj, key, path):
    value = obj.get(key)
    if value is None:
        return
    if not isinstance(value, str) or len(value) != 16 or \
            any(c not in "0123456789abcdef" for c in value):
        err(path, f"'{key}' is not 16 lowercase hex chars: {value!r}")


EVENT_NAMES = ("admitted", "coalesced", "shed", "dispatched", "completed")


def check_serve_event(doc, path):
    """One cta-serve-event-v1 line: a lifecycle transition."""
    if not isinstance(doc, dict):
        err(path, "event is not an object")
        return
    expect_keys(
        doc,
        {"schema": str, "ts": (int, float), "pid": int, "event": str},
        path,
    )
    if doc.get("schema") != "cta-serve-event-v1":
        err(path, f"unexpected event schema {doc.get('schema')!r}")
    if doc.get("event") not in EVENT_NAMES:
        err(path, f"unknown event name {doc.get('event')!r}")
    if isinstance(doc.get("ts"), (int, float)) and doc["ts"] <= 0:
        err(path, "ts is not a positive epoch timestamp")
    for key in ("trace_id", "span_id"):
        check_telemetry_hex_id(doc, key, path)
    # A span without a trace cannot be joined to its request.
    if "span_id" in doc and "trace_id" not in doc:
        err(path, "span_id without a trace_id")
    for key, types in (("id", str), ("client", str), ("detail", str),
                       ("seconds", (int, float))):
        if key in doc and not isinstance(doc[key], types):
            err(path, f"'{key}' has type {type(doc[key]).__name__}")
    if isinstance(doc.get("seconds"), (int, float)) and doc["seconds"] < 0:
        err(path, "seconds is negative")


def check_histogram_snapshot(hist, path):
    expect_keys(
        hist,
        {"unit": str, "scale": (int, float), "count": int,
         "sum": (int, float), "buckets": list},
        path,
    )
    bucket_total = 0
    prev_le = None
    for i, bucket in enumerate(hist.get("buckets", [])):
        bpath = f"{path}.buckets[{i}]"
        if not isinstance(bucket, dict):
            err(bpath, "bucket is not an object")
            continue
        expect_keys(bucket, {"le": (int, float, str), "count": int}, bpath)
        le = bucket.get("le")
        if isinstance(le, str) and le != "inf":
            err(bpath, f"string bound must be 'inf', got {le!r}")
        if isinstance(le, (int, float)):
            if prev_le is not None and le <= prev_le:
                err(bpath, "bucket bounds are not increasing")
            prev_le = le
        if isinstance(bucket.get("count"), int):
            if bucket["count"] <= 0:
                err(bpath, "empty buckets must be elided")
            else:
                bucket_total += bucket["count"]
    if isinstance(hist.get("count"), int) and bucket_total != hist["count"]:
        err(path, f"bucket counts sum to {bucket_total} != count "
            f"{hist.get('count')}")


def check_serve_stats(doc, path):
    expect_keys(
        doc,
        {
            "schema": str,
            "uptime_seconds": (int, float),
            "rss_kb": int,
            "counters": dict,
            "gauges": dict,
            "histograms": dict,
        },
        path,
    )
    if isinstance(doc.get("uptime_seconds"), (int, float)) and \
            doc["uptime_seconds"] < 0:
        err(path, "uptime_seconds is negative")
    check_counters(doc.get("counters", {}), f"{path}.counters")
    gauges = doc.get("gauges", {})
    if isinstance(gauges, dict):
        for name, value in gauges.items():
            if not isinstance(value, (int, float)):
                err(f"{path}.gauges", f"gauge '{name}' is not a number")
    hists = doc.get("histograms", {})
    if isinstance(hists, dict):
        for name, hist in hists.items():
            hpath = f"{path}.histograms[{name}]"
            if not isinstance(hist, dict):
                err(hpath, "histogram is not an object")
                continue
            check_histogram_snapshot(hist, hpath)
    # Every serve tier counter pairs with its latency histogram (both are
    # derived from the same LogHistogram, so one without the other means
    # the snapshot assembler dropped half the family).
    counters = doc.get("counters", {})
    if isinstance(counters, dict) and isinstance(hists, dict):
        for name, value in counters.items():
            if name.startswith("serve.tier.") and value > 0:
                tier = name[len("serve.tier."):]
                if f"serve.latency.{tier}" not in hists:
                    err(path, f"counter '{name}' has no matching "
                        f"serve.latency.{tier} histogram")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = argv[1:]
    for file in files:
        try:
            with open(file, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            err(file, f"unreadable: {e}")
            continue
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            # Not one document: accept a cta-serve-event-v1 JSON-lines log.
            lines = [l for l in text.splitlines() if l.strip()]
            if lines and all(l.lstrip().startswith("{") for l in lines):
                for i, line in enumerate(lines):
                    lpath = f"{file}:{i + 1}"
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError as le:
                        err(lpath, f"invalid JSON line: {le}")
                        continue
                    check_serve_event(event, lpath)
            else:
                err(file, f"unreadable or invalid JSON: {e}")
            continue
        if isinstance(doc, dict) and "traceEvents" in doc:
            check_trace(doc, file)
        elif isinstance(doc, dict) and doc.get("schema") == "cta-serve-resp-v1":
            check_serve_resp(doc, file)
        elif isinstance(doc, dict) and \
                doc.get("schema") == "cta-serve-bench-v1":
            check_serve_bench(doc, file)
        elif isinstance(doc, dict) and \
                doc.get("schema") == "cta-adaptive-bench-v1":
            check_adaptive_bench(doc, file)
        elif isinstance(doc, dict) and \
                doc.get("schema") == "cta-serve-stats-v1":
            check_serve_stats(doc, file)
        elif isinstance(doc, dict) and \
                doc.get("schema") == "cta-serve-event-v1":
            check_serve_event(doc, file)
        else:
            check_bench(doc, file)
    for line in ERRORS:
        print(line, file=sys.stderr)
    if ERRORS:
        print(f"check_artifact_schema: {len(ERRORS)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"check_artifact_schema: {len(files)} artifact(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
