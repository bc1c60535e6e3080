//===- sim/ParallelEngine.h - Epoch-parallel trace engine ------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third engine path: simulates independent per-core epochs between
/// barriers in parallel and merges shared-level interactions
/// deterministically at round boundaries.
///
/// Why this is bit-exact (the invariants DESIGN.md documents):
///
///  1. A core's path through the hierarchy is a *private prefix* (caches
///     serving only that core) followed by a *shared suffix* — core sets
///     grow monotonically toward the root. Private cache state depends
///     only on the owning core's own access order, never on the
///     cross-core interleaving, so phase 1 can run every core's full
///     schedule (all rounds) concurrently, resolving private hits and
///     recording a compact deferred record for every access that misses
///     the whole prefix.
///
///  2. The sequential engine's (cycle, core) min-heap pops in
///     lexicographically nondecreasing order and commits one iteration's
///     accesses atomically per pop. Shared caches therefore see probes
///     ordered by (iteration start cycle, core id). Phase 2 replays
///     exactly the deferred iterations through an identical heap: start
///     cycles are reconstructed from the known-latency deltas recorded in
///     phase 1 plus the shared-level latencies resolved during the replay
///     itself, so every shared cache observes the identical probe
///     sequence — hence identical hits, evictions, LRU state and
///     latencies — that the sequential engine produces.
///
///  3. Statistics are sums of per-access counts, so accumulating them
///     per-worker and folding in core order yields the same totals.
///
///  4. Cores under different top-level caches share no cache state, so
///     the merge splits into independent cache domains (cores grouped by
///     the last cache of their path), one task each. Every round starts
///     all cores at one barrier cycle and the heap's (cycle, core) order
///     is unchanged when a constant is added to every cycle, so a domain
///     replays all its rounds on round-relative clocks and records each
///     round's span (its latest relative end). The barriers fold in
///     afterwards: RoundStart[r+1] = RoundStart[r] + max over domains of
///     span[r], and a core's final cycle is RoundStart[last] plus its
///     relative end. State written by different threads (caches, per-core
///     and per-domain engine state) is line aligned, so the tasks do not
///     contend through false sharing.
///
/// Eligibility: barrier/unsynchronized schedules without a trace log
/// (point-to-point schedules interleave at access-wait granularity and
/// traced runs need the global event order; both fall back to the
/// sequential engine — see executeTrace).
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SIM_PARALLELENGINE_H
#define CTA_SIM_PARALLELENGINE_H

#include "sim/Engine.h"

namespace cta {

/// True when \p Map on \p Machine can use the epoch-parallel engine:
/// no point-to-point dependences, no trace log attached, more than one
/// core mapped. (The engine itself is correct for one core too; it is
/// just pointless.)
bool epochParallelEligible(const MachineSim &Machine, const Mapping &Map);

/// Runs the epoch-parallel engine. Call through executeTrace(), which
/// validates the mapping and falls back to the sequential engine when
/// ineligible; calling this directly with an ineligible mapping is a
/// fatal error.
ExecutionResult executeTraceEpochParallel(MachineSim &Machine,
                                          const AccessTrace &Trace,
                                          const Mapping &Map,
                                          const SimExec &Exec);

} // namespace cta

#endif // CTA_SIM_PARALLELENGINE_H
