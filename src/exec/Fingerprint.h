//===- exec/Fingerprint.h - Stable experiment-input fingerprints *- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content hashes of everything that determines a run's outcome: the
/// program (arrays + loop nests down to every affine coefficient), the
/// scaled cache topology (structure + geometry + latencies), the strategy
/// and the full MappingOptions. Two runs with equal fingerprints are
/// guaranteed to produce identical simulation results, which is what lets
/// the RunCache serve them from disk. A format-version salt is mixed in so
/// changing any serialization or semantics invalidates old cache entries
/// wholesale instead of corrupting them.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_EXEC_FINGERPRINT_H
#define CTA_EXEC_FINGERPRINT_H

#include "core/Options.h"
#include "core/Pipeline.h"
#include "poly/Program.h"
#include "support/Hashing.h"
#include "topo/Topology.h"

namespace cta {

/// Bumped whenever run semantics or RunResult serialization change.
/// Version 2: the simulator hot-path overhaul (precompiled access traces,
/// single-probe caches, heap scheduling) — results are bit-identical by
/// design, but the sentinel fix for completion cycles and the new fast
/// path warrant invalidating entries produced by the old engine.
/// Version 3: the obs/ instrumentation layer — RunResult carries
/// per-cache-instance statistics (with evictions), the static sharing
/// report, per-run counters and phase spans, all of which serialize into
/// cache entries so cached runs replay with full provenance.
/// Version 4: the frontend/ workload DSL — keys gain a trailing source
/// content hash so a run lowered from a .cta file and the same program
/// built by a compiled-in generator occupy distinct entries even though
/// the Program IR (and therefore the results) are identical.
/// Version 5: the sim/ tracing layer — keys gain a trailing traced flag,
/// phase records gain a start time (serialized per cache entry), and
/// traced runs bypass the cache entirely (their value is the event
/// stream, which is not persisted).
/// Version 6: the runtime/ adaptive scheduling layer — topologies gain
/// per-core speed/disabled attributes (hashed per node), MappingOptions
/// gains AdaptInterval, and two adaptive strategies extend the Strategy
/// enum; entries hashed without these fields must not be replayed.
/// Version 7: the adaptive runtime collapses to one greedy rebalance —
/// adaptive-greedy results lose an always-zero policy counter, so a
/// version-6 entry would replay bytes a fresh run no longer produces.
inline constexpr std::uint64_t RunCacheFormatVersion = 7;

/// Feeds \p Prog into \p H: name, arrays, nests, bounds, accesses and the
/// per-iteration compute cost.
void hashProgram(HashBuilder &H, const Program &Prog);

/// Feeds \p Topo into \p H: the finalized tree structure plus every
/// node's level, geometry and latency.
void hashTopology(HashBuilder &H, const CacheTopology &Topo);

/// Feeds every field of \p Opts into \p H.
void hashOptions(HashBuilder &H, const MappingOptions &Opts);

/// The cache key of one run. Key schema (field feed order into the
/// FNV-1a builder — any change here requires a RunCacheFormatVersion
/// bump):
///
///   1. literal "cta-run"
///   2. RunCacheFormatVersion
///   3. program        (hashProgram: name, arrays, nests, bounds,
///                      accesses, per-iteration compute cost)
///   4. machine        (hashTopology: the tree the mapper compiles for)
///   5. has-runs-on    (bool)
///   6. runs-on        (hashTopology; only when 5 is true — the distinct
///                      machine the mapping executes on, Figure 14)
///   7. strategy       (enum value)
///   8. options        (hashOptions: every MappingOptions field)
///   9. source hash    (\p SourceContentHash — FNV-1a of the DSL text a
///                      Program was parsed from, or 0 for compiled-in
///                      generators)
///  10. traced         (bool — event tracing attached to the run)
///
/// Field 9 exists so edits to a .cta file that do not change the lowered
/// IR (comments, whitespace, annotations) still miss the cache cleanly
/// rather than silently replaying a result from a stale source revision.
/// Field 10 keeps traced runs (which bypass the cache: they exist for
/// their event stream) from ever colliding with untraced entries.
std::uint64_t runFingerprint(const Program &Prog, const CacheTopology &Machine,
                             const CacheTopology *RunsOn, Strategy Strat,
                             const MappingOptions &Opts,
                             std::uint64_t SourceContentHash = 0,
                             bool Traced = false);

} // namespace cta

#endif // CTA_EXEC_FINGERPRINT_H
