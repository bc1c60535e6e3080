//===- exec/RunCache.h - Persistent content-addressed run cache *- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An on-disk, content-addressed cache of RunResults. The key is the
/// runFingerprint() of everything that determines a run (program, scaled
/// topology, strategy, options); the value is one small text file named
/// <hex-key>.run under the cache directory. Re-running a bench binary
/// against a warm cache therefore only simulates runs whose inputs
/// changed — the rest are served from disk byte-for-byte, including the
/// originally measured mapping-pass time.
///
/// Concurrency: lookups read whole files (lock-free readers); stores
/// write to a temporary unique per process *and* thread, then rename() it
/// into place, which is atomic on POSIX — so any number of worker
/// threads, or concurrent processes sharing a cache directory, race
/// benignly: the same key double-written by two publishers resolves to
/// one whole winner, never a torn file. Corrupt or truncated entries
/// deserialize to nullopt and are treated as misses.
///
//======---------------------------------------------------------------====//

#ifndef CTA_EXEC_RUNCACHE_H
#define CTA_EXEC_RUNCACHE_H

#include "driver/Experiment.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace cta {

/// Serializes \p R (all fields, including timing) as the versioned text
/// format stored in cache entries; \p Key is embedded and verified on
/// load so a misfiled entry can never be returned for the wrong run.
std::string serializeRunResult(const RunResult &R, std::uint64_t Key);

/// Parses serializeRunResult() output. Returns nullopt on any version,
/// key or syntax mismatch.
std::optional<RunResult> deserializeRunResult(const std::string &Text,
                                              std::uint64_t Key);

/// Canonical byte rendering of the deterministic fields of \p R — all of
/// them except MappingSeconds, which is a wall-clock measurement. Two
/// runs of equal fingerprint must produce equal deterministicBytes();
/// exec_test enforces this across thread counts.
std::string deterministicBytes(const RunResult &R);

/// The cache. Default-constructed it is disabled and every lookup misses.
class RunCache {
  std::string Dir; // empty = disabled

  mutable std::atomic<std::uint64_t> HitCount{0};
  mutable std::atomic<std::uint64_t> MissCount{0};
  mutable std::atomic<std::uint64_t> StoreCount{0};

public:
  RunCache() = default;

  /// Enables the cache rooted at \p Directory, creating it (and parents)
  /// if needed; an empty \p Directory constructs a disabled cache. Aborts
  /// via reportFatalError when the directory cannot be created.
  explicit RunCache(std::string Directory);

  bool enabled() const { return !Dir.empty(); }
  const std::string &directory() const { return Dir; }

  /// Returns the cached result for \p Key, or nullopt (also when
  /// disabled, or when the entry is corrupt).
  std::optional<RunResult> lookup(std::uint64_t Key) const;

  /// Persists \p R under \p Key. No-op when disabled.
  void store(std::uint64_t Key, const RunResult &R) const;

  std::uint64_t hits() const { return HitCount.load(); }
  std::uint64_t misses() const { return MissCount.load(); }
  std::uint64_t stores() const { return StoreCount.load(); }
};

} // namespace cta

#endif // CTA_EXEC_RUNCACHE_H
