//===- sim/TraceLog.h - Event-level simulator tracing ----------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Event-level tracing of one simulated execution: the "why" behind the
/// end-of-run aggregates the obs/ layer reports. A TraceLog collects
///
///  * a bounded ring buffer of fine-grained events — per-core iteration
///    spans, round barriers, and per-cache-instance hit/miss/eviction/
///    fill events stamped with the issuing core's simulated clock
///    (overflow drops the oldest events and counts the drops);
///  * exact per-cache-instance event totals (never dropped), which
///    reconcile one-for-one with the Cache statistics counters;
///  * online per-cache-instance reuse-distance (LRU stack-distance)
///    histograms over the filtered access stream each instance sees;
///  * a core-to-core sharing-flow matrix per shared cache instance:
///    which core's fill later served which core's hit — the horizontal
///    reuse the paper's alpha weight optimizes, observed directly;
///  * per-core per-round execution spans (start/end cycle, iteration
///    count) for the `cta trace` Gantt, kept as exact aggregates so they
///    survive ring overflow;
///  * per-data-granule miss and memory-access counts for the top-N
///    miss-dominant block report.
///
/// Tracing is strictly opt-in: a MachineSim with no log attached takes a
/// single predicted-not-taken branch per access and runs the PR 2 hot
/// path unchanged (bench stdout is byte-identical with tracing off). The
/// fast probe() engine and the reference access()+fill() engine emit
/// identical event streams by construction; tests/tracelog_test.cpp
/// enforces both properties.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SIM_TRACELOG_H
#define CTA_SIM_TRACELOG_H

#include "topo/Topology.h"

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace cta {

/// What one TraceEvent records. Payload meaning per kind:
/// iteration id for IterBegin/IterEnd, line address for the cache kinds
/// (victim line for CacheEviction), byte address for MemoryAccess, round
/// number for RoundBarrier.
enum class TraceEventKind : std::uint8_t {
  IterBegin,
  IterEnd,
  CacheHit,
  CacheMiss,
  CacheEviction,
  CacheFill,
  MemoryAccess,
  RoundBarrier,
};

/// One fine-grained event. 24 bytes, stamped with the issuing core's
/// simulated cycle (RoundBarrier uses the barrier's global cycle).
struct TraceEvent {
  std::uint64_t Cycle = 0;
  std::uint64_t Payload = 0;
  std::uint32_t Core = 0;
  std::uint16_t Node = 0; // cache node id; 0 for non-cache events
  TraceEventKind Kind = TraceEventKind::IterBegin;
};

/// Collection knobs. The ring capacity bounds the fine-grained event
/// memory (24 B/event); the analytic structures (histograms, sharing
/// matrices, miss maps) grow with the touched working set instead.
struct TraceConfig {
  /// Ring capacity in events; oldest events are dropped past it.
  std::size_t RingCapacity = 1u << 20;
  /// Collect per-cache reuse-distance histograms.
  bool ReuseDistance = true;
  /// Collect per-shared-cache core-to-core sharing-flow matrices.
  bool SharingFlow = true;
};

/// Online LRU stack-distance profiler over one cache instance's access
/// stream (Bennett-Kruskal: a Fenwick tree over access-time slots where a
/// slot holds 1 iff it is the most recent access of its line, so the
/// distance of a reuse is a prefix-sum difference). Slots are compacted
/// in place once they outnumber live lines 4:1, which bounds memory by
/// the distinct-line footprint, not the access count.
class ReuseDistanceProfiler {
public:
  /// Histogram buckets: [0] = distance 0, [k>0] = distances in
  /// [2^(k-1), 2^k). Distances at or beyond 2^(NumBuckets-2) saturate
  /// into the last bucket.
  static constexpr unsigned NumBuckets = 34;

  /// Records one access to \p LineAddr. Returns the stack distance (the
  /// number of distinct other lines touched since the previous access to
  /// \p LineAddr), or UINT64_MAX for a cold (first) access.
  std::uint64_t record(std::uint64_t LineAddr);

  /// Bucket index of a finite distance.
  static unsigned bucketOf(std::uint64_t Distance);

  const std::array<std::uint64_t, NumBuckets> &histogram() const {
    return Histogram;
  }
  std::uint64_t coldAccesses() const { return ColdCount; }
  std::uint64_t samples() const { return SampleCount; }

  /// Sum of histogram counts in buckets 0..bucketOf(Distance), i.e. the
  /// number of reuses whose bucketed distance is <= \p Distance's bucket.
  std::uint64_t massUpTo(std::uint64_t Distance) const;

private:
  void compact();
  void bitSet(std::uint32_t Slot);
  void bitClear(std::uint32_t Slot);
  std::uint32_t onesUpTo(std::uint32_t Slot) const;

  std::vector<std::uint32_t> Tree;                         // 1-based Fenwick
  std::unordered_map<std::uint64_t, std::uint32_t> LastSlot; // line -> slot
  std::uint32_t NextSlot = 1;
  std::uint64_t ColdCount = 0;
  std::uint64_t SampleCount = 0;
  std::array<std::uint64_t, NumBuckets> Histogram{};
};

/// The collector. One TraceLog observes one MachineSim execution (or a
/// sequence of them: multi-nest programs keep appending, with rounds
/// renumbered globally). Not thread-safe — one simulation is
/// single-threaded, and the exec/ layer gives each traced task its own
/// log.
class TraceLog {
public:
  /// Exact per-cache-instance event totals (indexed by topology node id;
  /// entry 0, the memory root, counts MemoryAccess events in Misses).
  struct NodeCounts {
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
    std::uint64_t Evictions = 0;
    std::uint64_t Fills = 0;
  };

  /// One core's execution span within one global round.
  struct RoundSpan {
    std::uint64_t StartCycle = UINT64_MAX;
    std::uint64_t EndCycle = 0;
    std::uint64_t Iterations = 0;
    bool active() const { return Iterations != 0; }
  };

  /// One global round barrier: every core synchronized at Cycle.
  struct BarrierRecord {
    unsigned Round = 0;
    std::uint64_t Cycle = 0;
  };

  /// Miss pressure of one 64-byte data granule (MissGranuleShift).
  struct GranuleCounts {
    std::uint64_t CacheMisses = 0;   // misses at any cache level
    std::uint64_t MemoryAccesses = 0; // walks that fell through to memory
  };

  static constexpr unsigned MissGranuleShift = 6;

  explicit TraceLog(TraceConfig Config = {});

  /// Ties the log to the machine it observes: keeps its own copy of the
  /// topology (the log outlives the task that ran the simulation, and the
  /// renderers read the topology long after) and allocates the per-node
  /// structures. Called by MachineSim::setTraceLog; binding a second,
  /// different topology is a fatal error (one log = one machine).
  void bind(const CacheTopology &Topo);
  bool bound() const { return Topo.has_value(); }
  const CacheTopology &topology() const;
  const TraceConfig &config() const { return Config; }

  //===--------------------------------------------------------------------===//
  // Engine hooks (executeTrace / executeMappingReference)
  //===--------------------------------------------------------------------===//

  /// Starts a new nest execution: subsequent rounds are renumbered after
  /// every round already recorded, so multi-nest runs get one global
  /// round axis.
  void beginNest();

  /// Sets the round (relative to the current nest) subsequent iteration
  /// spans belong to.
  void setRound(unsigned Round) { CurRound = RoundBase + Round; }

  /// Records one executed iteration: emits IterBegin/IterEnd events and
  /// folds the span into the per-core per-round aggregate.
  void iterationSpan(unsigned Core, std::uint32_t Iter,
                     std::uint64_t StartCycle, std::uint64_t EndCycle);

  /// Records a global round barrier at \p Cycle (the slowest core's
  /// finishing time for the round).
  void roundBarrier(unsigned Round, std::uint64_t Cycle);

  /// Timestamp base for subsequent cache events of \p Core: the engine
  /// updates this as the core's clock advances within an iteration.
  void setCycle(unsigned Core, std::uint64_t Cycle) {
    CoreCycle[Core] = Cycle;
  }

  //===--------------------------------------------------------------------===//
  // Machine hooks (MachineSim traced access paths)
  //===--------------------------------------------------------------------===//

  /// One cache probe outcome: emits the hit/miss event, samples the
  /// reuse distance of \p LineAddr at \p Node, updates the sharing-flow
  /// matrix on shared-cache hits and the per-granule miss map on misses.
  void cacheLookup(unsigned Core, unsigned Node, std::uint64_t LineAddr,
                   std::uint64_t ByteAddr, bool Hit);

  /// An eviction of \p VictimTag at \p Node (always paired with a fill).
  void cacheEviction(unsigned Core, unsigned Node, std::uint64_t VictimTag);

  /// A fill of \p LineAddr into \p Node by \p Core.
  void cacheFill(unsigned Core, unsigned Node, std::uint64_t LineAddr);

  /// An access that missed every cache level and went to memory.
  void memoryAccess(unsigned Core, std::uint64_t ByteAddr);

  //===--------------------------------------------------------------------===//
  // Results
  //===--------------------------------------------------------------------===//

  /// Ring contents in chronological order (oldest surviving event first).
  std::vector<TraceEvent> events() const;
  std::uint64_t droppedEvents() const { return Dropped; }
  std::uint64_t totalEvents() const { return TotalEvents; }

  const std::vector<NodeCounts> &nodeCounts() const { return Counts; }

  /// Per-node reuse-distance profile; empty histogram for node 0 and
  /// when collection is disabled.
  const std::vector<ReuseDistanceProfiler> &reuseProfiles() const {
    return Reuse;
  }

  /// Sharing-flow matrix of shared cache node \p Node, flattened
  /// [filler * numCores + consumer]; empty for private nodes or when
  /// collection is disabled.
  const std::vector<std::uint64_t> &sharingMatrix(unsigned Node) const;

  /// Sum of all shared nodes' matrices at cache level \p Level.
  std::vector<std::uint64_t> sharingMatrixAtLevel(unsigned Level) const;

  /// Per-core per-round spans: [Core][Round] (rows padded to the global
  /// round count with inactive spans).
  std::vector<std::vector<RoundSpan>> roundSpans() const;
  unsigned numRounds() const { return NumRounds; }
  const std::vector<BarrierRecord> &barriers() const { return Barriers; }

  /// 64-byte-granule miss map (key = byte address >> MissGranuleShift).
  const std::unordered_map<std::uint64_t, GranuleCounts> &missGranules()
      const {
    return Granules;
  }

private:
  void push(TraceEventKind Kind, unsigned Core, unsigned Node,
            std::uint64_t Cycle, std::uint64_t Payload);

  TraceConfig Config;
  std::optional<CacheTopology> Topo;
  unsigned NumCores = 0;

  // Ring buffer.
  std::vector<TraceEvent> Ring;
  std::size_t Head = 0;  // index of the oldest event
  std::size_t Count = 0; // events currently resident
  std::uint64_t Dropped = 0;
  std::uint64_t TotalEvents = 0;

  // Exact aggregates.
  std::vector<NodeCounts> Counts;              // by node id
  std::vector<ReuseDistanceProfiler> Reuse;    // by node id
  std::vector<std::vector<std::uint64_t>> Sharing; // by node id, flattened
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> Filler;
  std::unordered_map<std::uint64_t, GranuleCounts> Granules;

  // Round/Gantt bookkeeping.
  std::vector<std::vector<RoundSpan>> Rounds; // [core][global round]
  std::vector<BarrierRecord> Barriers;
  std::vector<std::uint64_t> CoreCycle;
  unsigned RoundBase = 0;
  unsigned CurRound = 0;
  unsigned NumRounds = 0; // max global round index touched + 1
};

} // namespace cta

#endif // CTA_SIM_TRACELOG_H
