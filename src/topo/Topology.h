//===- topo/Topology.h - On-chip cache hierarchy trees ---------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache hierarchy tree: the machine description the paper's scheme
/// takes as input (Figure 6: "T is the cache hierarchy tree with the last
/// level cache as the root node... off-chip memory is treated as the root
/// if there are more than one last level caches"). We always root the tree
/// at an off-chip memory node, which uniformly handles both cases. Interior
/// nodes are cache instances; each level-1 (L1) cache serves exactly one
/// core.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_TOPO_TOPOLOGY_H
#define CTA_TOPO_TOPOLOGY_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace cta {

/// Geometry and latency of one cache (all instances of a level share these).
struct CacheParams {
  std::uint64_t SizeBytes = 0;
  unsigned Assoc = 1;
  unsigned LineSize = 64;
  unsigned LatencyCycles = 1;

  unsigned numSets() const {
    assert(LineSize != 0 && Assoc != 0 && "degenerate cache params");
    std::uint64_t Lines = SizeBytes / LineSize;
    std::uint64_t Sets = Lines / Assoc;
    return Sets == 0 ? 1 : static_cast<unsigned>(Sets);
  }

  bool operator==(const CacheParams &) const = default;
};

/// A cache hierarchy tree rooted at off-chip memory.
class CacheTopology {
public:
  /// Sentinel level for the memory root (larger than any cache level, since
  /// levels count distance from the core: L1 = 1, L2 = 2, ...).
  static constexpr unsigned MemoryLevel = 255;

  struct Node {
    int Parent = -1;
    std::vector<unsigned> Children;
    unsigned Level = MemoryLevel;
    CacheParams Params{}; // for the memory root only LatencyCycles is used
    std::vector<unsigned> Cores; // cores served (filled by finalize)
    int Core = -1;               // owning core for L1 nodes, else -1
    /// Relative core speed for L1 nodes: 100 = nominal, 50 = half speed,
    /// 0 = disabled (the core accepts no work). Ignored on interior nodes.
    unsigned SpeedPercent = 100;

    bool operator==(const Node &) const = default;
  };

private:
  std::string Name;
  std::vector<Node> Nodes; // Nodes[0] is the memory root
  std::vector<unsigned> CoreToL1;
  bool Finalized = false;

public:
  /// Creates a topology whose memory root has the given access latency.
  CacheTopology(std::string Name, unsigned MemoryLatencyCycles);

  /// Structural equality: same name, tree, geometry, latencies and speeds.
  bool operator==(const CacheTopology &) const = default;

  const std::string &name() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

  /// Adds a cache instance under \p Parent at cache level \p Level
  /// (1 = L1). Returns the new node id. Must precede finalize().
  unsigned addCache(unsigned Parent, unsigned Level, CacheParams Params);

  /// Assigns core ids to L1 caches (in node-creation order), fills the
  /// per-node core lists and validates the structure. Aborts on malformed
  /// trees (non-L1 leaves, level inversions).
  void finalize();

  bool finalized() const { return Finalized; }
  unsigned numNodes() const { return Nodes.size(); }
  unsigned numCores() const { return CoreToL1.size(); }

  const Node &node(unsigned Id) const {
    assert(Id < Nodes.size() && "node id out of range");
    return Nodes[Id];
  }
  const Node &root() const { return Nodes[0]; }
  unsigned rootId() const { return 0; }

  unsigned memoryLatency() const { return Nodes[0].Params.LatencyCycles; }

  /// Node id of core \p Core's L1 cache.
  unsigned l1Of(unsigned Core) const {
    assert(Finalized && Core < CoreToL1.size() && "bad core id");
    return CoreToL1[Core];
  }

  /// Relative speed of \p Core (100 = nominal, 0 = disabled).
  unsigned coreSpeedPercent(unsigned Core) const {
    return Nodes[l1Of(Core)].SpeedPercent;
  }

  /// Sets core \p Core's relative speed (0 disables it). Requires
  /// finalize() to have run so the core→L1 map exists.
  void setCoreSpeed(unsigned Core, unsigned Pct) {
    assert(Pct <= 100 && "speed is a percentage of nominal");
    Nodes[CoreToL1[Core]].SpeedPercent = Pct;
  }

  /// Sets the speed attribute on an existing node by node id. Unlike
  /// setCoreSpeed this works before finalize(); the parser uses it while
  /// the core→L1 map does not exist yet.
  void setNodeSpeed(unsigned Id, unsigned Pct) {
    assert(Id < Nodes.size() && Pct <= 100 && "bad node or speed");
    Nodes[Id].SpeedPercent = Pct;
  }

  /// True when every core runs at nominal speed (no degraded or disabled
  /// cores). Uniform topologies take the unchanged fast paths everywhere.
  bool uniformSpeed() const;

  /// True when at least one core has SpeedPercent == 0.
  bool hasDisabledCores() const;

  /// Sorted, distinct cache levels present (e.g. {1,2,3}).
  std::vector<unsigned> cacheLevels() const;

  /// Deepest cache level number present (e.g. 3 when the machine has an
  /// L3); 0 if the topology has no caches.
  unsigned deepestLevel() const;

  /// Node ids of all cache instances at \p Level.
  std::vector<unsigned> nodesAtLevel(unsigned Level) const;

  /// Lowest common ancestor node of two cores' L1 caches. For distinct
  /// cores this is the closest cache (or the memory root) they share.
  unsigned lowestCommonNode(unsigned CoreA, unsigned CoreB) const;

  /// Level of the closest shared cache of \p CoreA and \p CoreB, or
  /// MemoryLevel if they only share off-chip memory. The paper's
  /// "affinity at cache L" (Section 2): two cores have affinity iff this
  /// returns a non-MemoryLevel value.
  unsigned affinityLevel(unsigned CoreA, unsigned CoreB) const;

  /// Smallest cache level whose instances serve more than one core
  /// ("the first shared cache level" of Figure 7), or MemoryLevel when
  /// every cache is private.
  unsigned firstSharedCacheLevel() const;

  /// Total on-chip cache capacity in bytes (all instances, all levels).
  std::uint64_t totalCacheBytes() const;

  /// Capacity of one instance at \p Level in bytes (0 if level absent).
  std::uint64_t levelCapacity(unsigned Level) const;

  /// Returns a copy with every cache size multiplied by \p Factor (rounded
  /// down to at least one line; associativity is clamped to the line
  /// count). Used to run scaled-down simulations and the Figure 19
  /// halved-capacity study.
  CacheTopology scaledCapacity(double Factor) const;

  /// Returns a copy in which cache levels above \p MaxLevel are removed and
  /// their children reattached to the memory root. The Figure 20 variants
  /// (L1+L2, L1+L2+L3, ...) feed these restricted trees to the mapper while
  /// the simulator keeps the full machine.
  CacheTopology keepLevelsUpTo(unsigned MaxLevel) const;

  /// Multi-line description of the tree for logs and examples.
  std::string str() const;
};

} // namespace cta

#endif // CTA_TOPO_TOPOLOGY_H
