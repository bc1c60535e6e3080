//===- runtime/AdaptiveExecutor.h - Round-boundary remapping ----*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive runtime: executes a statically computed group-structured
/// mapping, but between rounds — a round ends when every core has retired
/// its allowance of Interval groups — lets rebalance() migrate pending
/// groups between cores from each core's clock and retired-iteration
/// count. The commit point is where the sequential engine's event heap
/// already leaves every core idle at a group boundary, so migration needs
/// no new synchronization; its cost is charged organically as cold-cache
/// refill when the moved group's lines miss in the destination core's
/// private levels.
///
/// The adaptive path is sequential-only, like `--emit-trace`: remap
/// decisions depend on global cross-core state at each commit point, so
/// `--sim-threads` requests fall back to this engine (documented in
/// DESIGN.md). Determinism is unconditional — rebalance() is a pure
/// function and the event order is the sequential engine's — so artifacts
/// are byte-identical across --jobs counts.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_RUNTIME_ADAPTIVEEXECUTOR_H
#define CTA_RUNTIME_ADAPTIVEEXECUTOR_H

#include "core/IterationGroup.h"
#include "sim/Engine.h"
#include "topo/Topology.h"

#include <cstdint>
#include <vector>

namespace cta {

class AccessTrace;

namespace runtime {

/// What one core has done up to a round commit point.
struct CoreLoad {
  std::uint64_t Cycles = 0; ///< local clock
  std::uint64_t Iters = 0;  ///< iterations retired so far
};

/// One planned migration: pending group \p Group leaves core \p From's
/// queue and joins the back of core \p To's queue.
struct Migration {
  std::uint32_t Group = 0;
  unsigned From = 0;
  unsigned To = 0;
};

/// Plans migrations at a round commit point. \p Pending holds, per core,
/// the ids of groups not yet started (front = next to run); \p Groups
/// resolves ids to their iteration lists. While the projected-latest
/// finisher can hand its tail group to a core that would still finish
/// earlier, the group moves — to a core sharing a cache with it when one
/// qualifies, to the globally best core otherwise. Projections use each
/// core's observed cycles per retired iteration, so a degraded core sheds
/// work once the first round exposes its cost. Never targets a core that
/// \p Topo disables (speed 0).
std::vector<Migration>
rebalance(const std::vector<CoreLoad> &Cores,
          const std::vector<std::vector<std::uint32_t>> &Pending,
          const std::vector<IterationGroup> &Groups,
          const CacheTopology &Topo);

/// Executes \p Map over \p Trace, calling rebalance() every time each core
/// has retired \p Interval groups (min 1). Requires a group-structured
/// single-round barrier-free mapping (what the topology-aware pipeline
/// produces); anything else — point-to-point dependences, multi-round
/// barrier schedules, group-less baselines — falls back to the static
/// executeTrace (counted in runtime.adapt.fallbacks). Statistics and
/// results mirror executeTrace.
ExecutionResult executeAdaptive(MachineSim &Machine, const AccessTrace &Trace,
                                const Mapping &Map, unsigned Interval);

/// Folds the work of disabled cores (SpeedPercent == 0) onto live ones so
/// static strategies can still run on a degraded machine: each disabled
/// core's per-round slice is appended to the live core sharing the
/// closest cache (ties: lightest load, then lowest index), round structure
/// preserved. Fatal for point-to-point schedules — their dependence
/// positions are core-relative and do not survive the fold. No-op on
/// topologies without disabled cores.
void remapDisabledCores(Mapping &Map, const CacheTopology &Topo);

} // namespace runtime
} // namespace cta

#endif // CTA_RUNTIME_ADAPTIVEEXECUTOR_H
