//===- core/Pipeline.h - End-to-end mapping pipeline -----------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole compiler pass: given a program's loop nest and a target
/// machine, produce the iteration-to-core mapping under one of the
/// evaluated strategies:
///
///  * Base           - original code, static chunks (Section 4.1).
///  * BasePlus       - Base chunks + conventional intra-core locality
///                     optimization (tiling).
///  * Local          - Base chunks + Figure 7 local reorganization alone.
///  * TopologyAware  - Figure 6 hierarchical distribution; per-core order
///                     constrained only by dependences (the paper's default
///                     configuration).
///  * Combined       - Figure 6 distribution + Figure 7 scheduling with the
///                     alpha/beta reuse objective (the paper's best
///                     configuration, Figure 15).
///  * AdaptiveGreedy - TopologyAware static seed mapping, then the runtime/
///                     greedy rebalance moves pending groups between rounds
///                     from each core's observed load (cycles per retired
///                     iteration).
///
/// The adaptive strategy produces the same static mapping as
/// TopologyAware (the pipeline is purely compile-time); the driver routes
/// it to runtime::executeAdaptive instead of the static engine.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_CORE_PIPELINE_H
#define CTA_CORE_PIPELINE_H

#include "core/Mapping.h"
#include "core/Options.h"
#include "poly/Program.h"
#include "topo/Topology.h"

#include <string>

namespace cta {

/// Mapping strategy selector. New entries append: the numeric values feed
/// run fingerprints.
enum class Strategy {
  Base,
  BasePlus,
  Local,
  TopologyAware,
  Combined,
  AdaptiveGreedy,
};

/// Human-readable strategy name ("Base", "Base+", ...).
const char *strategyName(Strategy S);

/// One-line description of what the strategy does (for `cta list` and
/// other help output).
const char *strategyDescription(Strategy S);

/// Pipeline output: the mapping plus pass diagnostics.
struct PipelineResult {
  Mapping Map;
  /// Wall-clock seconds spent inside the mapping pass (the Section 4.1
  /// compilation-overhead metric).
  double MappingSeconds = 0.0;
  std::uint64_t BlockSizeBytes = 0;
  std::uint32_t NumGroupsInitial = 0;
  std::uint32_t NumGroupsFinal = 0;
  bool HadDependences = false;
};

/// Runs the pass on nest \p NestIdx of \p Prog for \p Machine.
PipelineResult runMappingPipeline(const Program &Prog, unsigned NestIdx,
                                  const CacheTopology &Machine,
                                  Strategy Strat,
                                  const MappingOptions &Opts = {});

} // namespace cta

#endif // CTA_CORE_PIPELINE_H
