//===- core/Pipeline.cpp - End-to-end mapping pipeline --------------------===//

#include "core/Pipeline.h"

#include "core/Baselines.h"
#include "core/DataBlockModel.h"
#include "core/GroupDependence.h"
#include "core/HierarchicalClusterer.h"
#include "core/LocalScheduler.h"
#include "core/Tagger.h"
#include "obs/ObsScope.h"
#include "poly/Dependence.h"
#include "support/ErrorHandling.h"
#include "support/Timer.h"

#include <algorithm>

using namespace cta;

const char *cta::strategyName(Strategy S) {
  switch (S) {
  case Strategy::Base:
    return "Base";
  case Strategy::BasePlus:
    return "Base+";
  case Strategy::Local:
    return "Local";
  case Strategy::TopologyAware:
    return "TopologyAware";
  case Strategy::Combined:
    return "Combined";
  case Strategy::AdaptiveGreedy:
    return "AdaptiveGreedy";
  }
  cta_unreachable("unknown strategy");
}

const char *cta::strategyDescription(Strategy S) {
  switch (S) {
  case Strategy::Base:
    return "original code, static chunks in core-id order (topology-blind)";
  case Strategy::BasePlus:
    return "Base chunks plus conventional intra-core tiling";
  case Strategy::Local:
    return "Base chunks plus Figure 7 per-core local reorganization alone";
  case Strategy::TopologyAware:
    return "Figure 6 hierarchical distribution over the cache tree "
           "(the paper's default)";
  case Strategy::Combined:
    return "hierarchical distribution plus alpha/beta-weighted scheduling "
           "(the paper's best)";
  case Strategy::AdaptiveGreedy:
    return "TopologyAware seed plus runtime greedy rebalance between "
           "rounds (moves groups off the projected-slowest core)";
  }
  cta_unreachable("unknown strategy");
}

namespace {

/// Builds scheduler dependences for the clusterer's (possibly split) group
/// list: every split part inherits its origin's edges and is chained after
/// the part holding the preceding iterations.
SchedulerDependences
buildSchedulerDeps(const GroupDependenceResult &DepDAG,
                   const ClusteringResult &Clustered) {
  // Note: DepDAG.Groups has been moved into the clusterer by the time this
  // runs; the origin count lives on in the dependence adjacency arity.
  const std::uint32_t NumOrigins = DepDAG.Preds.size();
  const std::uint32_t NumGroups = Clustered.Groups.size();

  SchedulerDependences Deps;
  Deps.HasDependences = DepDAG.hasDependences();
  Deps.OriginPreds = DepDAG.Preds;
  Deps.OriginOf.resize(NumGroups);
  for (std::uint32_t G = 0; G != NumOrigins; ++G)
    Deps.OriginOf[G] = G;
  for (auto [Parent, Child] : Clustered.Splits)
    Deps.OriginOf[Child] = Deps.OriginOf[Parent];

  Deps.PrevPart.assign(NumGroups, UINT32_MAX);
  if (Deps.HasDependences) {
    std::vector<std::vector<std::uint32_t>> Parts(NumOrigins);
    for (std::uint32_t G = 0; G != NumGroups; ++G)
      Parts[Deps.OriginOf[G]].push_back(G);
    for (auto &P : Parts) {
      if (P.size() < 2)
        continue;
      std::sort(P.begin(), P.end(), [&](std::uint32_t A, std::uint32_t B) {
        return Clustered.Groups[A].Iterations.front() <
               Clustered.Groups[B].Iterations.front();
      });
      for (std::size_t I = 1; I < P.size(); ++I)
        Deps.PrevPart[P[I]] = P[I - 1];
    }
  }
  return Deps;
}

/// Section 3.5.2 (second option): "the data sharing resulting from these
/// dependencies is accounted for by the edge weights used to quantify the
/// sharing of data between the iteration groups". We realize this by
/// giving both endpoints of every group dependence edge a shared phantom
/// block (ids above the real block space), so the clusterer and scheduler
/// are drawn to co-locate and co-schedule dependent groups, shrinking the
/// synchronization they would otherwise need.
void addDependenceSharing(GroupDependenceResult &DepDAG,
                          std::uint32_t FirstPhantomId) {
  std::uint32_t Next = FirstPhantomId;
  std::vector<std::vector<std::uint32_t>> Extra(DepDAG.Groups.size());
  for (std::uint32_t G = 0, E = DepDAG.Groups.size(); G != E; ++G)
    for (std::uint32_t S : DepDAG.Succs[G]) {
      Extra[G].push_back(Next);
      Extra[S].push_back(Next);
      ++Next;
    }
  for (std::uint32_t G = 0, E = DepDAG.Groups.size(); G != E; ++G) {
    if (Extra[G].empty())
      continue;
    std::vector<std::uint32_t> Ids = DepDAG.Groups[G].Tag.ids();
    Ids.insert(Ids.end(), Extra[G].begin(), Extra[G].end());
    DepDAG.Groups[G].Tag = BlockSet::fromUnsorted(std::move(Ids));
  }
}

/// Sorts each core's group list by first member iteration: the order the
/// Omega-style code generator would enumerate the core's iterations in,
/// and the order TopologyAware (no locality scheduling) executes.
void sortCoreGroupsLexicographic(
    std::vector<std::vector<std::uint32_t>> &CoreGroups,
    const std::vector<IterationGroup> &Groups) {
  for (auto &List : CoreGroups)
    std::sort(List.begin(), List.end(),
              [&](std::uint32_t A, std::uint32_t B) {
                return Groups[A].Iterations.front() <
                       Groups[B].Iterations.front();
              });
}

} // namespace

PipelineResult cta::runMappingPipeline(const Program &Prog, unsigned NestIdx,
                                       const CacheTopology &Machine,
                                       Strategy Strat,
                                       const MappingOptions &Opts) {
  if (NestIdx >= Prog.Nests.size())
    reportFatalError("nest index out of range");
  const LoopNest &Nest = Prog.Nests[NestIdx];
  std::string Err;
  if (!Nest.validate(&Err))
    reportFatalError("invalid loop nest fed to the mapping pipeline");
  if (!Machine.finalized())
    reportFatalError("machine topology is not finalized");

  PipelineResult Result;
  WallTimer Timer;

  const unsigned NumCores = Machine.numCores();
  const std::uint64_t L1Capacity = Machine.levelCapacity(1);

  // The two strategies that ignore group formation short-circuit here;
  // their "mapping time" is the parallelization-only cost the paper's
  // compile-overhead percentages are measured against.
  if (Strat == Strategy::Base || Strat == Strategy::BasePlus) {
    obs::ObsScope Span("pipeline.baseline");
    IterationTable Table = Nest.enumerate(Opts.MaxIterations);
    Result.Map = Strat == Strategy::Base
                     ? mapBase(Table, NumCores)
                     : mapBasePlus(Nest, Prog.Arrays, Table, NumCores,
                                   L1Capacity);
    Result.MappingSeconds = Timer.elapsedSeconds();
    return Result;
  }

  // 1. Data blocking (Section 3.3) with optional automatic size selection
  //    (Section 4.1).
  std::uint64_t BlockSize = Opts.BlockSizeBytes;
  if (BlockSize == 0)
    BlockSize = selectBlockSize(Nest, Prog.Arrays, L1Capacity);
  Result.BlockSizeBytes = BlockSize;
  DataBlockModel Blocks(Prog.Arrays, BlockSize);

  // 2. Tagging and group formation (Sections 3.3-3.4).
  TaggingResult Tagged;
  {
    obs::ObsScope Span("pipeline.tag");
    Tagged =
        buildIterationGroups(Nest, Prog.Arrays, Blocks, Opts.MaxIterations);
    Result.NumGroupsInitial = Tagged.Groups.size();
    unsigned CoarsenTarget = Opts.MaxGroupsForClustering;
    if (Tagged.Groups.size() > CoarsenTarget &&
        adjacentAffinityFraction(Tagged.Groups) > 0.5)
      CoarsenTarget = std::min(CoarsenTarget, Opts.ChainCoarsenTarget);
    coarsenGroups(Tagged.Groups, CoarsenTarget);
  }

  // 3. Dependence analysis and group-level condensation (Section 3.5.2).
  obs::ObsScope DepSpan("pipeline.dependence");
  DependenceInfo Deps = analyzeDependences(Nest);
  GroupDependenceResult DepDAG = buildGroupDependences(
      Nest, Tagged.Iterations, std::move(Tagged.Groups), Deps, Blocks);
  if (Opts.DepPolicy == DependencePolicy::CoCluster)
    DepDAG = mergeDependentGroups(std::move(DepDAG));
  else if (DepDAG.hasDependences())
    addDependenceSharing(DepDAG, Blocks.numBlocks());
  Result.HadDependences = DepDAG.hasDependences();
  DepSpan.close();

  if (Strat == Strategy::Local) {
    obs::ObsScope Span("pipeline.local-schedule");
    SchedulerDependences SchedDeps;
    SchedDeps.HasDependences = DepDAG.hasDependences();
    SchedDeps.OriginPreds = DepDAG.Preds;
    SchedDeps.OriginOf.resize(DepDAG.Groups.size());
    for (std::uint32_t G = 0, E = DepDAG.Groups.size(); G != E; ++G)
      SchedDeps.OriginOf[G] = G;
    SchedDeps.PrevPart.assign(DepDAG.Groups.size(), UINT32_MAX);
    Result.Map = mapLocal(Tagged.Iterations, DepDAG.Groups, SchedDeps,
                          Machine, Opts.Alpha, Opts.Beta,
                          /*UsePointToPoint=*/!Opts.UseBarrierSync);
    Result.NumGroupsFinal = Result.Map.Groups.size();
    Result.MappingSeconds = Timer.elapsedSeconds();
    return Result;
  }

  // 4. Hierarchical distribution (Figure 6), optionally on a
  //    level-restricted view of the machine (Figure 20).
  obs::ObsScope ClusterSpan("pipeline.cluster");
  const CacheTopology *MapperTopo = &Machine;
  CacheTopology Restricted("", 0);
  if (Opts.MaxMapperLevel != 0 &&
      Opts.MaxMapperLevel < Machine.deepestLevel()) {
    Restricted = Machine.keepLevelsUpTo(Opts.MaxMapperLevel);
    MapperTopo = &Restricted;
  }
  ClusteringResult Clustered = clusterForTopology(
      std::move(DepDAG.Groups), *MapperTopo, Opts.BalanceThreshold);
  Result.NumGroupsFinal = Clustered.Groups.size();
  ClusterSpan.close();

  // 5. Per-core ordering. TopologyAware schedules "considering only data
  //    dependencies" (Section 4.1): without dependences each core simply
  //    enumerates its iterations lexicographically (the Omega codegen
  //    order); with dependences the Figure 7 machinery runs with
  //    alpha = beta = 0. Combined adds the locality objective.
  obs::ObsScope ScheduleSpan("pipeline.local-schedule");
  SchedulerDependences SchedDeps = buildSchedulerDeps(DepDAG, Clustered);
  // The adaptive strategy takes TopologyAware's static mapping as its
  // seed; what changes is the executor, not the compile-time pass.
  if (Strat == Strategy::TopologyAware || Strat == Strategy::AdaptiveGreedy) {
    sortCoreGroupsLexicographic(Clustered.CoreGroups, Clustered.Groups);
    if (!SchedDeps.HasDependences) {
      ScheduleResult Direct;
      Direct.CoreOrder = std::move(Clustered.CoreGroups);
      Direct.RoundEnd.resize(NumCores);
      for (unsigned C = 0; C != NumCores; ++C)
        Direct.RoundEnd[C].push_back(Direct.CoreOrder[C].size());
      Direct.NumRounds = 1;
      Result.Map = scheduleToMapping(Clustered.Groups, std::move(Direct),
                                     NumCores, strategyName(Strat));
      Result.MappingSeconds = Timer.elapsedSeconds();
      return Result;
    }
  }
  double Alpha = Strat == Strategy::Combined ? Opts.Alpha : 0.0;
  double Beta = Strat == Strategy::Combined ? Opts.Beta : 0.0;
  ScheduleResult Sched =
      scheduleGroups(Clustered.Groups, Clustered.CoreGroups, SchedDeps,
                     Machine, Alpha, Beta);

  Result.Map =
      scheduleToMapping(Clustered.Groups, std::move(Sched), NumCores,
                        strategyName(Strat), &SchedDeps,
                        /*UsePointToPoint=*/!Opts.UseBarrierSync);
  Result.MappingSeconds = Timer.elapsedSeconds();
  return Result;
}
