//===- perfbench/Replay.cpp - Stage-by-stage replay and output oracle -----===//
//
// The traced runs rebuild every mapping through the public core/ calls the
// pipeline makes, one span per stage, and simulate it through the public
// sim/ calls runOnMachine makes. The helpers of core/Pipeline.cpp that are
// file-local there (scheduler dependences, dependence sharing, the
// lexicographic core order) are restated here; every traced run checks
// that the staged mapping equals runMappingPipeline's, so a drift between
// the two copies fails the benchmark instead of measuring another program.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Baselines.h"
#include "core/DataBlockModel.h"
#include "core/GroupDependence.h"
#include "core/HierarchicalClusterer.h"
#include "core/LocalScheduler.h"
#include "core/Tagger.h"
#include "obs/MetricSink.h"
#include "poly/Dependence.h"
#include "runtime/AdaptiveExecutor.h"
#include "serve/Json.h"
#include "sim/AccessTrace.h"
#include "sim/Engine.h"
#include "support/ErrorHandling.h"

#include <algorithm>

using namespace cta;

namespace {

SchedulerDependences
buildSchedulerDeps(const GroupDependenceResult &DepDAG,
                   const ClusteringResult &Clustered) {
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

void addSharing(MappingReport &Into, const MappingReport &R) {
  Into.TotalSharing += R.TotalSharing;
  for (const LevelSharing &L : R.Levels) {
    auto It = std::find_if(Into.Levels.begin(), Into.Levels.end(),
                           [&](const LevelSharing &X) {
                             return X.Level == L.Level;
                           });
    if (It == Into.Levels.end()) {
      Into.Levels.push_back(L);
    } else {
      It->WithinDomain += L.WithinDomain;
      It->AcrossDomains += L.AcrossDomains;
    }
  }
}

void addExecution(RunResult &Into, const ExecutionResult &E) {
  Into.Cycles += E.TotalCycles;
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    Into.Stats.Levels[L].Lookups += E.Stats.Levels[L].Lookups;
    Into.Stats.Levels[L].Hits += E.Stats.Levels[L].Hits;
  }
  Into.Stats.MemoryAccesses += E.Stats.MemoryAccesses;
  Into.Stats.TotalAccesses += E.Stats.TotalAccesses;
  if (Into.PerCache.empty()) {
    Into.PerCache = E.PerCache;
    return;
  }
  for (std::size_t I = 0; I != Into.PerCache.size() && I != E.PerCache.size();
       ++I) {
    Into.PerCache[I].Lookups += E.PerCache[I].Lookups;
    Into.PerCache[I].Hits += E.PerCache[I].Hits;
    Into.PerCache[I].Evictions += E.PerCache[I].Evictions;
  }
}

bool samePerCache(const std::vector<CacheNodeStats> &A,
                  const std::vector<CacheNodeStats> &B) {
  if (A.size() != B.size())
    return false;
  for (std::size_t I = 0; I != A.size(); ++I)
    if (A[I].NodeId != B[I].NodeId || A[I].Level != B[I].Level ||
        A[I].Lookups != B[I].Lookups || A[I].Hits != B[I].Hits ||
        A[I].Evictions != B[I].Evictions)
      return false;
  return true;
}

std::uint64_t count(const serve::JsonValue &V, const char *Key) {
  const serve::JsonValue *F = V.get(Key);
  return F ? static_cast<std::uint64_t>(F->asNumber()) : 0;
}

} // namespace

Mapping ctabench::stagedMapping(const Program &Prog, unsigned NestIdx,
                                const CacheTopology &Machine, Strategy Strat,
                                const MappingOptions &Opts, Tracer &T) {
  const LoopNest &Nest = Prog.Nests[NestIdx];
  const unsigned NumCores = Machine.numCores();
  const std::uint64_t L1Capacity = Machine.levelCapacity(1);

  if (Strat == Strategy::Base || Strat == Strategy::BasePlus) {
    Tracer::Scope S(T, "core.baseline");
    IterationTable Table = Nest.enumerate(Opts.MaxIterations);
    return Strat == Strategy::Base
               ? mapBase(Table, NumCores)
               : mapBasePlus(Nest, Prog.Arrays, Table, NumCores, L1Capacity);
  }
  if (Strat != Strategy::TopologyAware && Strat != Strategy::Combined)
    reportFatalError("ctabench: the staged replay covers Base, Base+, "
                     "TopologyAware and Combined only");

  std::uint64_t BlockSize = Opts.BlockSizeBytes;
  if (BlockSize == 0)
    BlockSize = selectBlockSize(Nest, Prog.Arrays, L1Capacity);
  DataBlockModel Blocks(Prog.Arrays, BlockSize);

  TaggingResult Tagged;
  {
    Tracer::Scope S(T, "core.tag");
    Tagged =
        buildIterationGroups(Nest, Prog.Arrays, Blocks, Opts.MaxIterations);
    unsigned CoarsenTarget = Opts.MaxGroupsForClustering;
    if (Tagged.Groups.size() > CoarsenTarget &&
        adjacentAffinityFraction(Tagged.Groups) > 0.5)
      CoarsenTarget = std::min(CoarsenTarget, Opts.ChainCoarsenTarget);
    coarsenGroups(Tagged.Groups, CoarsenTarget);
  }

  GroupDependenceResult DepDAG;
  {
    Tracer::Scope S(T, "core.dependence");
    DependenceInfo Deps = analyzeDependences(Nest);
    DepDAG = buildGroupDependences(Nest, Tagged.Iterations,
                                   std::move(Tagged.Groups), Deps, Blocks);
    if (Opts.DepPolicy == DependencePolicy::CoCluster)
      DepDAG = mergeDependentGroups(std::move(DepDAG));
    else if (DepDAG.hasDependences())
      addDependenceSharing(DepDAG, Blocks.numBlocks());
  }

  ClusteringResult Clustered;
  {
    Tracer::Scope S(T, "core.cluster");
    const CacheTopology *MapperTopo = &Machine;
    CacheTopology Restricted("", 0);
    if (Opts.MaxMapperLevel != 0 &&
        Opts.MaxMapperLevel < Machine.deepestLevel()) {
      Restricted = Machine.keepLevelsUpTo(Opts.MaxMapperLevel);
      MapperTopo = &Restricted;
    }
    Clustered = clusterForTopology(std::move(DepDAG.Groups), *MapperTopo,
                                   Opts.BalanceThreshold);
  }

  Tracer::Scope S(T, "core.schedule");
  SchedulerDependences SchedDeps = buildSchedulerDeps(DepDAG, Clustered);
  if (Strat == Strategy::TopologyAware) {
    sortCoreGroupsLexicographic(Clustered.CoreGroups, Clustered.Groups);
    if (!SchedDeps.HasDependences) {
      ScheduleResult Direct;
      Direct.CoreOrder = std::move(Clustered.CoreGroups);
      Direct.RoundEnd.resize(NumCores);
      for (unsigned C = 0; C != NumCores; ++C)
        Direct.RoundEnd[C].push_back(Direct.CoreOrder[C].size());
      Direct.NumRounds = 1;
      return scheduleToMapping(Clustered.Groups, std::move(Direct), NumCores,
                               strategyName(Strat));
    }
  }
  const double Alpha = Strat == Strategy::Combined ? Opts.Alpha : 0.0;
  const double Beta = Strat == Strategy::Combined ? Opts.Beta : 0.0;
  ScheduleResult Sched = scheduleGroups(Clustered.Groups, Clustered.CoreGroups,
                                        SchedDeps, Machine, Alpha, Beta);
  return scheduleToMapping(Clustered.Groups, std::move(Sched), NumCores,
                           strategyName(Strat), &SchedDeps,
                           /*UsePointToPoint=*/!Opts.UseBarrierSync);
}

ctabench::StagedRun ctabench::stagedRun(const RunTask &Task, unsigned SimThreads,
                              Tracer &T, StageCounters &C) {
  if (Task.RunsOn)
    reportFatalError("ctabench: the staged replay has no cross-machine runs");
  obs::MetricSink Sink(nullptr);
  obs::MetricScope Attribute(Sink);
  MachineSim Sim(Task.Machine);
  StagedRun Out;
  RunResult &Result = Out.Result;
  for (unsigned N = 0, E = Task.Prog.Nests.size(); N != E; ++N) {
    Mapping Map = stagedMapping(Task.Prog, N, Task.Machine, Task.Strat,
                                Task.Opts, T);
    Result.Imbalance = Map.imbalance();
    Result.NumRounds = Map.NumRounds;
    {
      Tracer::Scope S(T, "core.report");
      addSharing(Result.Sharing, analyzeMapping(Map, Task.Machine));
    }
    std::shared_ptr<const AccessTrace> Trace;
    const std::size_t Resident = TraceRegistry::residentTraces();
    {
      Tracer::Scope S(T, "sim.trace_compile");
      Trace = TraceRegistry::getOrCompile(Task.Prog, N,
                                          Task.Opts.MaxIterations);
    }
    if (TraceRegistry::residentTraces() == Resident)
      ++C.TraceHits;
    Mapping Kept; // the fields sameMapping compares, without group lists
    Kept.NumCores = Map.NumCores;
    Kept.CoreIterations = Map.CoreIterations;
    Kept.RoundEnd = Map.RoundEnd;
    Kept.NumRounds = Map.NumRounds;
    Kept.BarriersRequired = Map.BarriersRequired;
    Kept.Sync = Map.Sync;
    Kept.PointDeps = Map.PointDeps;
    Out.Maps.push_back(std::move(Kept));
    ExecutionResult Exec;
    {
      Tracer::Scope S(T, "sim.execute");
      runtime::remapDisabledCores(Map, Sim.topology());
      SimExec Cfg;
      Cfg.Threads = SimThreads;
      Exec = executeTrace(Sim, *Trace, Map, Cfg);
    }
    addExecution(Result, Exec);
  }
  C.TagGroups += Sink.lookup("tagger.groups");
  C.CoarsenedAway += Sink.lookup("tagger.groups-coarsened-away");
  C.Merges += Sink.lookup("clusterer.merges");
  C.BalanceEvictions += Sink.lookup("clusterer.balance-evictions");
  C.Splits += Sink.lookup("clusterer.cluster-splits") +
              Sink.lookup("clusterer.group-splits");
  C.SimRows += Sink.lookup("sim.batch.rows");
  return Out;
}

bool ctabench::sameMapping(const Mapping &A, const Mapping &B) {
  if (A.NumCores != B.NumCores || A.NumRounds != B.NumRounds ||
      A.BarriersRequired != B.BarriersRequired || A.Sync != B.Sync ||
      A.CoreIterations != B.CoreIterations || A.RoundEnd != B.RoundEnd ||
      A.PointDeps.size() != B.PointDeps.size())
    return false;
  for (std::size_t I = 0; I != A.PointDeps.size(); ++I) {
    const SyncDep &X = A.PointDeps[I], &Y = B.PointDeps[I];
    if (X.PredCore != Y.PredCore || X.PredEndPos != Y.PredEndPos ||
        X.Core != Y.Core || X.StartPos != Y.StartPos)
      return false;
  }
  return true;
}

void ctabench::oracleCheck(const RunTask &Task, const RunResult &Expected,
                           bool Reference, const std::string &Label,
                           Report &R) {
  MachineSim Sim(Task.Machine);
  RunResult Ref;
  for (unsigned N = 0, E = Task.Prog.Nests.size(); N != E; ++N) {
    PipelineResult Pipe = runMappingPipeline(Task.Prog, N, Task.Machine,
                                             Task.Strat, Task.Opts);
    const LoopNest &Nest = Task.Prog.Nests[N];
    IterationTable Table = Nest.enumerate(Task.Opts.MaxIterations);
    R.check(Pipe.Map.coversExactly(Table.size()),
            Label + ": nest " + std::to_string(N) +
                " mapping does not cover its iterations exactly");
    if (!Reference)
      continue;
    runtime::remapDisabledCores(Pipe.Map, Sim.topology());
    AddressMap Addrs(Task.Prog.Arrays);
    addExecution(Ref, executeMappingReference(Sim, Task.Prog, N, Table,
                                              Pipe.Map, Addrs));
  }
  if (Reference)
    R.check(Ref.Cycles == Expected.Cycles &&
                samePerCache(Ref.PerCache, Expected.PerCache),
            Label + ": reference engine gives " + std::to_string(Ref.Cycles) +
                " cycles, the run reported " +
                std::to_string(Expected.Cycles) +
                " (or per-cache counters differ)");
}

RunResult ctabench::resultFromArtifact(const serve::JsonValue &Run) {
  RunResult R;
  R.Cycles = count(Run, "cycles");
  if (const serve::JsonValue *V = Run.get("mapping_seconds"))
    R.MappingSeconds = V->asNumber();
  R.BlockSizeBytes = count(Run, "block_size_bytes");
  if (const serve::JsonValue *V = Run.get("imbalance"))
    R.Imbalance = V->asNumber();
  R.NumRounds = static_cast<unsigned>(count(Run, "rounds"));
  R.Stats.MemoryAccesses = count(Run, "memory_accesses");
  R.Stats.TotalAccesses = count(Run, "total_accesses");
  if (const serve::JsonValue *Levels = Run.get("levels"))
    for (const serve::JsonValue &L : Levels->Arr) {
      std::uint64_t Level = count(L, "level");
      if (Level == 0 || Level > SimStats::MaxLevels)
        continue;
      R.Stats.Levels[Level].Lookups = count(L, "lookups");
      R.Stats.Levels[Level].Hits = count(L, "hits");
    }
  if (const serve::JsonValue *Caches = Run.get("caches"))
    for (const serve::JsonValue &C : Caches->Arr) {
      CacheNodeStats S;
      S.NodeId = static_cast<unsigned>(count(C, "node"));
      S.Level = static_cast<unsigned>(count(C, "level"));
      S.Lookups = count(C, "lookups");
      S.Hits = count(C, "hits");
      S.Evictions = count(C, "evictions");
      R.PerCache.push_back(S);
    }
  if (const serve::JsonValue *Sharing = Run.get("sharing")) {
    R.Sharing.TotalSharing = count(*Sharing, "total");
    if (const serve::JsonValue *Levels = Sharing->get("levels"))
      for (const serve::JsonValue &L : Levels->Arr) {
        LevelSharing S;
        S.Level = static_cast<unsigned>(count(L, "level"));
        S.WithinDomain = count(L, "within");
        S.AcrossDomains = count(L, "across");
        R.Sharing.Levels.push_back(S);
      }
  }
  if (const serve::JsonValue *Counters = Run.get("counters"))
    for (const auto &[Name, V] : Counters->Obj)
      R.Counters[Name] = static_cast<std::uint64_t>(V.asNumber());
  if (const serve::JsonValue *Phases = Run.get("phases"))
    for (const serve::JsonValue &P : Phases->Arr) {
      obs::PhaseRecord Rec;
      if (const serve::JsonValue *V = P.get("name"))
        Rec.Name = V->asString();
      if (const serve::JsonValue *V = P.get("start_seconds"))
        Rec.StartSeconds = V->asNumber();
      if (const serve::JsonValue *V = P.get("seconds"))
        Rec.Seconds = V->asNumber();
      Rec.PeakRssKb = static_cast<std::int64_t>(count(P, "peak_rss_kb"));
      if (const serve::JsonValue *C = P.get("counters"))
        for (const auto &[Name, V] : C->Obj)
          Rec.CounterDeltas[Name] = static_cast<std::uint64_t>(V.asNumber());
      R.Phases.push_back(std::move(Rec));
    }
  return R;
}

double ctabench::phaseSeconds(const std::vector<obs::PhaseRecord> &Phases,
                              const char *Name) {
  double S = 0.0;
  for (const obs::PhaseRecord &P : Phases)
    if (P.Name == Name)
      S += P.Seconds;
  return S;
}
