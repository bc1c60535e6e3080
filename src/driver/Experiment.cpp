//===- driver/Experiment.cpp - Experiment harness --------------------------===//

#include "driver/Experiment.h"

#include "obs/ObsScope.h"
#include "runtime/AdaptiveExecutor.h"
#include "sim/AccessTrace.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <limits>
#include <cmath>

using namespace cta;

/// Folds one nest's execution outcome into the run's accumulated result.
static void accumulateExecution(RunResult &Result,
                                const ExecutionResult &Exec) {
  Result.Cycles += Exec.TotalCycles;
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    Result.Stats.Levels[L].Lookups += Exec.Stats.Levels[L].Lookups;
    Result.Stats.Levels[L].Hits += Exec.Stats.Levels[L].Hits;
  }
  Result.Stats.MemoryAccesses += Exec.Stats.MemoryAccesses;
  Result.Stats.TotalAccesses += Exec.Stats.TotalAccesses;
  if (Result.PerCache.empty()) {
    Result.PerCache = Exec.PerCache;
  } else {
    // Same machine across nests, so the node vectors align.
    for (std::size_t I = 0, E = Result.PerCache.size();
         I != E && I != Exec.PerCache.size(); ++I) {
      Result.PerCache[I].Lookups += Exec.PerCache[I].Lookups;
      Result.PerCache[I].Hits += Exec.PerCache[I].Hits;
      Result.PerCache[I].Evictions += Exec.PerCache[I].Evictions;
    }
  }
}

/// Executes one nest's mapping: the adaptive strategy runs through the
/// runtime/ executor (round-boundary rebalancing from observed per-core
/// load, sequential-only like --emit-trace), everything else through the
/// static engine. Disabled cores are folded onto live ones first in either
/// case — the engines refuse work on a speed-0 core.
static ExecutionResult executeMapped(MachineSim &Sim, const AccessTrace &Trace,
                                     Mapping &Map, Strategy Strat,
                                     const MappingOptions &Opts,
                                     const SimExec &SimCfg) {
  runtime::remapDisabledCores(Map, Sim.topology());
  if (Strat != Strategy::AdaptiveGreedy)
    return executeTrace(Sim, Trace, Map, SimCfg);
  return runtime::executeAdaptive(Sim, Trace, Map, Opts.AdaptInterval);
}

/// Folds one nest's static sharing report into the run's accumulated one.
static void accumulateSharing(MappingReport &Into, const MappingReport &R) {
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

RunResult cta::runOnMachine(const Program &Prog, const CacheTopology &Machine,
                            Strategy Strat, const MappingOptions &Opts,
                            TraceLog *Log, const SimExec &SimCfg) {
  MachineSim Sim(Machine);
  Sim.setTraceLog(Log);

  RunResult Result;
  for (unsigned NestIdx = 0, E = Prog.Nests.size(); NestIdx != E; ++NestIdx) {
    PipelineResult Pipe =
        runMappingPipeline(Prog, NestIdx, Machine, Strat, Opts);
    Result.MappingSeconds += Pipe.MappingSeconds;
    Result.BlockSizeBytes = Pipe.BlockSizeBytes;
    Result.Imbalance = Pipe.Map.imbalance();
    Result.NumRounds = Pipe.Map.NumRounds;
    accumulateSharing(Result.Sharing, analyzeMapping(Pipe.Map, Machine));

    // The trace depends only on the program, so every (machine x strategy)
    // run of this workload shares one compilation via the registry.
    std::shared_ptr<const AccessTrace> Trace;
    {
      obs::ObsScope Span("sim.trace-compile");
      Trace = TraceRegistry::getOrCompile(Prog, NestIdx, Opts.MaxIterations);
    }
    obs::ObsScope ExecSpan("sim.execute");
    ExecutionResult Exec =
        executeMapped(Sim, *Trace, Pipe.Map, Strat, Opts, SimCfg);
    ExecSpan.close();
    accumulateExecution(Result, Exec);
  }
  return Result;
}

RunResult cta::runExperiment(const Program &Prog,
                             const CacheTopology &Machine, Strategy Strat,
                             const ExperimentConfig &Config) {
  CacheTopology Scaled = Machine.scaledCapacity(Config.TopologyScale);
  return runOnMachine(Prog, Scaled, Strat, Config.Options);
}

Mapping cta::retargetMapping(const Mapping &Map, unsigned NewNumCores) {
  if (NewNumCores == 0)
    reportFatalError("cannot retarget a mapping onto zero cores");

  Mapping Out;
  Out.StrategyName = Map.StrategyName + "@retarget";
  Out.NumCores = NewNumCores;
  Out.CoreIterations.resize(NewNumCores);
  Out.RoundEnd.resize(NewNumCores);
  Out.BarriersRequired = Map.BarriersRequired;
  Out.NumRounds = Map.BarriersRequired ? Map.NumRounds : 1;

  // Round by round, concatenate the folded cores' work so the barrier
  // structure survives the fold.
  unsigned Rounds = Map.BarriersRequired ? Map.NumRounds : 1;
  for (unsigned R = 0; R != Rounds; ++R) {
    for (unsigned C = 0; C != Map.NumCores; ++C) {
      unsigned Target = C % NewNumCores;
      std::uint32_t Begin =
          Map.BarriersRequired ? (R == 0 ? 0 : Map.RoundEnd[C][R - 1]) : 0;
      std::uint32_t End = Map.BarriersRequired
                              ? Map.RoundEnd[C][R]
                              : static_cast<std::uint32_t>(
                                    Map.CoreIterations[C].size());
      Out.CoreIterations[Target].insert(
          Out.CoreIterations[Target].end(),
          Map.CoreIterations[C].begin() + Begin,
          Map.CoreIterations[C].begin() + End);
    }
    for (unsigned T = 0; T != NewNumCores; ++T)
      Out.RoundEnd[T].push_back(Out.CoreIterations[T].size());
  }
  return Out;
}

RunResult cta::runCrossMachine(const Program &Prog,
                               const CacheTopology &CompiledFor,
                               const CacheTopology &RunsOn, Strategy Strat,
                               const MappingOptions &Opts, TraceLog *Log,
                               const SimExec &SimCfg) {
  MachineSim Sim(RunsOn);
  Sim.setTraceLog(Log);

  RunResult Result;
  for (unsigned NestIdx = 0, E = Prog.Nests.size(); NestIdx != E; ++NestIdx) {
    PipelineResult Pipe =
        runMappingPipeline(Prog, NestIdx, CompiledFor, Strat, Opts);
    Result.MappingSeconds += Pipe.MappingSeconds;
    Result.BlockSizeBytes = Pipe.BlockSizeBytes;
    // The sharing report describes the mapping on the machine it was
    // compiled for; the retargeted fold drops group diagnostics.
    accumulateSharing(Result.Sharing, analyzeMapping(Pipe.Map, CompiledFor));

    Mapping Ported = Pipe.Map.NumCores == RunsOn.numCores()
                         ? std::move(Pipe.Map)
                         : retargetMapping(Pipe.Map, RunsOn.numCores());
    Result.Imbalance = Ported.imbalance();
    Result.NumRounds = Ported.NumRounds;

    std::shared_ptr<const AccessTrace> Trace;
    {
      obs::ObsScope Span("sim.trace-compile");
      Trace = TraceRegistry::getOrCompile(Prog, NestIdx, Opts.MaxIterations);
    }
    obs::ObsScope ExecSpan("sim.execute");
    ExecutionResult Exec =
        executeMapped(Sim, *Trace, Ported, Strat, Opts, SimCfg);
    ExecSpan.close();
    accumulateExecution(Result, Exec);
  }
  return Result;
}

double cta::cycleRatio(const RunResult &R, const RunResult &Base) {
  if (Base.Cycles == 0)
    return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(R.Cycles) / static_cast<double>(Base.Cycles);
}

double cta::geomean(const std::vector<double> &Values) {
  // The geometric mean is undefined for empty input and for non-positive
  // ratios; return NaN deterministically rather than aborting (a single
  // degenerate run must not kill a whole parallel experiment sweep).
  if (Values.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double LogSum = 0.0;
  for (double V : Values) {
    if (!(V > 0.0)) // catches negatives, zero and NaN
      return std::numeric_limits<double>::quiet_NaN();
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}
