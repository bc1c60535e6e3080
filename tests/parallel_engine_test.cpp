//===- tests/parallel_engine_test.cpp - Epoch-parallel engine stress ------===//
//
// Thread-safety stress coverage for the epoch-parallel engine, built to
// run under ThreadSanitizer in CI: one MachineSim hammered by repeated
// parallel executions on a shared pool (the phase-1 workers touch
// disjoint private caches of the SAME machine, and the phase-2 domain
// tasks disjoint shared caches — exactly the sharing pattern TSan must
// see as race-free), plus the nested configuration the serve daemon runs
// in production: engines borrowing the pool of the Service that is
// executing them on that same pool.
//
// Every run is also checked bit-exact against a sequential twin, so a
// synchronization bug that silently corrupts state (rather than tripping
// TSan) still fails the test.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "driver/Experiment.h"
#include "serve/Service.h"
#include "sim/AccessTrace.h"
#include "sim/Engine.h"
#include "sim/ParallelEngine.h"
#include "support/ThreadPool.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <vector>

using namespace cta;

namespace {

void expectSameResult(const ExecutionResult &A, const ExecutionResult &B,
                      int Round) {
  EXPECT_EQ(A.TotalCycles, B.TotalCycles) << "round " << Round;
  ASSERT_EQ(A.CoreCycles.size(), B.CoreCycles.size()) << "round " << Round;
  for (std::size_t C = 0; C != A.CoreCycles.size(); ++C)
    EXPECT_EQ(A.CoreCycles[C], B.CoreCycles[C])
        << "core " << C << " round " << Round;
  EXPECT_EQ(A.Stats.MemoryAccesses, B.Stats.MemoryAccesses)
      << "round " << Round;
  EXPECT_EQ(A.Stats.TotalAccesses, B.Stats.TotalAccesses)
      << "round " << Round;
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    EXPECT_EQ(A.Stats.Levels[L].Lookups, B.Stats.Levels[L].Lookups)
        << "L" << L << " round " << Round;
    EXPECT_EQ(A.Stats.Levels[L].Hits, B.Stats.Levels[L].Hits)
        << "L" << L << " round " << Round;
  }
  ASSERT_EQ(A.PerCache.size(), B.PerCache.size()) << "round " << Round;
  for (std::size_t I = 0; I != A.PerCache.size(); ++I) {
    EXPECT_EQ(A.PerCache[I].Lookups, B.PerCache[I].Lookups)
        << "node " << A.PerCache[I].NodeId << " round " << Round;
    EXPECT_EQ(A.PerCache[I].Hits, B.PerCache[I].Hits)
        << "node " << A.PerCache[I].NodeId << " round " << Round;
    EXPECT_EQ(A.PerCache[I].Evictions, B.PerCache[I].Evictions)
        << "node " << A.PerCache[I].NodeId << " round " << Round;
  }
}

TEST(ParallelEngineStress, HammersOneMachineFromSharedPool) {
  Program Prog = makeWorkload("mesa");
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts = ExperimentConfig::makeDefaultOptions();
  PipelineResult Pipe =
      runMappingPipeline(Prog, 0, Topo, Strategy::TopologyAware, Opts);
  ASSERT_TRUE(Pipe.Map.validate());

  IterationTable Table = Prog.Nests[0].enumerate();
  AddressMap Addrs(Prog.Arrays);
  AccessTrace Trace = AccessTrace::compile(Prog, 0, Table, Addrs);

  MachineSim ParSim(Topo);
  MachineSim SeqSim(Topo);
  ASSERT_TRUE(epochParallelEligible(ParSim, Pipe.Map));

  // One pool, many back-to-back parallel runs against the SAME machine:
  // consecutive runs hand each private cache from one worker thread to
  // another, so missing synchronization in the fork/join path shows up
  // as a TSan race on the cache arrays.
  ThreadPool Pool(4);
  SimExec Exec;
  Exec.Threads = 4;
  Exec.Pool = &Pool;
  for (int Round = 0; Round != 8; ++Round) {
    ExecutionResult Par = executeTrace(ParSim, Trace, Pipe.Map, Exec);
    ExecutionResult Seq = executeTrace(SeqSim, Trace, Pipe.Map);
    expectSameResult(Par, Seq, Round);
  }
}

/// \p Map re-cut into \p NumRounds barrier rounds: each core's schedule
/// is split into equal consecutive slices.
Mapping withBarrierRounds(Mapping Map, unsigned NumRounds) {
  Map.Sync = SyncMode::Barrier;
  Map.PointDeps.clear();
  Map.BarriersRequired = true;
  Map.NumRounds = NumRounds;
  Map.RoundEnd.assign(Map.NumCores, {});
  for (unsigned C = 0; C != Map.NumCores; ++C) {
    const std::uint64_t N = Map.CoreIterations[C].size();
    for (unsigned R = 1; R <= NumRounds; ++R)
      Map.RoundEnd[C].push_back(static_cast<std::uint32_t>(N * R / NumRounds));
  }
  return Map;
}

TEST(ParallelEngineStress, MergesDomainsConcurrentlyAcrossManyRounds) {
  // Many-round barrier mappings on Harpertown (four cache domains) and
  // Dunnington (two): the merge runs one task per domain on the shared
  // pool, so under TSan this sees concurrent domain merges probing
  // neighbouring caches of one machine, and every run is still checked
  // bit-exact against the sequential engine.
  Program Prog = makeWorkload("mesa");
  IterationTable Table = Prog.Nests[0].enumerate();
  AddressMap Addrs(Prog.Arrays);
  AccessTrace Trace = AccessTrace::compile(Prog, 0, Table, Addrs);

  ThreadPool Pool(4);
  SimExec Exec;
  Exec.Threads = 4;
  Exec.Pool = &Pool;
  for (const CacheTopology &Topo : {makeHarpertown().scaledCapacity(1.0 / 32),
                                    makeDunnington().scaledCapacity(1.0 / 32)}) {
    PipelineResult Pipe =
        runMappingPipeline(Prog, 0, Topo, Strategy::Base,
                           ExperimentConfig::makeDefaultOptions());
    Mapping Map = withBarrierRounds(Pipe.Map, 40);
    ASSERT_TRUE(Map.validate());

    MachineSim ParSim(Topo);
    MachineSim SeqSim(Topo);
    ASSERT_TRUE(epochParallelEligible(ParSim, Map));
    for (int Round = 0; Round != 4; ++Round) {
      ExecutionResult Par = executeTrace(ParSim, Trace, Map, Exec);
      ExecutionResult Seq = executeTrace(SeqSim, Trace, Map);
      expectSameResult(Par, Seq, Round);
    }
  }
}

TEST(ParallelEngineStress, NestsInsideServicePoolWithoutDeadlock) {
  // The daemon configuration: tasks execute ON the service pool, and each
  // task's engine borrows that same pool for its phase-1 workers. The
  // TaskGroup waiters help instead of blocking, so two tasks' engines
  // interleaved on two workers must finish; a regression here hangs the
  // test rather than failing an assertion.
  serve::Service::Config Cfg;
  Cfg.Jobs = 2;
  Cfg.SimThreads = 3;
  serve::Service Svc(Cfg);

  std::vector<RunTask> Tasks;
  for (Strategy S : {Strategy::Base, Strategy::Local,
                     Strategy::TopologyAware, Strategy::Combined})
    Tasks.push_back(makeRunTask(makeWorkload("mesa"),
                                makeDunnington().scaledCapacity(1.0 / 32), S,
                                ExperimentConfig::makeDefaultOptions(),
                                std::string("mesa/") + strategyName(S)));
  std::vector<serve::TaskOutcome> Out = Svc.runBatch(Tasks);
  ASSERT_EQ(Out.size(), Tasks.size());
  EXPECT_EQ(Svc.simulatorInvocations(), Tasks.size());

  // The parallel engine must produce what the sequential CLI path
  // produces for the same tasks.
  for (std::size_t I = 0; I != Tasks.size(); ++I) {
    RunResult Seq = runOnMachine(Tasks[I].Prog, Tasks[I].Machine,
                                 Tasks[I].Strat, Tasks[I].Opts);
    EXPECT_EQ(Out[I].Result.Cycles, Seq.Cycles) << Tasks[I].Label;
    EXPECT_EQ(Out[I].Result.Stats.MemoryAccesses,
              Seq.Stats.MemoryAccesses)
        << Tasks[I].Label;
    EXPECT_EQ(Out[I].Result.Stats.TotalAccesses, Seq.Stats.TotalAccesses)
        << Tasks[I].Label;
  }
}

} // namespace
