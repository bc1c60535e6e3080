//===- tests/sim_equivalence_test.cpp - Fast path vs reference engine -----===//
//
// Differential test of the simulator hot path: executeMapping (precompiled
// AccessTrace + single-probe caches + event-heap scheduling) must produce
// bit-identical results to executeMappingReference (per-access affine
// evaluation, two-scan caches, linear min-scans) on randomized programs,
// topologies and mappings. Any divergence in cycles or cache statistics is
// a bug in one of the two paths.
//
//===----------------------------------------------------------------------===//

#include "driver/Experiment.h"
#include "obs/Json.h"
#include "serve/Service.h"
#include "sim/AccessTrace.h"
#include "sim/Engine.h"
#include "sim/ParallelEngine.h"
#include "sim/TraceLog.h"
#include "support/Random.h"
#include "topo/Presets.h"
#include "topo/Topology.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cta;

namespace {

/// A random affine program: 1-3 arrays of rank 1-2, a nest of depth 1-3
/// with constant bounds, 1-5 accesses. Non-wrapped subscripts are kept in
/// bounds by construction; wrapped accesses use arbitrary coefficients
/// (the Euclidean reduction makes any value legal).
Program makeRandomProgram(SplitMix64 &Rng) {
  Program P;
  const unsigned NumArrays = 1 + Rng.nextBelow(3);
  for (unsigned A = 0; A != NumArrays; ++A) {
    const unsigned Rank = 1 + Rng.nextBelow(2);
    std::vector<std::int64_t> Dims;
    for (unsigned R = 0; R != Rank; ++R)
      Dims.push_back(48 + static_cast<std::int64_t>(Rng.nextBelow(81)));
    const unsigned ElementSize = Rng.nextBelow(2) == 0 ? 4 : 8;
    P.addArray(ArrayDecl("A" + std::to_string(A), std::move(Dims),
                         ElementSize));
  }

  const unsigned Depth = 1 + Rng.nextBelow(3);
  LoopNest Nest("rand", Depth);
  std::vector<std::int64_t> UpperBound;
  for (unsigned D = 0; D != Depth; ++D) {
    std::int64_t U = Depth == 1
                         ? 15 + static_cast<std::int64_t>(Rng.nextBelow(33))
                         : 2 + static_cast<std::int64_t>(Rng.nextBelow(6));
    Nest.addConstantDim(0, U);
    UpperBound.push_back(U);
  }
  Nest.setComputeCyclesPerIteration(Rng.nextBelow(4));

  const unsigned NumAccesses = 1 + Rng.nextBelow(5);
  for (unsigned I = 0; I != NumAccesses; ++I) {
    const unsigned ArrayId = static_cast<unsigned>(Rng.nextBelow(NumArrays));
    const ArrayDecl &Array = P.Arrays[ArrayId];
    const bool Wrap = Rng.nextBelow(4) == 0;
    std::vector<AffineExpr> Subs;
    for (std::int64_t DimSize : Array.Dims) {
      AffineExpr E(Depth);
      if (Wrap) {
        for (unsigned D = 0; D != Depth; ++D)
          E.setCoeff(D, static_cast<std::int64_t>(Rng.nextBelow(7)) - 3);
        E.setConstantTerm(static_cast<std::int64_t>(Rng.nextBelow(21)) - 10);
      } else {
        // a * iv(V) + b with a * UB <= DimSize - 1 so the index stays in
        // bounds without modular reduction.
        const unsigned V = static_cast<unsigned>(Rng.nextBelow(Depth));
        const std::int64_t MaxCoeff = (DimSize - 1) / UpperBound[V];
        const std::int64_t A =
            Rng.nextBelow(static_cast<std::uint64_t>(MaxCoeff >= 2 ? 3 : 2));
        E.setCoeff(V, A);
        const std::int64_t Room = DimSize - 1 - A * UpperBound[V];
        E.setConstantTerm(
            static_cast<std::int64_t>(Rng.nextBelow(Room + 1)));
      }
      Subs.push_back(std::move(E));
    }
    Nest.addAccess(ArrayAccess(ArrayId, std::move(Subs),
                               /*IsWrite=*/Rng.nextBelow(3) == 0, Wrap));
  }
  P.Nests.push_back(std::move(Nest));
  return P;
}

/// A random two- or three-level topology. Line sizes include non-powers
/// of two (exercising the division path) and set counts are frequently
/// non-powers of two (exercising the modulo path next to the mask path).
CacheParams makeRandomCacheParams(SplitMix64 &Rng, unsigned Level) {
  static const unsigned LineSizes[] = {32, 48, 64, 96};
  static const unsigned SetCounts[] = {2, 3, 4, 5, 7, 8, 12, 16};
  CacheParams P;
  P.Assoc = 1 + static_cast<unsigned>(Rng.nextBelow(4));
  P.LineSize = LineSizes[Rng.nextBelow(4)];
  const unsigned Sets = SetCounts[Rng.nextBelow(8)] * Level;
  P.SizeBytes = static_cast<std::uint64_t>(Sets) * P.Assoc * P.LineSize;
  P.LatencyCycles = Level * (2 + static_cast<unsigned>(Rng.nextBelow(6)));
  return P;
}

CacheTopology makeRandomTopology(SplitMix64 &Rng) {
  auto params = [&](unsigned Level) {
    return makeRandomCacheParams(Rng, Level);
  };

  CacheTopology T("rand", 60 + static_cast<unsigned>(Rng.nextBelow(140)));
  const bool ThreeLevels = Rng.nextBelow(2) == 0;
  const unsigned NumShared = 1 + static_cast<unsigned>(Rng.nextBelow(2));
  const unsigned CoresPerShared = 1 + static_cast<unsigned>(Rng.nextBelow(3));
  for (unsigned S = 0; S != NumShared; ++S) {
    unsigned Parent = T.rootId();
    if (ThreeLevels)
      Parent = T.addCache(T.rootId(), 3, params(3));
    const unsigned L2 = T.addCache(Parent, 2, params(2));
    for (unsigned C = 0; C != CoresPerShared; ++C)
      T.addCache(L2, 1, params(1));
  }
  T.finalize();
  return T;
}

/// A random topology of 1-4 root-level cache domains of different
/// shapes, each with 1-3 cores: an L2 over its L1s, an L3 over one or two
/// L2s, or (domain \p PrivateOnly, when in range) a lone core whose only
/// cache is a private L1. Sets *HasPrivateOnly when that domain exists.
CacheTopology makeDomainTopology(SplitMix64 &Rng, bool *HasPrivateOnly) {
  CacheTopology T("domains", 60 + static_cast<unsigned>(Rng.nextBelow(140)));
  const unsigned NumDomains = 1 + static_cast<unsigned>(Rng.nextBelow(4));
  const unsigned PrivateOnly =
      static_cast<unsigned>(Rng.nextBelow(NumDomains + 1));
  *HasPrivateOnly = PrivateOnly != NumDomains;
  for (unsigned D = 0; D != NumDomains; ++D) {
    if (D == PrivateOnly) {
      T.addCache(T.rootId(), 1, makeRandomCacheParams(Rng, 1));
      continue;
    }
    const unsigned Cores = 1 + static_cast<unsigned>(Rng.nextBelow(3));
    if (Rng.nextBelow(2) == 0) { // two levels: L2 over the L1s
      const unsigned L2 =
          T.addCache(T.rootId(), 2, makeRandomCacheParams(Rng, 2));
      for (unsigned C = 0; C != Cores; ++C)
        T.addCache(L2, 1, makeRandomCacheParams(Rng, 1));
      continue;
    }
    // Three levels: L3 over one L2 (all cores) or over two L2s splitting
    // the cores, so a domain can hold private and shared L2s side by side.
    const unsigned L3 =
        T.addCache(T.rootId(), 3, makeRandomCacheParams(Rng, 3));
    const unsigned NumL2 = Cores >= 2 && Rng.nextBelow(2) == 0 ? 2 : 1;
    unsigned L2 = 0;
    for (unsigned C = 0; C != Cores; ++C) {
      if (C == 0 || (NumL2 == 2 && C == 1))
        L2 = T.addCache(L3, 2, makeRandomCacheParams(Rng, 2));
      T.addCache(L2, 1, makeRandomCacheParams(Rng, 1));
    }
  }
  T.finalize();
  return T;
}

/// A random partition of [0, NumIterations) over \p NumCores, in shuffled
/// order, split at random cut points (some cores may get nothing).
std::vector<std::vector<std::uint32_t>>
makeRandomPartition(std::uint32_t NumIterations, unsigned NumCores,
                    SplitMix64 &Rng) {
  std::vector<std::uint32_t> Ids(NumIterations);
  for (std::uint32_t I = 0; I != NumIterations; ++I)
    Ids[I] = I;
  for (std::uint32_t I = NumIterations; I > 1; --I) {
    const std::uint32_t J = static_cast<std::uint32_t>(Rng.nextBelow(I));
    std::swap(Ids[I - 1], Ids[J]);
  }
  std::vector<std::uint32_t> Cuts;
  for (unsigned C = 0; C + 1 < NumCores; ++C)
    Cuts.push_back(static_cast<std::uint32_t>(Rng.nextBelow(NumIterations + 1)));
  Cuts.push_back(0);
  Cuts.push_back(NumIterations);
  std::sort(Cuts.begin(), Cuts.end());

  std::vector<std::vector<std::uint32_t>> PerCore(NumCores);
  for (unsigned C = 0; C != NumCores; ++C)
    PerCore[C].assign(Ids.begin() + Cuts[C], Ids.begin() + Cuts[C + 1]);
  return PerCore;
}

/// Synchronization regime of a random mapping; Any draws one.
enum class MappingMode { FreeRunning, Barrier, PointToPoint, Any };

/// A random mapping in one of the three synchronization regimes the
/// engine supports: free running, multi-round barriers, point-to-point.
Mapping makeRandomMapping(std::uint32_t NumIterations, unsigned NumCores,
                          SplitMix64 &Rng,
                          MappingMode Forced = MappingMode::Any) {
  Mapping Map;
  Map.StrategyName = "random";
  Map.NumCores = NumCores;
  Map.CoreIterations = makeRandomPartition(NumIterations, NumCores, Rng);

  const MappingMode Mode =
      Forced == MappingMode::Any
          ? static_cast<MappingMode>(Rng.nextBelow(3))
          : Forced;
  if (Mode == MappingMode::FreeRunning) { // one round, no barriers
    Map.NumRounds = 1;
    Map.RoundEnd.resize(NumCores);
    for (unsigned C = 0; C != NumCores; ++C)
      Map.RoundEnd[C].push_back(Map.CoreIterations[C].size());
    Map.BarriersRequired = false;
  } else if (Mode == MappingMode::Barrier) { // multi-round barriers
    Map.NumRounds = 2 + static_cast<unsigned>(Rng.nextBelow(2));
    Map.BarriersRequired = true;
    Map.RoundEnd.resize(NumCores);
    for (unsigned C = 0; C != NumCores; ++C) {
      const std::uint32_t N = Map.CoreIterations[C].size();
      std::vector<std::uint32_t> Ends;
      for (unsigned R = 0; R + 1 < Map.NumRounds; ++R)
        Ends.push_back(static_cast<std::uint32_t>(Rng.nextBelow(N + 1)));
      std::sort(Ends.begin(), Ends.end());
      Ends.push_back(N);
      Map.RoundEnd[C] = std::move(Ends);
    }
  } else { // point-to-point, PredCore < Core so no cycle can deadlock
    Map.NumRounds = 1;
    Map.RoundEnd.resize(NumCores);
    for (unsigned C = 0; C != NumCores; ++C)
      Map.RoundEnd[C].push_back(Map.CoreIterations[C].size());
    Map.Sync = SyncMode::PointToPoint;
    for (unsigned C = 1; C != NumCores; ++C) {
      const std::uint32_t N = Map.CoreIterations[C].size();
      if (N == 0)
        continue;
      const unsigned NumDeps = static_cast<unsigned>(Rng.nextBelow(3));
      for (unsigned D = 0; D != NumDeps; ++D) {
        SyncDep Dep;
        Dep.Core = C;
        Dep.StartPos = static_cast<std::uint32_t>(Rng.nextBelow(N));
        Dep.PredCore = static_cast<unsigned>(Rng.nextBelow(C));
        Dep.PredEndPos = static_cast<std::uint32_t>(Rng.nextBelow(
            Map.CoreIterations[Dep.PredCore].size() + 1));
        Map.PointDeps.push_back(Dep);
      }
    }
  }
  return Map;
}

void expectIdentical(const ExecutionResult &Fast, const ExecutionResult &Ref,
                     std::uint64_t Seed) {
  EXPECT_EQ(Fast.TotalCycles, Ref.TotalCycles) << "seed " << Seed;
  ASSERT_EQ(Fast.CoreCycles.size(), Ref.CoreCycles.size()) << "seed " << Seed;
  for (std::size_t C = 0; C != Fast.CoreCycles.size(); ++C)
    EXPECT_EQ(Fast.CoreCycles[C], Ref.CoreCycles[C])
        << "core " << C << " seed " << Seed;
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    EXPECT_EQ(Fast.Stats.Levels[L].Lookups, Ref.Stats.Levels[L].Lookups)
        << "L" << L << " lookups, seed " << Seed;
    EXPECT_EQ(Fast.Stats.Levels[L].Hits, Ref.Stats.Levels[L].Hits)
        << "L" << L << " hits, seed " << Seed;
  }
  EXPECT_EQ(Fast.Stats.MemoryAccesses, Ref.Stats.MemoryAccesses)
      << "seed " << Seed;
  EXPECT_EQ(Fast.Stats.TotalAccesses, Ref.Stats.TotalAccesses)
      << "seed " << Seed;

  // Per-cache-instance statistics: the fast path's probe() and the
  // reference path's access()+fill() count lookups, hits and evictions
  // with separate code; they must agree cache for cache.
  ASSERT_EQ(Fast.PerCache.size(), Ref.PerCache.size()) << "seed " << Seed;
  for (std::size_t I = 0; I != Fast.PerCache.size(); ++I) {
    const CacheNodeStats &F = Fast.PerCache[I];
    const CacheNodeStats &R = Ref.PerCache[I];
    EXPECT_EQ(F.NodeId, R.NodeId) << "seed " << Seed;
    EXPECT_EQ(F.Level, R.Level) << "seed " << Seed;
    EXPECT_EQ(F.Lookups, R.Lookups) << "node " << F.NodeId << " seed " << Seed;
    EXPECT_EQ(F.Hits, R.Hits) << "node " << F.NodeId << " seed " << Seed;
    EXPECT_EQ(F.Evictions, R.Evictions)
        << "node " << F.NodeId << " seed " << Seed;
  }

  // The per-level aggregates must be exactly the per-cache sums (same
  // events, two bookkeeping granularities).
  std::uint64_t LevelLookups[SimStats::MaxLevels + 1] = {};
  std::uint64_t LevelHits[SimStats::MaxLevels + 1] = {};
  for (const CacheNodeStats &C : Fast.PerCache) {
    ASSERT_LE(C.Level, SimStats::MaxLevels) << "seed " << Seed;
    LevelLookups[C.Level] += C.Lookups;
    LevelHits[C.Level] += C.Hits;
  }
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    EXPECT_EQ(LevelLookups[L], Fast.Stats.Levels[L].Lookups)
        << "L" << L << " seed " << Seed;
    EXPECT_EQ(LevelHits[L], Fast.Stats.Levels[L].Hits)
        << "L" << L << " seed " << Seed;
  }
}

/// Runs one random configuration through both engine paths on fresh
/// machines and asserts bit-identical results; repeats the run on the
/// now-warm machines so persistent cache state is compared too.
void runOneSeed(std::uint64_t Seed) {
  SplitMix64 Rng(Seed);
  Program Prog = makeRandomProgram(Rng);
  CacheTopology Topo = makeRandomTopology(Rng);
  IterationTable Table = Prog.Nests[0].enumerate();
  AddressMap Addrs(Prog.Arrays);
  Mapping Map = makeRandomMapping(Table.size(), Topo.numCores(), Rng);
  ASSERT_TRUE(Map.validate());

  MachineSim FastSim(Topo);
  MachineSim RefSim(Topo);
  ExecutionResult Fast = executeMapping(FastSim, Prog, 0, Table, Map, Addrs);
  ExecutionResult Ref =
      executeMappingReference(RefSim, Prog, 0, Table, Map, Addrs);
  expectIdentical(Fast, Ref, Seed);

  // Warm re-run: cache contents persisted across the first call in both
  // simulators; the second execution must diverge in neither timing nor
  // statistics.
  ExecutionResult Fast2 = executeMapping(FastSim, Prog, 0, Table, Map, Addrs);
  ExecutionResult Ref2 =
      executeMappingReference(RefSim, Prog, 0, Table, Map, Addrs);
  expectIdentical(Fast2, Ref2, Seed);
}

} // namespace

TEST(SimEquivalence, RandomizedConfigurations) {
  for (std::uint64_t Seed = 1; Seed <= 60; ++Seed)
    runOneSeed(Seed);
}

TEST(SimEquivalence, ParallelEngineMatchesSequential) {
  // The epoch-parallel engine must be bit-exact against the sequential
  // fast path on randomized configurations: non-power-of-two set counts
  // (makeRandomTopology mixes them in), free-running, multi-round
  // barrier, and point-to-point schedules (the last fall back to the
  // sequential engine inside executeTrace — identity is trivial there
  // but the dispatch path is exercised). Warm re-runs compare persistent
  // cache state too, and every thread count must agree, including 0
  // (hardware) and counts exceeding the core count.
  for (std::uint64_t Seed = 201; Seed <= 240; ++Seed) {
    SplitMix64 Rng(Seed);
    Program Prog = makeRandomProgram(Rng);
    CacheTopology Topo = makeRandomTopology(Rng);
    IterationTable Table = Prog.Nests[0].enumerate();
    AddressMap Addrs(Prog.Arrays);
    Mapping Map = makeRandomMapping(Table.size(), Topo.numCores(), Rng);
    ASSERT_TRUE(Map.validate());
    AccessTrace Trace = AccessTrace::compile(Prog, 0, Table, Addrs);

    MachineSim SeqSim(Topo);
    ExecutionResult SeqCold = executeTrace(SeqSim, Trace, Map);
    ExecutionResult SeqWarm = executeTrace(SeqSim, Trace, Map);

    for (unsigned Threads : {0u, 2u, 7u}) {
      MachineSim ParSim(Topo);
      SimExec Exec;
      Exec.Threads = Threads;
      ExecutionResult ParCold = executeTrace(ParSim, Trace, Map, Exec);
      expectIdentical(ParCold, SeqCold, Seed);
      ExecutionResult ParWarm = executeTrace(ParSim, Trace, Map, Exec);
      expectIdentical(ParWarm, SeqWarm, Seed);
    }
  }
}

TEST(SimEquivalence, ParallelEngineMatchesSequentialAcrossDomains) {
  // Topologies of 1-4 independent cache domains of different shapes: the
  // merge runs one task per domain on round-relative clocks, so every
  // regime must still match the sequential engine exactly, cold and warm.
  // The engine is called directly at one thread (domains merged in turn
  // on the calling thread) and through executeTrace on pools of several
  // sizes; point-to-point mappings take the sequential fallback there.
  unsigned PrivateOnlyConfigs = 0, MultiDomainConfigs = 0;
  for (std::uint64_t Seed = 401; Seed <= 430; ++Seed) {
    SplitMix64 Rng(Seed);
    Program Prog = makeRandomProgram(Rng);
    bool HasPrivateOnly = false;
    CacheTopology Topo = makeDomainTopology(Rng, &HasPrivateOnly);
    PrivateOnlyConfigs += HasPrivateOnly;
    MultiDomainConfigs += Topo.node(Topo.rootId()).Children.size() > 1;
    IterationTable Table = Prog.Nests[0].enumerate();
    AddressMap Addrs(Prog.Arrays);
    AccessTrace Trace = AccessTrace::compile(Prog, 0, Table, Addrs);

    for (MappingMode Mode : {MappingMode::FreeRunning, MappingMode::Barrier,
                             MappingMode::PointToPoint}) {
      Mapping Map =
          makeRandomMapping(Table.size(), Topo.numCores(), Rng, Mode);
      ASSERT_TRUE(Map.validate());

      MachineSim SeqSim(Topo);
      ExecutionResult SeqCold = executeTrace(SeqSim, Trace, Map);
      ExecutionResult SeqWarm = executeTrace(SeqSim, Trace, Map);

      MachineSim DirectSim(Topo);
      if (epochParallelEligible(DirectSim, Map)) {
        SimExec One;
        One.Threads = 1;
        expectIdentical(executeTraceEpochParallel(DirectSim, Trace, Map, One),
                        SeqCold, Seed);
        expectIdentical(executeTraceEpochParallel(DirectSim, Trace, Map, One),
                        SeqWarm, Seed);
      }

      for (unsigned Threads : {2u, 3u, 7u}) {
        MachineSim ParSim(Topo);
        SimExec Exec;
        Exec.Threads = Threads;
        expectIdentical(executeTrace(ParSim, Trace, Map, Exec), SeqCold,
                        Seed);
        expectIdentical(executeTrace(ParSim, Trace, Map, Exec), SeqWarm,
                        Seed);
      }
    }
  }
  EXPECT_GT(PrivateOnlyConfigs, 0u);
  EXPECT_GT(MultiDomainConfigs, 0u);
}

TEST(SimEquivalence, ParallelEngineFoldsBarriersAcrossDomains) {
  // Two domains of two cores (an L2 over two L1s each) and four barrier
  // rounds in which the heavy domain alternates: domain 0's cores carry
  // 12 iterations in rounds 0 and 2 and one in rounds 1 and 3, domain 1
  // the reverse. A different domain therefore ends each round last, and
  // every round start depends on the other domain's span.
  CacheTopology Topo("two-domains", 100);
  CacheParams L1{/*SizeBytes=*/256, /*Assoc=*/2, /*LineSize=*/32,
                 /*LatencyCycles=*/2};
  CacheParams L2{/*SizeBytes=*/1024, /*Assoc=*/4, /*LineSize=*/64,
                 /*LatencyCycles=*/10};
  for (unsigned D = 0; D != 2; ++D) {
    const unsigned Shared = Topo.addCache(Topo.rootId(), 2, L2);
    Topo.addCache(Shared, 1, L1);
    Topo.addCache(Shared, 1, L1);
  }
  Topo.finalize();

  Program Prog;
  Prog.addArray(ArrayDecl("A", {512}, 8));
  LoopNest Nest("alternating", 1);
  Nest.addConstantDim(0, 4 * 26 - 1); // inclusive bounds: 104 iterations
  AffineExpr Sub(1);
  Sub.setCoeff(0, 4);
  Nest.addAccess(ArrayAccess(0, {Sub}));
  Prog.Nests.push_back(std::move(Nest));
  IterationTable Table = Prog.Nests[0].enumerate();
  AddressMap Addrs(Prog.Arrays);
  AccessTrace Trace = AccessTrace::compile(Prog, 0, Table, Addrs);

  Mapping Map;
  Map.StrategyName = "alternating";
  Map.NumCores = 4;
  Map.NumRounds = 4;
  Map.BarriersRequired = true;
  Map.CoreIterations.resize(4);
  Map.RoundEnd.resize(4);
  std::uint32_t Next = 0;
  for (unsigned Round = 0; Round != 4; ++Round)
    for (unsigned C = 0; C != 4; ++C) {
      const bool Heavy = (C / 2) == Round % 2;
      for (unsigned I = 0; I != (Heavy ? 12u : 1u); ++I)
        Map.CoreIterations[C].push_back(Next++);
      Map.RoundEnd[C].push_back(Map.CoreIterations[C].size());
    }
  ASSERT_EQ(Next, Table.size());
  ASSERT_TRUE(Map.validate());

  MachineSim SeqSim(Topo);
  ExecutionResult Seq = executeTrace(SeqSim, Trace, Map);
  // Round 3 is domain 1's heavy round, so its cores finish last.
  EXPECT_GT(std::min(Seq.CoreCycles[2], Seq.CoreCycles[3]),
            std::max(Seq.CoreCycles[0], Seq.CoreCycles[1]));

  for (unsigned Threads : {1u, 2u, 4u}) {
    MachineSim ParSim(Topo);
    SimExec Exec;
    Exec.Threads = Threads;
    expectIdentical(executeTraceEpochParallel(ParSim, Trace, Map, Exec), Seq,
                    Threads);
  }
}

TEST(SimEquivalence, ParallelEngineEligibility) {
  SplitMix64 Rng(77);
  Program Prog = makeRandomProgram(Rng);
  CacheTopology Topo = makeRandomTopology(Rng);
  if (Topo.numCores() < 2)
    GTEST_SKIP() << "seed produced a single-core topology";
  IterationTable Table = Prog.Nests[0].enumerate();
  MachineSim Sim(Topo);

  Mapping Barrier;
  Barrier.NumCores = Topo.numCores();
  Barrier.CoreIterations =
      makeRandomPartition(Table.size(), Topo.numCores(), Rng);
  Barrier.BarriersRequired = false;
  EXPECT_TRUE(epochParallelEligible(Sim, Barrier));

  // Point-to-point dependences interleave at access-wait granularity;
  // the parallel engine refuses them.
  Mapping P2P = Barrier;
  P2P.Sync = SyncMode::PointToPoint;
  SyncDep Dep;
  Dep.Core = 1;
  Dep.StartPos = 0;
  Dep.PredCore = 0;
  Dep.PredEndPos = 1;
  P2P.PointDeps.push_back(Dep);
  EXPECT_FALSE(epochParallelEligible(Sim, P2P));

  // A trace log pins the global event order; traced runs stay sequential.
  TraceLog Log;
  Sim.setTraceLog(&Log);
  EXPECT_FALSE(epochParallelEligible(Sim, Barrier));
  Sim.setTraceLog(nullptr);
  EXPECT_TRUE(epochParallelEligible(Sim, Barrier));
}

TEST(SimEquivalence, TracedRunsFallBackBitIdentically) {
  // With a TraceLog attached, executeTrace must ignore Threads and emit
  // the exact sequential event stream: same events, same order, same
  // cycle stamps.
  for (std::uint64_t Seed = 301; Seed <= 305; ++Seed) {
    SplitMix64 Rng(Seed);
    Program Prog = makeRandomProgram(Rng);
    CacheTopology Topo = makeRandomTopology(Rng);
    IterationTable Table = Prog.Nests[0].enumerate();
    AddressMap Addrs(Prog.Arrays);
    Mapping Map = makeRandomMapping(Table.size(), Topo.numCores(), Rng);
    ASSERT_TRUE(Map.validate());
    AccessTrace Trace = AccessTrace::compile(Prog, 0, Table, Addrs);

    MachineSim SeqSim(Topo);
    TraceLog SeqLog;
    SeqSim.setTraceLog(&SeqLog);
    ExecutionResult Seq = executeTrace(SeqSim, Trace, Map);

    MachineSim ParSim(Topo);
    TraceLog ParLog;
    ParSim.setTraceLog(&ParLog);
    SimExec Exec;
    Exec.Threads = 4;
    ExecutionResult Par = executeTrace(ParSim, Trace, Map, Exec);

    expectIdentical(Par, Seq, Seed);
    std::vector<TraceEvent> SeqEvents = SeqLog.events();
    std::vector<TraceEvent> ParEvents = ParLog.events();
    ASSERT_EQ(SeqEvents.size(), ParEvents.size()) << "seed " << Seed;
    for (std::size_t I = 0; I != SeqEvents.size(); ++I) {
      EXPECT_EQ(SeqEvents[I].Cycle, ParEvents[I].Cycle) << "seed " << Seed;
      EXPECT_EQ(SeqEvents[I].Payload, ParEvents[I].Payload)
          << "seed " << Seed;
      EXPECT_EQ(SeqEvents[I].Core, ParEvents[I].Core) << "seed " << Seed;
      EXPECT_EQ(SeqEvents[I].Node, ParEvents[I].Node) << "seed " << Seed;
      EXPECT_EQ(SeqEvents[I].Kind, ParEvents[I].Kind) << "seed " << Seed;
    }
  }
}

TEST(SimEquivalence, SimThreadsArtifactsByteEqual) {
  // End to end through serve::Service: the same task run cold under
  // --sim-threads=1 and --sim-threads=4 must produce byte-identical run
  // artifacts once the engine-side observability (wall-clock phases and
  // engine-internal counters) is stripped — in particular the same
  // fingerprint: thread count is deliberately not part of the cache key.
  auto runWith = [](unsigned SimThreads) {
    serve::Service::Config Cfg;
    Cfg.Jobs = 1;
    Cfg.SimThreads = SimThreads;
    serve::Service Svc(Cfg);
    RunTask Task = makeRunTask(makeWorkload("cg"),
                               makeDunnington().scaledCapacity(1.0 / 32),
                               Strategy::TopologyAware,
                               ExperimentConfig::makeDefaultOptions(),
                               "cg/dunnington/topology-aware");
    return Svc.runOne(Task).Artifact;
  };

  obs::RunArtifact Seq = runWith(1);
  obs::RunArtifact Par = runWith(4);
  EXPECT_EQ(Seq.Fingerprint, Par.Fingerprint);

  for (obs::RunArtifact *A : {&Seq, &Par}) {
    A->MappingSeconds = 0.0; // wall clock
    A->Phases.clear();       // wall clock
    A->Counters.clear();     // engine-internal (sim.batch.* vs sim.parallel.*)
  }
  obs::JsonWriter SeqW, ParW;
  Seq.writeJson(SeqW);
  Par.writeJson(ParW);
  EXPECT_EQ(SeqW.str(), ParW.str());
}

TEST(SimEquivalence, TraceRegistrySharesOneCompilation) {
  SplitMix64 Rng(123);
  Program Prog = makeRandomProgram(Rng);
  TraceRegistry::clear();
  std::shared_ptr<const AccessTrace> A =
      TraceRegistry::getOrCompile(Prog, 0, 1u << 26);
  std::shared_ptr<const AccessTrace> B =
      TraceRegistry::getOrCompile(Prog, 0, 1u << 26);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(TraceRegistry::residentTraces(), 1u);

  // A different enumeration limit is a different trace key: the limit
  // changes abort behavior, so sharing across limits would be unsound.
  std::uint64_t KeyA = traceFingerprint(Prog, 0, 1u << 26);
  std::uint64_t KeyB = traceFingerprint(Prog, 0, 1u << 20);
  EXPECT_NE(KeyA, KeyB);
  TraceRegistry::clear();
  EXPECT_EQ(TraceRegistry::residentTraces(), 0u);
}

TEST(SimEquivalence, TraceMatchesNaiveAddressComputation) {
  // Every trace row must equal the addresses the naive evaluateAccess +
  // linearize path computes for that iteration, access for access.
  for (std::uint64_t Seed = 101; Seed <= 110; ++Seed) {
    SplitMix64 Rng(Seed);
    Program Prog = makeRandomProgram(Rng);
    const LoopNest &Nest = Prog.Nests[0];
    IterationTable Table = Nest.enumerate();
    AddressMap Addrs(Prog.Arrays);
    AccessTrace Trace = AccessTrace::compile(Prog, 0, Table, Addrs);
    ASSERT_EQ(Trace.numIterations(), Table.size());
    ASSERT_EQ(Trace.numAccesses(), Nest.accesses().size());

    std::vector<std::int64_t> Point(Nest.depth());
    std::vector<std::int64_t> Idx;
    for (std::uint32_t It = 0; It != Table.size(); ++It) {
      Table.get(It, Point.data());
      const std::uint64_t *Row = Trace.row(It);
      for (unsigned A = 0; A != Trace.numAccesses(); ++A) {
        const ArrayAccess &Acc = Nest.accesses()[A];
        const ArrayDecl &Array = Prog.Arrays[Acc.ArrayId];
        Idx.assign(Acc.Subscripts.size(), 0);
        evaluateAccess(Acc, Array, Point.data(), Idx.data());
        const std::uint64_t Expected =
            Addrs.addrOf(Acc.ArrayId, Array.linearize(Idx.data()));
        EXPECT_EQ(Row[A], Expected)
            << "iteration " << It << " access " << A << " seed " << Seed;
        EXPECT_EQ(Trace.isWrite(A), Acc.IsWrite);
      }
    }
  }
}
