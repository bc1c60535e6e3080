//===- tests/tracelog_test.cpp - sim/ tracing layer tests -----------------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
// Covers the PR 5 tracing layer: the Bennett-Kruskal reuse-distance
// profiler against hand-computed stack distances, ring-buffer overflow
// semantics (drop oldest, count drops, keep aggregates exact), the
// engine-independence guarantee (fast probe() path and the reference
// access()+fill() path emit identical event streams whose totals
// reconcile one-for-one with the per-cache statistics counters), the
// core-to-core sharing-flow attribution, a golden `cta trace` rendering
// on a tiny deterministic machine, and rendering a log after the tasks
// that filled it are gone.
//
//===----------------------------------------------------------------------===//

#include "exec/ExperimentRunner.h"
#include "serve/Json.h"
#include "sim/Engine.h"
#include "sim/MachineSim.h"
#include "sim/TraceExport.h"
#include "sim/TraceLog.h"
#include "sim/TraceReport.h"
#include "topo/Presets.h"
#include "topo/Topology.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace cta;

namespace {

//===----------------------------------------------------------------------===//
// ReuseDistanceProfiler
//===----------------------------------------------------------------------===//

constexpr std::uint64_t Cold = UINT64_MAX;

TEST(ReuseDistanceTest, HandComputedSequence) {
  // Stack distance = number of distinct *other* lines touched since the
  // previous access to the same line.
  ReuseDistanceProfiler P;
  EXPECT_EQ(P.record(0xA), Cold);
  EXPECT_EQ(P.record(0xB), Cold);
  EXPECT_EQ(P.record(0xC), Cold);
  EXPECT_EQ(P.record(0xA), 2u); // B, C in between
  EXPECT_EQ(P.record(0xA), 0u); // immediate reuse
  EXPECT_EQ(P.record(0xB), 2u); // C, A in between
  EXPECT_EQ(P.record(0xC), 2u); // A, B in between
  EXPECT_EQ(P.record(0xC), 0u);
  EXPECT_EQ(P.record(0xA), 2u); // B, C in between

  EXPECT_EQ(P.samples(), 9u);
  EXPECT_EQ(P.coldAccesses(), 3u);
  // Distances seen: {2, 0, 2, 2, 0, 2} -> bucket 0 twice, bucket "2-3"
  // four times.
  EXPECT_EQ(P.histogram()[ReuseDistanceProfiler::bucketOf(0)], 2u);
  EXPECT_EQ(P.histogram()[ReuseDistanceProfiler::bucketOf(2)], 4u);
  EXPECT_EQ(P.massUpTo(0), 2u);
  EXPECT_EQ(P.massUpTo(1), 2u);
  EXPECT_EQ(P.massUpTo(2), 6u);
  EXPECT_EQ(P.massUpTo(1u << 20), 6u);
}

TEST(ReuseDistanceTest, BucketBoundaries) {
  // [0] = 0, [1] = 1, [k] = [2^(k-1), 2^k).
  EXPECT_EQ(ReuseDistanceProfiler::bucketOf(0), 0u);
  EXPECT_EQ(ReuseDistanceProfiler::bucketOf(1), 1u);
  EXPECT_EQ(ReuseDistanceProfiler::bucketOf(2), 2u);
  EXPECT_EQ(ReuseDistanceProfiler::bucketOf(3), 2u);
  EXPECT_EQ(ReuseDistanceProfiler::bucketOf(4), 3u);
  EXPECT_EQ(ReuseDistanceProfiler::bucketOf(7), 3u);
  EXPECT_EQ(ReuseDistanceProfiler::bucketOf(8), 4u);
  EXPECT_EQ(ReuseDistanceProfiler::bucketOf(1u << 20), 21u);
}

TEST(ReuseDistanceTest, CompactionKeepsDistancesExact) {
  // Two lines re-accessed 50k times force NextSlot far past 4x the live
  // line count, so compact() must run many times without ever changing a
  // distance: every reuse here has exactly one other line in between.
  ReuseDistanceProfiler P;
  EXPECT_EQ(P.record(0x1), Cold);
  EXPECT_EQ(P.record(0x2), Cold);
  for (int I = 0; I != 50000; ++I) {
    ASSERT_EQ(P.record(0x1), 1u) << "iteration " << I;
    ASSERT_EQ(P.record(0x2), 1u) << "iteration " << I;
  }
  EXPECT_EQ(P.samples(), 100002u);
  EXPECT_EQ(P.coldAccesses(), 2u);
  EXPECT_EQ(P.histogram()[1], 100000u);
}

TEST(ReuseDistanceTest, InterleavedFootprints) {
  // A scan of N distinct lines between reuses yields distance N.
  ReuseDistanceProfiler P;
  P.record(0x100);
  for (std::uint64_t L = 0; L != 10; ++L)
    P.record(0x200 + L);
  EXPECT_EQ(P.record(0x100), 10u);
  // Re-scanning the same 10 lines adds no *new* distinct lines.
  for (std::uint64_t L = 0; L != 10; ++L)
    P.record(0x200 + L);
  EXPECT_EQ(P.record(0x100), 10u);
}

//===----------------------------------------------------------------------===//
// Tiny deterministic machine + program
//===----------------------------------------------------------------------===//

/// Two cores under one shared L2. L1: 2 sets x 1 way x 64 B = 128 B;
/// L2: 4 sets x 2 ways x 64 B = 512 B. Memory at 100 cycles.
CacheTopology makeTinyTopology() {
  CacheTopology T("tiny2", 100);
  CacheParams L2;
  L2.SizeBytes = 512;
  L2.Assoc = 2;
  L2.LineSize = 64;
  L2.LatencyCycles = 10;
  const unsigned L2Id = T.addCache(T.rootId(), 2, L2);
  CacheParams L1;
  L1.SizeBytes = 128;
  L1.Assoc = 1;
  L1.LineSize = 64;
  L1.LatencyCycles = 1;
  T.addCache(L2Id, 1, L1);
  T.addCache(L2Id, 1, L1);
  T.finalize();
  return T;
}

/// a[64] of 8 B (8 lines); 16 iterations; each accesses a[4*i % 64] (a
/// strided walk) and a[0] (a line every core keeps re-touching).
Program makeTinyProgram() {
  Program P;
  P.addArray(ArrayDecl("a", {64}, 8));
  LoopNest Nest("tiny", 1);
  Nest.addConstantDim(0, 15);
  Nest.setComputeCyclesPerIteration(1);
  AffineExpr Strided(1);
  Strided.setCoeff(0, 4);
  Nest.addAccess(ArrayAccess(0, {Strided}, /*IsWrite=*/false,
                             /*WrapSubscripts=*/true));
  AffineExpr Fixed(1);
  Nest.addAccess(ArrayAccess(0, {Fixed}, /*IsWrite=*/false,
                             /*WrapSubscripts=*/false));
  P.Nests.push_back(std::move(Nest));
  return P;
}

/// Contiguous halves, \p NumRounds barrier rounds of equal size.
Mapping makeBlockMapping(std::uint32_t NumIterations, unsigned NumCores,
                         unsigned NumRounds) {
  Mapping Map;
  Map.StrategyName = "block";
  Map.NumCores = NumCores;
  Map.CoreIterations.resize(NumCores);
  for (std::uint32_t I = 0; I != NumIterations; ++I)
    Map.CoreIterations[I * NumCores / NumIterations].push_back(I);
  Map.NumRounds = NumRounds;
  Map.BarriersRequired = NumRounds > 1;
  Map.RoundEnd.resize(NumCores);
  for (unsigned C = 0; C != NumCores; ++C) {
    const std::uint32_t N = Map.CoreIterations[C].size();
    for (unsigned R = 1; R <= NumRounds; ++R)
      Map.RoundEnd[C].push_back(N * R / NumRounds);
  }
  return Map;
}

//===----------------------------------------------------------------------===//
// Ring buffer overflow
//===----------------------------------------------------------------------===//

TEST(TraceLogTest, RingOverflowDropsOldestWithCount) {
  TraceConfig Config;
  Config.RingCapacity = 8;
  TraceLog Log(Config);
  CacheTopology Topo = makeTinyTopology();
  Log.bind(Topo);
  Log.beginNest();
  Log.setRound(0);

  // 10 iteration spans on core 0 emit 20 events into an 8-slot ring.
  for (std::uint32_t I = 0; I != 10; ++I)
    Log.iterationSpan(/*Core=*/0, I, /*StartCycle=*/10 * I,
                      /*EndCycle=*/10 * I + 5);

  EXPECT_EQ(Log.totalEvents(), 20u);
  EXPECT_EQ(Log.droppedEvents(), 12u);
  std::vector<TraceEvent> Events = Log.events();
  ASSERT_EQ(Events.size(), 8u);
  // The survivors are the newest 8 events, oldest first: the IterBegin/
  // IterEnd pairs of iterations 6..9.
  for (std::size_t I = 0; I != Events.size(); ++I) {
    const std::uint32_t Iter = 6 + static_cast<std::uint32_t>(I / 2);
    EXPECT_EQ(Events[I].Kind, I % 2 == 0 ? TraceEventKind::IterBegin
                                         : TraceEventKind::IterEnd);
    EXPECT_EQ(Events[I].Payload, Iter) << "event " << I;
    EXPECT_EQ(Events[I].Cycle, 10 * Iter + (I % 2 == 0 ? 0 : 5));
  }
  // The aggregates are exact regardless of the drops.
  std::vector<std::vector<TraceLog::RoundSpan>> Spans = Log.roundSpans();
  ASSERT_EQ(Spans.size(), 2u);
  ASSERT_EQ(Spans[0].size(), 1u);
  EXPECT_EQ(Spans[0][0].Iterations, 10u);
  EXPECT_EQ(Spans[0][0].StartCycle, 0u);
  EXPECT_EQ(Spans[0][0].EndCycle, 95u);
  EXPECT_FALSE(Spans[1][0].active());
}

//===----------------------------------------------------------------------===//
// Engine independence + counter reconciliation
//===----------------------------------------------------------------------===//

void expectSameEvents(const TraceLog &A, const TraceLog &B) {
  EXPECT_EQ(A.totalEvents(), B.totalEvents());
  EXPECT_EQ(A.droppedEvents(), B.droppedEvents());
  std::vector<TraceEvent> EA = A.events();
  std::vector<TraceEvent> EB = B.events();
  ASSERT_EQ(EA.size(), EB.size());
  for (std::size_t I = 0; I != EA.size(); ++I) {
    EXPECT_EQ(EA[I].Cycle, EB[I].Cycle) << "event " << I;
    EXPECT_EQ(EA[I].Payload, EB[I].Payload) << "event " << I;
    EXPECT_EQ(EA[I].Core, EB[I].Core) << "event " << I;
    EXPECT_EQ(EA[I].Node, EB[I].Node) << "event " << I;
    EXPECT_EQ(EA[I].Kind, EB[I].Kind) << "event " << I;
  }
}

void expectCountsReconcile(const TraceLog &Log, const ExecutionResult &R) {
  // Exactly the PR 3 per-cache statistics, re-derived from events.
  for (const CacheNodeStats &C : R.PerCache) {
    const TraceLog::NodeCounts &N = Log.nodeCounts()[C.NodeId];
    EXPECT_EQ(N.Hits, C.Hits) << "node " << C.NodeId;
    EXPECT_EQ(N.Hits + N.Misses, C.Lookups) << "node " << C.NodeId;
    EXPECT_EQ(N.Evictions, C.Evictions) << "node " << C.NodeId;
    EXPECT_EQ(N.Fills, N.Misses) << "node " << C.NodeId;
  }
  EXPECT_EQ(Log.nodeCounts()[0].Misses, R.Stats.MemoryAccesses);
}

TEST(TraceLogTest, FastAndReferenceEnginesEmitIdenticalEvents) {
  Program Prog = makeTinyProgram();
  CacheTopology Topo = makeTinyTopology();
  IterationTable Table = Prog.Nests[0].enumerate();
  AddressMap Addrs(Prog.Arrays);
  Mapping Map = makeBlockMapping(static_cast<std::uint32_t>(Table.size()),
                                 Topo.numCores(), /*NumRounds=*/2);
  ASSERT_TRUE(Map.validate());

  MachineSim FastSim(Topo);
  TraceLog FastLog;
  FastSim.setTraceLog(&FastLog);
  ExecutionResult Fast = executeMapping(FastSim, Prog, 0, Table, Map, Addrs);

  MachineSim RefSim(Topo);
  TraceLog RefLog;
  RefSim.setTraceLog(&RefLog);
  ExecutionResult Ref =
      executeMappingReference(RefSim, Prog, 0, Table, Map, Addrs);

  expectSameEvents(FastLog, RefLog);
  expectCountsReconcile(FastLog, Fast);
  expectCountsReconcile(RefLog, Ref);

  EXPECT_GT(FastLog.totalEvents(), 0u);
  EXPECT_EQ(FastLog.numRounds(), 2u);
  // Barriers separate rounds, so a 2-round run records exactly one.
  ASSERT_EQ(FastLog.barriers().size(), 1u);
  EXPECT_EQ(FastLog.barriers()[0].Round, 0u);
  EXPECT_LE(FastLog.barriers()[0].Cycle, Fast.TotalCycles);
}

TEST(TraceLogTest, TracingDoesNotPerturbTheSimulation) {
  Program Prog = makeTinyProgram();
  CacheTopology Topo = makeTinyTopology();
  IterationTable Table = Prog.Nests[0].enumerate();
  AddressMap Addrs(Prog.Arrays);
  Mapping Map = makeBlockMapping(static_cast<std::uint32_t>(Table.size()),
                                 Topo.numCores(), /*NumRounds=*/1);

  MachineSim Plain(Topo);
  ExecutionResult Untraced = executeMapping(Plain, Prog, 0, Table, Map, Addrs);

  MachineSim Traced(Topo);
  TraceLog Log;
  Traced.setTraceLog(&Log);
  ExecutionResult WithTrace = executeMapping(Traced, Prog, 0, Table, Map,
                                             Addrs);

  EXPECT_EQ(Untraced.TotalCycles, WithTrace.TotalCycles);
  EXPECT_EQ(Untraced.Stats.MemoryAccesses, WithTrace.Stats.MemoryAccesses);
  EXPECT_EQ(Untraced.Stats.TotalAccesses, WithTrace.Stats.TotalAccesses);
  ASSERT_EQ(Untraced.PerCache.size(), WithTrace.PerCache.size());
  for (std::size_t I = 0; I != Untraced.PerCache.size(); ++I) {
    EXPECT_EQ(Untraced.PerCache[I].Lookups, WithTrace.PerCache[I].Lookups);
    EXPECT_EQ(Untraced.PerCache[I].Hits, WithTrace.PerCache[I].Hits);
    EXPECT_EQ(Untraced.PerCache[I].Evictions,
              WithTrace.PerCache[I].Evictions);
  }
}

TEST(TraceLogTest, SharingFlowAttributesFillerToConsumer) {
  // Round 0: core 0 touches a[0], filling L1(core 0) and the shared L2.
  // Round 1: core 1 touches a[0]: L1(core 1) misses, L2 hits — a
  // cross-core horizontal reuse attributed filler 0 -> consumer 1.
  Program P;
  P.addArray(ArrayDecl("a", {64}, 8));
  LoopNest Nest("shared", 1);
  Nest.addConstantDim(0, 1); // two iterations
  AffineExpr Fixed(1);       // both read a[0]
  Nest.addAccess(ArrayAccess(0, {Fixed}));
  P.Nests.push_back(std::move(Nest));

  CacheTopology Topo = makeTinyTopology();
  IterationTable Table = P.Nests[0].enumerate();
  AddressMap Addrs(P.Arrays);

  Mapping Map;
  Map.StrategyName = "handoff";
  Map.NumCores = 2;
  Map.CoreIterations = {{0}, {1}};
  Map.NumRounds = 2;
  Map.BarriersRequired = true;
  Map.RoundEnd = {{1, 1}, {0, 1}}; // core 0 in round 0, core 1 in round 1
  ASSERT_TRUE(Map.validate());

  MachineSim Sim(Topo);
  TraceLog Log;
  Sim.setTraceLog(&Log);
  executeMapping(Sim, P, 0, Table, Map, Addrs);

  // Node 1 is the shared L2 (nodes: 0 memory, 1 L2, 2-3 L1s).
  const std::vector<std::uint64_t> &M = Log.sharingMatrix(1);
  ASSERT_EQ(M.size(), 4u);
  EXPECT_EQ(M[0 * 2 + 1], 1u); // filled by core 0, consumed by core 1
  EXPECT_EQ(M[1 * 2 + 0], 0u);
  EXPECT_EQ(M[0 * 2 + 0], 0u);
  EXPECT_EQ(M[1 * 2 + 1], 0u);
  // Private caches carry no matrix.
  EXPECT_TRUE(Log.sharingMatrix(2).empty());
  EXPECT_TRUE(Log.sharingMatrix(3).empty());
}

//===----------------------------------------------------------------------===//
// Golden `cta trace` rendering
//===----------------------------------------------------------------------===//

TEST(TraceReportTest, GoldenRenderingOnTinyMachine) {
  Program Prog = makeTinyProgram();
  CacheTopology Topo = makeTinyTopology();
  IterationTable Table = Prog.Nests[0].enumerate();
  AddressMap Addrs(Prog.Arrays);
  Mapping Map = makeBlockMapping(static_cast<std::uint32_t>(Table.size()),
                                 Topo.numCores(), /*NumRounds=*/2);

  MachineSim Sim(Topo);
  TraceLog Log;
  Sim.setTraceLog(&Log);
  executeMapping(Sim, Prog, 0, Table, Map, Addrs);

  TraceReportOptions Opts;
  Opts.TimelineWidth = 32;
  Opts.TopBlocks = 3;
  std::string Report = renderTraceReport(Log, &Prog, Opts);
  const char *Golden =
      R"(trace report: machine tiny2 (2 cores, 3 nodes)
events: 128 collected, 0 dropped from the ring (aggregates below are exact)
== timeline (2 rounds, 474 cycles; digits = round mod 10) ==
  core  0 |00000000000000..1111111111111111| 8 iters
  core  1 |00000000000000001111111111111111| 8 iters
  barriers: 1 @ cycles 237
== reuse distance (LRU stack distance in lines, per level) ==
  L1 (2 instances, 2 lines each): samples=32 cold=28.1%
    reuse mass within capacity: 100.0% of 23 reuses
    d 0            ####                           13.0%
    d 1            ############################## 87.0%
  L2 (1 instance, 8 lines each): samples=17 cold=47.1%
    reuse mass within capacity: 100.0% of 9 reuses
    d 1            ########################       44.4%
    d 2-3          ############################## 55.6%
== sharing flow (filler core -> consumer core, shared caches) ==
  L2: 9 attributed hits, 4 cross-core (44.4%)
      to:   0   1
  from  0:   3   4
  from  1:   0   2
== top data granules by miss pressure (64 B each) ==
   1. 0x00001000  a[elem 0]            misses=8          mem=1
   2. 0x00001080  a[elem 16]           misses=3          mem=1
   3. 0x00001100  a[elem 32]           misses=3          mem=1
== per-cache event totals ==
  node level cores        hits      misses   evictions       fills
     1     2     2           9           8           0           8
     2     1     1           9           7           5           7
     3     1     1           6          10           8          10
  memory accesses: 8
)";
  EXPECT_EQ(Report, Golden);
}

//===----------------------------------------------------------------------===//
// Log lifetime
//===----------------------------------------------------------------------===//

/// The cta-trace-v1 rules of scripts/check_artifact_schema.py, plus one
/// otherData.caches entry per cache node of \p Machine.
void expectValidChromeTrace(const std::string &Json,
                            const CacheTopology &Machine) {
  using serve::JsonValue;
  std::string Err;
  std::optional<JsonValue> Doc = serve::parseJson(Json, &Err);
  ASSERT_TRUE(Doc.has_value()) << Err;
  const JsonValue *Events = Doc->get("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  ASSERT_TRUE(Doc->get("displayTimeUnit") &&
              Doc->get("displayTimeUnit")->isString());
  const JsonValue *Other = Doc->get("otherData");
  ASSERT_TRUE(Other && Other->isObject());
  EXPECT_EQ(Other->get("schema")->asString(), "cta-trace-v1");
  for (const char *Key : {"workload", "machine", "strategy"})
    EXPECT_TRUE(Other->get(Key) && Other->get(Key)->isString()) << Key;
  for (const char *Key : {"total_events", "dropped_events", "ring_capacity",
                          "rounds", "memory_accesses"})
    EXPECT_TRUE(Other->get(Key) && Other->get(Key)->isNumber()) << Key;
  const JsonValue *Caches = Other->get("caches");
  ASSERT_TRUE(Caches && Caches->isArray());
  EXPECT_EQ(Caches->Arr.size(), Machine.numNodes() - 1);
  for (const JsonValue &C : Caches->Arr) {
    for (const char *Key :
         {"node", "level", "hits", "misses", "evictions", "fills"})
      ASSERT_TRUE(C.get(Key) && C.get(Key)->isNumber()) << Key;
    // Inclusive fill-on-miss: every miss fills, only fills evict.
    EXPECT_EQ(C.get("fills")->Num, C.get("misses")->Num);
    EXPECT_LE(C.get("evictions")->Num, C.get("fills")->Num);
  }
  for (const JsonValue &Ev : Events->Arr) {
    ASSERT_TRUE(Ev.isObject());
    const std::string Ph = Ev.get("ph") ? Ev.get("ph")->asString() : "";
    ASSERT_TRUE(Ph == "X" || Ph == "i" || Ph == "M") << Ph;
    EXPECT_TRUE(Ev.get("name") && Ev.get("name")->isString());
    EXPECT_TRUE(Ev.get("pid") && Ev.get("pid")->isNumber());
    EXPECT_TRUE(Ev.get("tid") && Ev.get("tid")->isNumber());
    if (Ph == "M") {
      EXPECT_TRUE(Ev.get("args") && Ev.get("args")->isObject());
      continue;
    }
    EXPECT_TRUE(Ev.get("ts") && Ev.get("ts")->isNumber());
    if (Ph == "X")
      EXPECT_TRUE(Ev.get("dur") && Ev.get("dur")->isNumber());
    else
      EXPECT_TRUE(Ev.get("s") && Ev.get("s")->isString());
  }
}

TEST(TraceLogLifetimeTest, RendersAfterTheTasksAreGone) {
  // The executor simulates a copy of each task, and that copy is freed
  // when the run finishes; `cta trace` renders the logs afterwards. The
  // log must therefore own the topology it renders.
  const CacheTopology Machine = makeNehalem().scaledCapacity(1.0 / 32);
  for (unsigned Jobs : {1u, 2u}) {
    TraceConfig Config;
    Config.RingCapacity = 1u << 12; // keeps the exported JSON small
    std::shared_ptr<TraceLog> Log = std::make_shared<TraceLog>(Config);
    std::vector<obs::PhaseRecord> Phases;
    {
      std::vector<RunTask> Tasks;
      Tasks.push_back(makeRunTask(makeWorkload("cg"), Machine,
                                  Strategy::TopologyAware, MappingOptions{},
                                  "cg/traced"));
      Tasks[0].TraceSink = Log;
      ExecConfig Exec;
      Exec.Jobs = Jobs;
      ExperimentRunner Runner(Exec);
      std::vector<RunResult> Results = Runner.run(Tasks);
      ASSERT_EQ(Results.size(), 1u);
      Phases = Results[0].Phases;
    }

    ASSERT_TRUE(Log->bound());
    EXPECT_EQ(Log->topology(), Machine);
    const std::string Report = renderTraceReport(*Log);
    EXPECT_NE(Report.find("trace report: machine " + Machine.name() + " (" +
                          std::to_string(Machine.numCores()) + " cores, " +
                          std::to_string(Machine.numNodes() - 1) + " nodes)"),
              std::string::npos)
        << Report.substr(0, 200);
    expectValidChromeTrace(
        renderChromeTrace(*Log, Phases, {"cg", "nehalem", "TopologyAware"}),
        Machine);
  }
}

} // namespace
