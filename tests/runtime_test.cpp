//===- tests/runtime_test.cpp - Adaptive runtime scheduling tests ---------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
// Covers the runtime/ subsystem end to end: rebalance() as a pure
// function over synthetic per-core loads, the disabled-core fold, the adaptive
// executor's win over the static mapping on a degraded machine (and its
// within-noise behaviour on a uniform one), the fallback on dependence
// workloads, the fingerprint extensions, and byte-identical determinism
// across --jobs counts. The --jobs sweep doubles as the thread-sanitizer
// stress case: every adaptive task runs concurrently under its own run
// sink, bumping the shared runtime.adapt.* counters.
//
//===----------------------------------------------------------------------===//

#include "driver/Experiment.h"
#include "exec/ExperimentRunner.h"
#include "exec/Fingerprint.h"
#include "exec/RunCache.h"
#include "runtime/AdaptiveExecutor.h"
#include "topo/Parse.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace cta;
using namespace cta::runtime;

namespace {

//===----------------------------------------------------------------------===//
// Fixtures and helpers
//===----------------------------------------------------------------------===//

/// Two cores under one shared L2: every pair is same-domain.
CacheTopology pairTopology() {
  std::string Err;
  std::optional<CacheTopology> T =
      parseTopology("pair", "mem:100 l2:64K:8:10 { core core }", &Err);
  EXPECT_TRUE(T.has_value()) << Err;
  return *T;
}

/// A group of \p Size fresh iteration ids starting at \p First.
IterationGroup makeGroup(std::uint32_t First, std::uint32_t Size) {
  IterationGroup G;
  for (std::uint32_t I = 0; I != Size; ++I)
    G.Iterations.push_back(First + I);
  return G;
}

/// The paper's Dunnington at 1/32 capacity with core 0 running at half
/// speed — the degraded scenario adaptive-greedy must win on.
CacheTopology degradedDunnington() {
  CacheTopology T = makeDunnington().scaledCapacity(1.0 / 32);
  T.setCoreSpeed(0, 50);
  return T;
}

//===----------------------------------------------------------------------===//
// rebalance() unit tests (synthetic per-core loads, no simulator)
//===----------------------------------------------------------------------===//

TEST(AdaptivePolicyTest, GreedyShedsWorkFromProjectedSlowestCore) {
  CacheTopology Topo = pairTopology();
  // Core 0 observed 100 cycles/iter and still has two 10-iteration groups
  // queued; core 1 observed 50 cycles/iter and is idle. Projected finishes
  // are 3000 vs 500, so greedy hands both groups to core 1 and stops when
  // a third move would no longer beat the peak.
  std::vector<IterationGroup> Groups = {makeGroup(0, 10), makeGroup(10, 10)};
  std::vector<std::vector<std::uint32_t>> Pending = {{0, 1}, {}};
  std::vector<CoreLoad> Cores = {{1000, 10}, {500, 10}};

  std::vector<Migration> Plan = rebalance(Cores, Pending, Groups, Topo);
  ASSERT_EQ(Plan.size(), 2u);
  for (const Migration &M : Plan) {
    EXPECT_EQ(M.From, 0u);
    EXPECT_EQ(M.To, 1u);
  }
  // The tail group moves first.
  EXPECT_EQ(Plan[0].Group, 1u);
  EXPECT_EQ(Plan[1].Group, 0u);
}

TEST(AdaptivePolicyTest, GreedyPlansNothingOnBalancedFeedback) {
  CacheTopology Topo = pairTopology();
  std::vector<IterationGroup> Groups = {makeGroup(0, 10), makeGroup(10, 10)};
  std::vector<std::vector<std::uint32_t>> Pending = {{0}, {1}};
  std::vector<CoreLoad> Cores = {{1000, 10}, {1000, 10}};

  EXPECT_TRUE(rebalance(Cores, Pending, Groups, Topo).empty());
}

TEST(AdaptivePolicyTest, GreedyNeverTargetsDisabledCores) {
  std::string Err;
  std::optional<CacheTopology> Topo = parseTopology(
      "trio", "mem:100 l2:64K:8:10 { core core core:disabled }", &Err);
  ASSERT_TRUE(Topo.has_value()) << Err;
  // Core 2 is disabled: even though it is idle with projected finish 0,
  // no group may move there.
  std::vector<IterationGroup> Groups = {makeGroup(0, 10), makeGroup(10, 10)};
  std::vector<std::vector<std::uint32_t>> Pending = {{0, 1}, {}, {}};
  std::vector<CoreLoad> Cores = {{1000, 10}, {500, 10}, {0, 0}};

  std::vector<Migration> Plan = rebalance(Cores, Pending, Groups, *Topo);
  EXPECT_FALSE(Plan.empty());
  for (const Migration &M : Plan)
    EXPECT_NE(M.To, 2u);
}

//===----------------------------------------------------------------------===//
// Disabled-core fold
//===----------------------------------------------------------------------===//

CacheTopology quadWithDisabledCore0() {
  std::string Err;
  std::optional<CacheTopology> T = parseTopology(
      "quad", "mem:100 l3:1M:16:36 { l2:64K:8:10 { core:disabled core } "
              "l2:64K:8:10 { core core } }",
      &Err);
  EXPECT_TRUE(T.has_value()) << Err;
  return *T;
}

TEST(RemapDisabledTest, FoldsWorkOntoDomainSibling) {
  CacheTopology Topo = quadWithDisabledCore0();
  Mapping Map;
  Map.StrategyName = "test";
  Map.NumCores = 4;
  Map.CoreIterations = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};

  remapDisabledCores(Map, Topo);

  // Core 0's slice lands on core 1 (shared L2 beats the L3-distant pair),
  // appended after core 1's own work; nothing is lost or duplicated.
  EXPECT_TRUE(Map.CoreIterations[0].empty());
  EXPECT_EQ(Map.CoreIterations[1],
            (std::vector<std::uint32_t>{2, 3, 0, 1}));
  EXPECT_EQ(Map.CoreIterations[2], (std::vector<std::uint32_t>{4, 5}));
  EXPECT_EQ(Map.CoreIterations[3], (std::vector<std::uint32_t>{6, 7}));
  EXPECT_EQ(Map.totalIterations(), 8u);
  EXPECT_TRUE(Map.coversExactly(8));
}

TEST(RemapDisabledTest, PreservesRoundStructure) {
  CacheTopology Topo = quadWithDisabledCore0();
  Mapping Map;
  Map.StrategyName = "test";
  Map.NumCores = 4;
  Map.BarriersRequired = true;
  Map.NumRounds = 2;
  Map.CoreIterations = {{0, 4}, {1, 5}, {2, 6}, {3, 7}};
  Map.RoundEnd = {{1, 2}, {1, 2}, {1, 2}, {1, 2}};

  remapDisabledCores(Map, Topo);

  // The fold happens round by round: core 0's round-0 iteration may not
  // leak past the barrier into core 1's round 1.
  EXPECT_TRUE(Map.CoreIterations[0].empty());
  EXPECT_EQ(Map.RoundEnd[0], (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(Map.CoreIterations[1],
            (std::vector<std::uint32_t>{1, 0, 5, 4}));
  EXPECT_EQ(Map.RoundEnd[1], (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(Map.RoundEnd[2], (std::vector<std::uint32_t>{1, 2}));
  EXPECT_TRUE(Map.coversExactly(8));
  std::string ValidateErr;
  EXPECT_TRUE(Map.validate(&ValidateErr)) << ValidateErr;
}

TEST(RemapDisabledTest, NoOpOnUniformTopology) {
  std::string Err;
  std::optional<CacheTopology> Topo =
      parseTopology("pair", "mem:100 l2:64K:8:10 { core core }", &Err);
  ASSERT_TRUE(Topo.has_value()) << Err;
  Mapping Map;
  Map.NumCores = 2;
  Map.CoreIterations = {{0}, {1}};
  Mapping Before = Map;
  remapDisabledCores(Map, *Topo);
  EXPECT_EQ(Map.CoreIterations, Before.CoreIterations);
}

TEST(RemapDisabledDeathTest, AllCoresDisabledIsFatal) {
  std::string Err;
  std::optional<CacheTopology> Topo = parseTopology(
      "dead", "mem:100 l2:64K:8:10 { core:disabled core:disabled }", &Err);
  ASSERT_TRUE(Topo.has_value()) << Err;
  Mapping Map;
  Map.NumCores = 2;
  Map.CoreIterations = {{0}, {1}};
  EXPECT_DEATH(remapDisabledCores(Map, *Topo), "every core");
}

TEST(RemapDisabledDeathTest, PointToPointScheduleIsFatal) {
  CacheTopology Topo = quadWithDisabledCore0();
  Mapping Map;
  Map.NumCores = 4;
  Map.CoreIterations = {{0}, {1}, {2}, {3}};
  Map.Sync = SyncMode::PointToPoint;
  Map.PointDeps.push_back({0, 1, 1, 0});
  EXPECT_DEATH(remapDisabledCores(Map, Topo), "point-to-point");
}

TEST(RemapDisabledDeathTest, CoreCountMismatchIsFatal) {
  CacheTopology Topo = quadWithDisabledCore0();
  Mapping Map;
  Map.NumCores = 2;
  Map.CoreIterations = {{0}, {1}};
  EXPECT_DEATH(remapDisabledCores(Map, Topo), "core count");
}

//===----------------------------------------------------------------------===//
// End-to-end: adaptive vs static through the full driver path
//===----------------------------------------------------------------------===//

TEST(AdaptiveEndToEndTest, AdaptiveBeatsStaticOnDegradedMachine) {
  Program Prog = makeWorkload("cg");
  CacheTopology Degraded = degradedDunnington();
  MappingOptions Opts;

  const std::uint64_t Static =
      runOnMachine(Prog, Degraded, Strategy::TopologyAware, Opts).Cycles;
  const std::uint64_t Greedy =
      runOnMachine(Prog, Degraded, Strategy::AdaptiveGreedy, Opts).Cycles;

  // The static mapping serializes on the half-speed core; the greedy
  // rebalance sheds its pending groups after the first commit point. The
  // CI gate demands >= 10%; the observed win is ~40%, so 0.9x leaves
  // margin for mapper evolution without ever letting a regression through.
  ASSERT_GT(Static, 0u);
  EXPECT_LT(Greedy, Static - Static / 10)
      << "adaptive-greedy " << Greedy << " vs static " << Static;
}

TEST(AdaptiveEndToEndTest, AdaptiveStaysWithinNoiseOnUniformMachine) {
  Program Prog = makeWorkload("cg");
  CacheTopology Dun = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;

  const std::uint64_t Static =
      runOnMachine(Prog, Dun, Strategy::TopologyAware, Opts).Cycles;
  const std::uint64_t Greedy =
      runOnMachine(Prog, Dun, Strategy::AdaptiveGreedy, Opts).Cycles;

  // On a uniform machine greedy may still rebalance genuine load imbalance
  // (it is not a no-op), but it must never cost more than a few percent
  // against the static topology-aware mapping.
  ASSERT_GT(Static, 0u);
  const std::uint64_t Tolerance = Static / 20; // 5%
  EXPECT_NEAR(static_cast<double>(Greedy), static_cast<double>(Static),
              static_cast<double>(Tolerance));
}

TEST(AdaptiveEndToEndTest, DependenceWorkloadsFallBackToStaticExecution) {
  // applu carries loop dependences: its schedule is not a group-structured
  // single-round barrier-free mapping, so the adaptive executor must fall
  // back to executeTrace and reproduce the static cycles exactly.
  Program Prog = makeWorkload("applu");
  CacheTopology Dun = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;

  const std::uint64_t Static =
      runOnMachine(Prog, Dun, Strategy::TopologyAware, Opts).Cycles;
  const std::uint64_t Adaptive =
      runOnMachine(Prog, Dun, Strategy::AdaptiveGreedy, Opts).Cycles;
  EXPECT_EQ(Adaptive, Static);
}

TEST(AdaptiveEndToEndTest, CountersReachTheRunResult) {
  ExecConfig Config;
  Config.Jobs = 1;
  ExperimentRunner Runner(Config);

  RunResult Adaptive = Runner.runOne(makeRunTask(
      makeWorkload("cg"), degradedDunnington(), Strategy::AdaptiveGreedy,
      MappingOptions{}, "cg/adaptive-greedy"));
  EXPECT_GE(Adaptive.Counters["runtime.adapt.rounds"], 1u);
  EXPECT_GE(Adaptive.Counters["runtime.adapt.remaps"], 1u);
  EXPECT_GE(Adaptive.Counters["runtime.adapt.migrations"], 1u);
  EXPECT_EQ(Adaptive.Counters.count("runtime.adapt.fallbacks"), 0u);
  // No policy-specific counter rides along, not even as zero.
  EXPECT_EQ(Adaptive.Counters.count("runtime.adapt.weight_updates"), 0u);

  RunResult Fallback = Runner.runOne(
      makeRunTask(makeWorkload("applu"), degradedDunnington(),
                  Strategy::AdaptiveGreedy, MappingOptions{}, "applu/fb"));
  EXPECT_GE(Fallback.Counters["runtime.adapt.fallbacks"], 1u);
  EXPECT_EQ(Fallback.Counters.count("runtime.adapt.migrations"), 0u);
}

//===----------------------------------------------------------------------===//
// Fingerprint extensions
//===----------------------------------------------------------------------===//

TEST(AdaptiveFingerprintTest, AdaptiveInputsMoveTheKey) {
  Program Prog = makeWorkload("cg");
  CacheTopology Dun = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;

  const std::uint64_t StaticKey =
      runFingerprint(Prog, Dun, nullptr, Strategy::TopologyAware, Opts);
  const std::uint64_t GreedyKey =
      runFingerprint(Prog, Dun, nullptr, Strategy::AdaptiveGreedy, Opts);
  EXPECT_NE(StaticKey, GreedyKey);

  // AdaptInterval changes simulated cycles, so it must move the key.
  MappingOptions Longer = Opts;
  Longer.AdaptInterval = Opts.AdaptInterval + 4;
  EXPECT_NE(GreedyKey, runFingerprint(Prog, Dun, nullptr,
                                      Strategy::AdaptiveGreedy, Longer));

  // A degraded core changes the machine: same structure, different key.
  EXPECT_NE(StaticKey, runFingerprint(Prog, degradedDunnington(), nullptr,
                                      Strategy::TopologyAware, Opts));
}

//===----------------------------------------------------------------------===//
// Determinism across execution configurations
//===----------------------------------------------------------------------===//

GridSpec adaptiveGrid() {
  GridSpec Spec;
  Spec.Workloads = {"cg", "sp"};
  Spec.Machines = {makeDunnington().scaledCapacity(1.0 / 32),
                   degradedDunnington()};
  Spec.Strategies = {Strategy::AdaptiveGreedy};
  return Spec;
}

std::vector<std::string> runGridBytes(const GridSpec &Spec, unsigned Jobs) {
  ExecConfig Config;
  Config.Jobs = Jobs;
  ExperimentRunner Runner(Config);
  std::vector<std::string> Out;
  for (const RunResult &R : Runner.run(Spec))
    Out.push_back(deterministicBytes(R));
  return Out;
}

TEST(AdaptiveDeterminismTest, JobsCountNeverChangesResults) {
  // Jobs=4 and Jobs=0 (hardware threads) run the four adaptive tasks
  // concurrently, each bumping the shared runtime.adapt.* counters from
  // its own run sink — this test is the TSan stress case for runtime/.
  GridSpec Spec = adaptiveGrid();
  const std::vector<std::string> Baseline = runGridBytes(Spec, /*Jobs=*/1);
  ASSERT_EQ(Baseline.size(), Spec.numTasks());

  for (unsigned Jobs : {4u, 0u}) {
    std::vector<std::string> Got = runGridBytes(Spec, Jobs);
    ASSERT_EQ(Got.size(), Baseline.size());
    for (std::size_t I = 0; I != Baseline.size(); ++I)
      EXPECT_EQ(Got[I], Baseline[I])
          << "--jobs " << Jobs << " grid slot " << I;
  }
}

} // namespace
