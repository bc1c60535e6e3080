//===- tests/exec_test.cpp - exec/ subsystem tests ------------------------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
// Covers the three pillars of the exec/ subsystem: the work-stealing
// ThreadPool (correctness under load, nesting, inline fallback), the
// determinism guarantee (1-thread and N-thread grids produce
// byte-identical results), and the persistent RunCache (round-trip,
// corruption tolerance, warm reruns with zero simulator invocations).
//
//===----------------------------------------------------------------------===//

#include "exec/ExperimentRunner.h"
#include "exec/Fingerprint.h"
#include "exec/RunCache.h"
#include "serve/Server.h"
#include "support/ThreadPool.h"
#include "sim/TraceLog.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

using namespace cta;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool / TaskGroup / parallelFor
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  TaskGroup Group(Pool);
  std::atomic<int> Count{0};
  for (int I = 0; I != 1000; ++I)
    Group.spawn([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Group.wait();
  EXPECT_EQ(Count.load(), 1000);
}

TEST(ThreadPoolTest, NestedTaskGroupsDoNotDeadlock) {
  // Every pool task spawns a child group and waits on it; with blocking
  // waits a 2-thread pool would deadlock, with helping waits it must not.
  ThreadPool Pool(2);
  TaskGroup Outer(Pool);
  std::atomic<int> Leaves{0};
  for (int I = 0; I != 16; ++I)
    Outer.spawn([&Pool, &Leaves] {
      TaskGroup Inner(Pool);
      for (int J = 0; J != 8; ++J)
        Inner.spawn(
            [&Leaves] { Leaves.fetch_add(1, std::memory_order_relaxed); });
      Inner.wait();
    });
  Outer.wait();
  EXPECT_EQ(Leaves.load(), 16 * 8);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Visits(1024);
  parallelFor(&Pool, 0, Visits.size(), [&Visits](std::size_t I) {
    Visits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t I = 0; I != Visits.size(); ++I)
    EXPECT_EQ(Visits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForInlineWithoutPool) {
  // Null pool = serial execution on the calling thread, in order.
  std::vector<std::size_t> Order;
  parallelFor(nullptr, 3, 8,
              [&Order](std::size_t I) { Order.push_back(I); });
  EXPECT_EQ(Order, (std::vector<std::size_t>{3, 4, 5, 6, 7}));
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool Pool(2);
  bool Ran = false;
  parallelFor(&Pool, 5, 5, [&Ran](std::size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST(FingerprintTest, StableAndSensitive) {
  Program Prog = makeWorkload("cg");
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;

  std::uint64_t Key =
      runFingerprint(Prog, Topo, nullptr, Strategy::TopologyAware, Opts);
  // Same inputs, same key.
  EXPECT_EQ(Key, runFingerprint(Prog, Topo, nullptr, Strategy::TopologyAware,
                                Opts));
  // Any input change must move the key.
  EXPECT_NE(Key,
            runFingerprint(Prog, Topo, nullptr, Strategy::Base, Opts));
  MappingOptions Tweaked = Opts;
  Tweaked.Alpha = Opts.Alpha + 0.25;
  EXPECT_NE(Key, runFingerprint(Prog, Topo, nullptr, Strategy::TopologyAware,
                                Tweaked));
  CacheTopology Other = makeNehalem().scaledCapacity(1.0 / 32);
  EXPECT_NE(Key, runFingerprint(Prog, Other, nullptr,
                                Strategy::TopologyAware, Opts));
  Program OtherProg = makeWorkload("applu");
  EXPECT_NE(Key, runFingerprint(OtherProg, Topo, nullptr,
                                Strategy::TopologyAware, Opts));
  // A cross-machine run keys differently from a native run.
  EXPECT_NE(Key, runFingerprint(Prog, Topo, &Other, Strategy::TopologyAware,
                                Opts));
}

/// Reconstructs the fingerprint an older cache format version would have
/// produced for the same inputs (same feed order as runFingerprint, salt
/// forced to \p Version). The trailing source content hash only exists
/// from version 4 on.
static std::uint64_t
fingerprintWithVersion(std::uint64_t Version, const Program &Prog,
                       const CacheTopology &Machine, Strategy Strat,
                       const MappingOptions &Opts) {
  HashBuilder H;
  H.add(std::string_view("cta-run"));
  H.add(Version);
  hashProgram(H, Prog);
  hashTopology(H, Machine);
  H.add(false); // no distinct runs-on machine
  H.add(static_cast<std::uint64_t>(Strat));
  hashOptions(H, Opts);
  if (Version >= 4)
    H.add(std::uint64_t{0}); // no DSL source
  if (Version >= 5)
    H.add(false); // not traced
  return H.hash();
}

TEST(FingerprintTest, FormatVersionSaltMovesEveryKey) {
  // Collapsing the adaptive runtime bumped RunCacheFormatVersion from 6
  // to 7 (adaptive-greedy results lost a counter key), so entries
  // produced by older builds can never be served. Keys minted under any
  // old salt must not collide with current keys.
  Program Prog = makeWorkload("cg");
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;

  ASSERT_EQ(RunCacheFormatVersion, 7u);
  std::uint64_t Current =
      runFingerprint(Prog, Topo, nullptr, Strategy::TopologyAware, Opts);
  EXPECT_EQ(Current, fingerprintWithVersion(7, Prog, Topo,
                                            Strategy::TopologyAware, Opts));
  EXPECT_NE(Current, fingerprintWithVersion(6, Prog, Topo,
                                            Strategy::TopologyAware, Opts));
  EXPECT_NE(Current, fingerprintWithVersion(5, Prog, Topo,
                                            Strategy::TopologyAware, Opts));
  EXPECT_NE(Current, fingerprintWithVersion(4, Prog, Topo,
                                            Strategy::TopologyAware, Opts));
  EXPECT_NE(Current, fingerprintWithVersion(3, Prog, Topo,
                                            Strategy::TopologyAware, Opts));
  EXPECT_NE(Current, fingerprintWithVersion(2, Prog, Topo,
                                            Strategy::TopologyAware, Opts));
  EXPECT_NE(Current, fingerprintWithVersion(1, Prog, Topo,
                                            Strategy::TopologyAware, Opts));
}

TEST(FingerprintTest, TracedFlagExtendsKey) {
  // A traced run (which bypasses the cache) must never share a key with
  // the untraced run of the same inputs.
  Program Prog = makeWorkload("cg");
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;

  std::uint64_t Untraced =
      runFingerprint(Prog, Topo, nullptr, Strategy::TopologyAware, Opts);
  EXPECT_EQ(Untraced, runFingerprint(Prog, Topo, nullptr,
                                     Strategy::TopologyAware, Opts, 0,
                                     /*Traced=*/false));
  EXPECT_NE(Untraced, runFingerprint(Prog, Topo, nullptr,
                                     Strategy::TopologyAware, Opts, 0,
                                     /*Traced=*/true));
}

TEST(FingerprintTest, SourceContentHashExtendsKey) {
  // Two identical Programs with different source hashes (the same .cta
  // file before and after a comment edit, say) key to different entries;
  // source hash 0 is the compiled-in-generator default.
  Program Prog = makeWorkload("cg");
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;

  std::uint64_t Default =
      runFingerprint(Prog, Topo, nullptr, Strategy::TopologyAware, Opts);
  EXPECT_EQ(Default, runFingerprint(Prog, Topo, nullptr,
                                    Strategy::TopologyAware, Opts, 0));
  EXPECT_NE(Default, runFingerprint(Prog, Topo, nullptr,
                                    Strategy::TopologyAware, Opts, 0x1234));
  EXPECT_NE(runFingerprint(Prog, Topo, nullptr, Strategy::TopologyAware,
                           Opts, 0x1234),
            runFingerprint(Prog, Topo, nullptr, Strategy::TopologyAware,
                           Opts, 0x1235));
}

//===----------------------------------------------------------------------===//
// RunCache serialization + storage
//===----------------------------------------------------------------------===//

RunResult sampleResult() {
  RunResult R{};
  R.Cycles = 123456789;
  R.MappingSeconds = 0.0417;
  R.BlockSizeBytes = 1024;
  R.Imbalance = 0.0625;
  R.NumRounds = 7;
  R.Stats.MemoryAccesses = 42;
  R.Stats.TotalAccesses = 4242;
  R.Stats.Levels[1] = {4242, 4100};
  R.Stats.Levels[2] = {142, 100};
  R.PerCache.push_back({/*NodeId=*/1, /*Level=*/1, 2121, 2050, 60});
  R.PerCache.push_back({/*NodeId=*/3, /*Level=*/2, 142, 100, 12});
  R.Sharing.TotalSharing = 9000;
  R.Sharing.Levels.push_back({/*Level=*/2, 7000, 2000});
  R.Counters["tagger.iterations"] = 4096;
  R.Counters["clusterer.merges"] = 17;
  obs::PhaseRecord P;
  P.Name = "pipeline.tag";
  P.StartSeconds = 1.25;
  P.Seconds = 0.0125;
  P.PeakRssKb = 20480;
  P.CounterDeltas["tagger.iterations"] = 4096;
  R.Phases.push_back(P);
  obs::PhaseRecord Q;
  Q.Name = "sim.execute";
  Q.StartSeconds = 1.2625;
  Q.Seconds = 0.5;
  Q.PeakRssKb = 20992;
  R.Phases.push_back(Q);
  return R;
}

TEST(RunCacheTest, SerializationRoundTrips) {
  RunResult R = sampleResult();
  std::string Text = serializeRunResult(R, 0xdeadbeef);
  std::optional<RunResult> Back = deserializeRunResult(Text, 0xdeadbeef);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Cycles, R.Cycles);
  EXPECT_EQ(Back->MappingSeconds, R.MappingSeconds); // %a is lossless
  EXPECT_EQ(Back->BlockSizeBytes, R.BlockSizeBytes);
  EXPECT_EQ(Back->Imbalance, R.Imbalance);
  EXPECT_EQ(Back->NumRounds, R.NumRounds);
  EXPECT_EQ(Back->Stats.MemoryAccesses, R.Stats.MemoryAccesses);
  EXPECT_EQ(Back->Stats.TotalAccesses, R.Stats.TotalAccesses);
  for (unsigned L = 0; L <= SimStats::MaxLevels; ++L) {
    EXPECT_EQ(Back->Stats.Levels[L].Lookups, R.Stats.Levels[L].Lookups)
        << "level " << L;
    EXPECT_EQ(Back->Stats.Levels[L].Hits, R.Stats.Levels[L].Hits)
        << "level " << L;
  }
  ASSERT_EQ(Back->PerCache.size(), R.PerCache.size());
  for (std::size_t I = 0; I != R.PerCache.size(); ++I) {
    EXPECT_EQ(Back->PerCache[I].NodeId, R.PerCache[I].NodeId);
    EXPECT_EQ(Back->PerCache[I].Level, R.PerCache[I].Level);
    EXPECT_EQ(Back->PerCache[I].Lookups, R.PerCache[I].Lookups);
    EXPECT_EQ(Back->PerCache[I].Hits, R.PerCache[I].Hits);
    EXPECT_EQ(Back->PerCache[I].Evictions, R.PerCache[I].Evictions);
  }
  EXPECT_EQ(Back->Sharing.TotalSharing, R.Sharing.TotalSharing);
  ASSERT_EQ(Back->Sharing.Levels.size(), R.Sharing.Levels.size());
  EXPECT_EQ(Back->Sharing.Levels[0].Level, R.Sharing.Levels[0].Level);
  EXPECT_EQ(Back->Sharing.Levels[0].WithinDomain,
            R.Sharing.Levels[0].WithinDomain);
  EXPECT_EQ(Back->Sharing.Levels[0].AcrossDomains,
            R.Sharing.Levels[0].AcrossDomains);
  EXPECT_EQ(Back->Counters, R.Counters);
  ASSERT_EQ(Back->Phases.size(), R.Phases.size());
  for (std::size_t I = 0; I != R.Phases.size(); ++I) {
    EXPECT_EQ(Back->Phases[I].Name, R.Phases[I].Name);
    EXPECT_EQ(Back->Phases[I].StartSeconds, R.Phases[I].StartSeconds);
    EXPECT_EQ(Back->Phases[I].Seconds, R.Phases[I].Seconds); // %a lossless
    EXPECT_EQ(Back->Phases[I].PeakRssKb, R.Phases[I].PeakRssKb);
    EXPECT_EQ(Back->Phases[I].CounterDeltas, R.Phases[I].CounterDeltas);
  }
}

TEST(RunCacheTest, DeterministicBytesZeroesMeasurements) {
  // Two runs of equal fingerprint differ only in wall-clock and RSS
  // measurements; deterministicBytes must erase exactly those.
  RunResult A = sampleResult();
  RunResult B = sampleResult();
  B.MappingSeconds = A.MappingSeconds * 3;
  B.Phases[0].StartSeconds = 123.0;
  B.Phases[0].Seconds = 99.0;
  B.Phases[1].PeakRssKb = 1;
  EXPECT_EQ(deterministicBytes(A), deterministicBytes(B));

  // ...and nothing else: a structural difference must show through.
  RunResult C = sampleResult();
  C.Phases[0].CounterDeltas["tagger.iterations"] += 1;
  EXPECT_NE(deterministicBytes(A), deterministicBytes(C));
  RunResult D = sampleResult();
  D.PerCache[0].Evictions += 1;
  EXPECT_NE(deterministicBytes(A), deterministicBytes(D));
}

TEST(RunCacheTest, RejectsWrongKeyAndGarbage) {
  RunResult R = sampleResult();
  std::string Text = serializeRunResult(R, 1);
  EXPECT_FALSE(deserializeRunResult(Text, 2).has_value());
  EXPECT_FALSE(deserializeRunResult("", 1).has_value());
  EXPECT_FALSE(deserializeRunResult("CTA-RUN v999\n", 1).has_value());
  EXPECT_FALSE(
      deserializeRunResult(Text.substr(0, Text.size() / 2), 1).has_value());
}

class TempDirTest : public ::testing::Test {
protected:
  std::string Dir;
  void SetUp() override {
    Dir = (std::filesystem::temp_directory_path() /
           ("cta-exec-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()))
              .string();
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }
};

class RunCacheDiskTest : public TempDirTest {};

TEST_F(RunCacheDiskTest, StoreThenLookup) {
  RunCache Cache(Dir);
  ASSERT_TRUE(Cache.enabled());
  EXPECT_FALSE(Cache.lookup(99).has_value());
  RunResult R = sampleResult();
  Cache.store(99, R);
  std::optional<RunResult> Back = Cache.lookup(99);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(serializeRunResult(*Back, 99), serializeRunResult(R, 99));
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.stores(), 1u);
}

TEST_F(RunCacheDiskTest, CorruptEntryIsAMiss) {
  RunCache Cache(Dir);
  Cache.store(7, sampleResult());
  // Truncate the entry on disk behind the cache's back.
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    std::ofstream Out(Entry.path(), std::ios::trunc);
    Out << "CTA-RUN v1\ngarbage\n";
  }
  EXPECT_FALSE(Cache.lookup(7).has_value());
}

TEST_F(RunCacheDiskTest, OldFormatVersionEntryMissesCleanly) {
  // An entry stored under a version-3 fingerprint must be invisible to a
  // runner keying with the current (version-4) fingerprint: a clean miss,
  // not a hit and not an error.
  Program Prog = makeWorkload("cg");
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;
  std::uint64_t OldKey =
      fingerprintWithVersion(3, Prog, Topo, Strategy::TopologyAware, Opts);
  std::uint64_t NewKey =
      runFingerprint(Prog, Topo, nullptr, Strategy::TopologyAware, Opts);

  RunCache Cache(Dir);
  Cache.store(OldKey, sampleResult());
  EXPECT_FALSE(Cache.lookup(NewKey).has_value());
  // The stale entry itself is still intact under its own key.
  EXPECT_TRUE(Cache.lookup(OldKey).has_value());
}

TEST(RunCacheTest, DisabledCacheNeverHits) {
  RunCache Cache;
  EXPECT_FALSE(Cache.enabled());
  Cache.store(1, sampleResult());
  EXPECT_FALSE(Cache.lookup(1).has_value());
  EXPECT_EQ(Cache.stores(), 0u);
}

//===----------------------------------------------------------------------===//
// ExperimentRunner: grids, determinism, warm cache
//===----------------------------------------------------------------------===//

GridSpec smallGrid() {
  GridSpec Spec;
  Spec.Workloads = {"cg", "h264"};
  Spec.Machines = {makeDunnington().scaledCapacity(1.0 / 32),
                   makeNehalem().scaledCapacity(1.0 / 32)};
  Spec.Strategies = {Strategy::Base, Strategy::TopologyAware};
  return Spec;
}

std::vector<std::string> deterministicRendering(
    const std::vector<RunResult> &Results) {
  std::vector<std::string> Bytes;
  for (const RunResult &R : Results)
    Bytes.push_back(deterministicBytes(R));
  return Bytes;
}

TEST(ExperimentRunnerTest, ExpandGridOrderMatchesIndex) {
  GridSpec Spec = smallGrid();
  std::vector<RunTask> Tasks = expandGrid(Spec);
  ASSERT_EQ(Tasks.size(), Spec.numTasks());
  for (std::size_t M = 0; M != Spec.Machines.size(); ++M)
    for (std::size_t W = 0; W != Spec.Workloads.size(); ++W)
      for (std::size_t S = 0; S != Spec.Strategies.size(); ++S) {
        const RunTask &T = Tasks[Spec.index(M, W, 0, S)];
        EXPECT_EQ(T.Prog.Name, Spec.Workloads[W]);
        EXPECT_EQ(T.Machine.name(), Spec.Machines[M].name());
        EXPECT_EQ(T.Strat, Spec.Strategies[S]);
      }
}

TEST(ExperimentRunnerTest, ResultsAreIdenticalAcrossThreadCounts) {
  GridSpec Spec = smallGrid();

  ExecConfig Serial;
  Serial.Jobs = 1;
  ExperimentRunner SerialRunner(Serial);
  std::vector<std::string> SerialBytes =
      deterministicRendering(SerialRunner.run(Spec));

  ExecConfig Parallel;
  Parallel.Jobs = 4;
  ExperimentRunner ParallelRunner(Parallel);
  std::vector<std::string> ParallelBytes =
      deterministicRendering(ParallelRunner.run(Spec));

  ASSERT_EQ(SerialBytes.size(), ParallelBytes.size());
  for (std::size_t I = 0; I != SerialBytes.size(); ++I)
    EXPECT_EQ(SerialBytes[I], ParallelBytes[I]) << "grid slot " << I;
}

class WarmCacheTest : public TempDirTest {};

TEST_F(WarmCacheTest, SecondRunnerServesEverythingFromCache) {
  GridSpec Spec = smallGrid();

  ExecConfig Config;
  Config.Jobs = 2;
  Config.CacheDir = Dir;

  ExperimentRunner Cold(Config);
  std::vector<RunResult> First = Cold.run(Spec);
  EXPECT_EQ(Cold.simulatorInvocations(), Spec.numTasks());
  EXPECT_EQ(Cold.cache().stores(), Spec.numTasks());

  ExperimentRunner Warm(Config);
  std::vector<RunResult> Second = Warm.run(Spec);
  // The warm runner must not simulate anything...
  EXPECT_EQ(Warm.simulatorInvocations(), 0u);
  EXPECT_EQ(Warm.cache().hits(), Spec.numTasks());
  // ...and must return results byte-identical to the cold run, including
  // the originally measured wall-clock MappingSeconds.
  ASSERT_EQ(First.size(), Second.size());
  for (std::size_t I = 0; I != First.size(); ++I)
    EXPECT_EQ(serializeRunResult(First[I], 0),
              serializeRunResult(Second[I], 0))
        << "grid slot " << I;
}

TEST_F(WarmCacheTest, CrossMachineTasksCacheIndependently) {
  ExecConfig Config;
  Config.Jobs = 1;
  Config.CacheDir = Dir;

  Program Prog = makeWorkload("h264");
  CacheTopology Dun = makeDunnington().scaledCapacity(1.0 / 32);
  CacheTopology Neh = makeNehalem().scaledCapacity(1.0 / 32);
  MappingOptions Opts;

  std::vector<RunTask> Tasks = {
      makeRunTask(Prog, Dun, Strategy::TopologyAware, Opts, "native"),
      makeCrossMachineTask(Prog, Dun, Neh, Strategy::TopologyAware, Opts,
                           "ported")};

  ExperimentRunner Cold(Config);
  std::vector<RunResult> First = Cold.run(Tasks);
  EXPECT_EQ(Cold.simulatorInvocations(), 2u);

  ExperimentRunner Warm(Config);
  std::vector<RunResult> Second = Warm.run(Tasks);
  EXPECT_EQ(Warm.simulatorInvocations(), 0u);
  for (std::size_t I = 0; I != Tasks.size(); ++I)
    EXPECT_EQ(serializeRunResult(First[I], 0),
              serializeRunResult(Second[I], 0));
}

TEST_F(WarmCacheTest, TracedRunsBypassTheCacheBothWays) {
  ExecConfig Config;
  Config.Jobs = 1;
  Config.CacheDir = Dir;

  Program Prog = makeWorkload("h264");
  CacheTopology Dun = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;
  RunTask Untraced =
      makeRunTask(Prog, Dun, Strategy::TopologyAware, Opts, "untraced");

  // Warm the cache with the untraced run.
  ExperimentRunner Cold(Config);
  RunResult Plain = Cold.runOne(Untraced);
  EXPECT_EQ(Cold.cache().stores(), 1u);

  // The traced run must not be served from the warm cache (its log would
  // come back empty) and must not store a new entry; its artifact says so.
  RunTask Traced = Untraced;
  Traced.TraceSink = std::make_shared<TraceLog>();
  ExperimentRunner Runner(Config);
  RunResult TracedResult = Runner.runOne(Traced);
  EXPECT_EQ(Runner.simulatorInvocations(), 1u);
  EXPECT_EQ(Runner.cache().stores(), 0u);
  EXPECT_EQ(Runner.cache().hits(), 0u);
  ASSERT_EQ(Runner.artifacts().size(), 1u);
  EXPECT_EQ(Runner.artifacts()[0].CacheStatus, "bypass");

  // Tracing must not perturb the simulation itself...
  EXPECT_EQ(deterministicBytes(TracedResult), deterministicBytes(Plain));
  // ...and the log must have observed it.
  EXPECT_GT(Traced.TraceSink->totalEvents(), 0u);
  EXPECT_EQ(Traced.TraceSink->nodeCounts()[0].Misses,
            TracedResult.Stats.MemoryAccesses);
}

TEST(ExperimentRunnerTest, ParseExecArgsFormsAndDefaults) {
  {
    const char *Argv[] = {"bench", "--jobs=3", "--cache-dir=/tmp/x"};
    ExecConfig C = parseExecArgs(3, const_cast<char **>(Argv));
    EXPECT_EQ(C.Jobs, 3u);
    EXPECT_EQ(C.CacheDir, "/tmp/x");
  }
  {
    const char *Argv[] = {"bench", "--jobs", "5", "--cache-dir", "/tmp/y"};
    ExecConfig C = parseExecArgs(5, const_cast<char **>(Argv));
    EXPECT_EQ(C.Jobs, 5u);
    EXPECT_EQ(C.CacheDir, "/tmp/y");
  }
  {
    // Unrelated flags are ignored; defaults survive.
    const char *Argv[] = {"bench", "--benchmark_filter=foo"};
    ExecConfig C = parseExecArgs(2, const_cast<char **>(Argv));
    EXPECT_EQ(C.CacheDir, "");
    EXPECT_EQ(C.EmitJsonPath, "");
  }
  {
    const char *Argv[] = {"/path/to/fig13", "--emit-json=/tmp/a.json"};
    ExecConfig C = parseExecArgs(2, const_cast<char **>(Argv));
    EXPECT_EQ(C.EmitJsonPath, "/tmp/a.json");
    EXPECT_EQ(C.BenchName, "fig13"); // basename of argv[0]
  }
  {
    const char *Argv[] = {"fig13", "--emit-json", "/tmp/b.json"};
    ExecConfig C = parseExecArgs(3, const_cast<char **>(Argv));
    EXPECT_EQ(C.EmitJsonPath, "/tmp/b.json");
  }
}

TEST(ExperimentRunnerDeathTest, RejectsMalformedJobs) {
  // strtoul would silently read "8x" as 8 and "abc" as 0; the strict
  // parser must refuse both, plus overflow, with a fatal error naming the
  // flag.
  const char *Suffix[] = {"bench", "--jobs=8x"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Suffix)), "--jobs");
  const char *Garbage[] = {"bench", "--jobs=abc"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Garbage)), "--jobs");
  const char *Negative[] = {"bench", "--jobs=-2"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Negative)), "--jobs");
  const char *Overflow[] = {"bench", "--jobs=99999999999999999999"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Overflow)), "--jobs");
}

TEST(ExperimentRunnerDeathTest, RejectsMalformedJobsEnv) {
  const char *Argv[] = {"bench"};
  ::setenv("CTA_JOBS", "4x", 1);
  EXPECT_DEATH(parseExecArgs(1, const_cast<char **>(Argv)), "CTA_JOBS");
  ::unsetenv("CTA_JOBS");
}

TEST(ExperimentRunnerTest, ParseSimThreadsForms) {
  {
    const char *Argv[] = {"bench"};
    ExecConfig C = parseExecArgs(1, const_cast<char **>(Argv));
    EXPECT_EQ(C.SimThreads, 1u); // default: sequential engine
  }
  {
    const char *Argv[] = {"bench", "--sim-threads=4"};
    ExecConfig C = parseExecArgs(2, const_cast<char **>(Argv));
    EXPECT_EQ(C.SimThreads, 4u);
  }
  {
    const char *Argv[] = {"bench", "--sim-threads", "0"};
    ExecConfig C = parseExecArgs(3, const_cast<char **>(Argv));
    EXPECT_EQ(C.SimThreads, 0u); // 0 = hardware threads
  }
  {
    const char *Argv[] = {"bench"};
    ::setenv("CTA_SIM_THREADS", "3", 1);
    ExecConfig C = parseExecArgs(1, const_cast<char **>(Argv));
    ::unsetenv("CTA_SIM_THREADS");
    EXPECT_EQ(C.SimThreads, 3u);
  }
  {
    // The flag overrides the environment, like --jobs vs CTA_JOBS.
    const char *Argv[] = {"bench", "--sim-threads=2"};
    ::setenv("CTA_SIM_THREADS", "9", 1);
    ExecConfig C = parseExecArgs(2, const_cast<char **>(Argv));
    ::unsetenv("CTA_SIM_THREADS");
    EXPECT_EQ(C.SimThreads, 2u);
  }
}

TEST(ExperimentRunnerDeathTest, RejectsMalformedSimThreads) {
  // Same strict-decimal contract as --jobs: trailing garbage, non-numeric
  // input, negatives and overflow are all fatal, naming the flag.
  const char *Suffix[] = {"bench", "--sim-threads=4x"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Suffix)),
               "--sim-threads");
  const char *Garbage[] = {"bench", "--sim-threads=auto"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Garbage)),
               "--sim-threads");
  const char *Negative[] = {"bench", "--sim-threads=-1"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Negative)),
               "--sim-threads");
  const char *Overflow[] = {"bench", "--sim-threads=99999999999999999999"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Overflow)),
               "--sim-threads");
  const char *Missing[] = {"bench", "--sim-threads"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Missing)),
               "--sim-threads");
}

TEST(ExperimentRunnerDeathTest, RejectsMalformedSimThreadsEnv) {
  const char *Argv[] = {"bench"};
  ::setenv("CTA_SIM_THREADS", "2x", 1);
  EXPECT_DEATH(parseExecArgs(1, const_cast<char **>(Argv)),
               "CTA_SIM_THREADS");
  ::unsetenv("CTA_SIM_THREADS");
}

TEST(ExperimentRunnerDeathTest, RejectsMalformedTelemetryServeFlags) {
  // The serve daemon's telemetry flags share the strict-decimal contract:
  // --metrics-port is a 16-bit port, --log-json needs a path.
  EXPECT_DEATH(serve::parseServeArgs({"--socket", "s", "--metrics-port=9x"}),
               "--metrics-port");
  EXPECT_DEATH(
      serve::parseServeArgs({"--socket", "s", "--metrics-port=70000"}),
      "--metrics-port");
  EXPECT_DEATH(serve::parseServeArgs({"--socket", "s", "--metrics-port"}),
               "--metrics-port");
  EXPECT_DEATH(serve::parseServeArgs({"--socket", "s", "--log-json="}),
               "--log-json");
}

TEST(ExperimentRunnerDeathTest, RejectsMalformedAdaptInterval) {
  // Same strict-decimal contract as --jobs / --sim-threads.
  const char *Suffix[] = {"bench", "--adapt-interval=4x"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Suffix)),
               "--adapt-interval");
  const char *Garbage[] = {"bench", "--adapt-interval=often"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Garbage)),
               "--adapt-interval");
  const char *Negative[] = {"bench", "--adapt-interval=-2"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Negative)),
               "--adapt-interval");
  const char *Missing[] = {"bench", "--adapt-interval"};
  EXPECT_DEATH(parseExecArgs(2, const_cast<char **>(Missing)),
               "--adapt-interval");
}

TEST(ExperimentRunnerDeathTest, RejectsMalformedAdaptEnv) {
  const char *Argv[] = {"bench"};
  ::setenv("CTA_ADAPT_INTERVAL", "4x", 1);
  EXPECT_DEATH(parseExecArgs(1, const_cast<char **>(Argv)),
               "CTA_ADAPT_INTERVAL");
  ::unsetenv("CTA_ADAPT_INTERVAL");
}

TEST(ExperimentRunnerTest, ParsesAdaptFlags) {
  const char *Argv[] = {"bench", "--adapt-interval=9"};
  ExecConfig C = parseExecArgs(2, const_cast<char **>(Argv));
  EXPECT_EQ(C.AdaptInterval, 9u);
}

TEST(ExperimentRunnerTest, RemovedAdaptPolicyIsUnknown) {
  // --adapt-policy is no exec flag, so `cta run` rejects it as an unknown
  // flag and parseExecArgs leaves it (and its value) alone.
  EXPECT_EQ(classifyExecFlag("--adapt-policy"), ExecFlagForm::None);
  EXPECT_EQ(classifyExecFlag("--adapt-policy=greedy"), ExecFlagForm::None);
  // CTA_ADAPT_POLICY is no longer read: a value the old parser rejected
  // now passes through without effect.
  ::setenv("CTA_ADAPT_POLICY", "fast", 1);
  const char *Argv[] = {"bench", "--adapt-policy", "mw", "--jobs=3"};
  ExecConfig C = parseExecArgs(4, const_cast<char **>(Argv));
  ::unsetenv("CTA_ADAPT_POLICY");
  EXPECT_EQ(C.Jobs, 3u);
  EXPECT_EQ(C.AdaptInterval, 0u);
}

TEST(ExperimentRunnerTest, ClassifyExecFlagMatchesTheParser) {
  EXPECT_EQ(classifyExecFlag("--jobs"), ExecFlagForm::ValueFollows);
  EXPECT_EQ(classifyExecFlag("--jobs=2"), ExecFlagForm::Complete);
  EXPECT_EQ(classifyExecFlag("--emit-json"), ExecFlagForm::ValueFollows);
  EXPECT_EQ(classifyExecFlag("--adapt-interval=2"), ExecFlagForm::Complete);
  EXPECT_EQ(classifyExecFlag("--no-timing"), ExecFlagForm::Complete);
  EXPECT_EQ(classifyExecFlag("--no-timing=1"), ExecFlagForm::None);
  EXPECT_EQ(classifyExecFlag("--jobsx"), ExecFlagForm::None);
  EXPECT_EQ(classifyExecFlag("--machine"), ExecFlagForm::None);

  // Flags the table does not name pass through parseExecArgs untouched,
  // so the value after them is not consumed either.
  const char *Argv[] = {"bench", "--machine", "--jobs=3"};
  ExecConfig C = parseExecArgs(3, const_cast<char **>(Argv));
  EXPECT_EQ(C.Jobs, 3u);
}

} // namespace
