//===- tests/runcache_test.cpp - Cross-process RunCache publish tests -----===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
// Separate `cta` and bench processes may share one --cache-dir. This test
// forks a second process that publishes the same key concurrently and
// checks that RunCache's per-process temporary + rename() publish leaves
// exactly one whole winner on disk and never serves a torn read.
//
// It forks, so it stays out of the ThreadSanitizer CI job.
//
//===----------------------------------------------------------------------===//

#include "exec/ExperimentRunner.h"
#include "exec/RunCache.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

using namespace cta;

namespace {

class RunCacheRaceTest : public ::testing::Test {
protected:
  std::string Dir;

  void SetUp() override {
    std::string Tmpl =
        (std::filesystem::temp_directory_path() / "cta-runcache-test-XXXXXX")
            .string();
    std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
    Buf.push_back('\0');
    ASSERT_NE(::mkdtemp(Buf.data()), nullptr);
    Dir = Buf.data();
  }
  void TearDown() override {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
};

TEST_F(RunCacheRaceTest, ConcurrentPublishOneWinnerNoTornReads) {
  // One real simulated result, so the entries have full-size payloads
  // (counters, per-cache stats) rather than trivially small files.
  ExecConfig Config;
  Config.Jobs = 1;
  ExperimentRunner Runner(Config);
  RunTask Task =
      makeRunTask(makeWorkload("cg"), makeDunnington().scaledCapacity(1.0 / 32),
                  Strategy::TopologyAware, MappingOptions{}, "race/seed");
  RunResult Seed = Runner.runOne(Task);
  const std::string Expected = deterministicBytes(Seed);
  const std::uint64_t Key = 0xC0FFEE;

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Child process: hammer the same key with a timing-divergent copy.
    RunCache Cache(Dir);
    RunResult Mine = Seed;
    Mine.MappingSeconds = 9.0;
    for (int I = 0; I != 200; ++I)
      Cache.store(Key, Mine);
    ::_exit(0);
  }

  RunCache Cache(Dir);
  RunResult Mine = Seed;
  Mine.MappingSeconds = 1.0;
  int Valid = 0;
  for (int I = 0; I != 200; ++I) {
    Cache.store(Key, Mine);
    if (std::optional<RunResult> Got = Cache.lookup(Key)) {
      ++Valid;
      // Whichever writer won, the entry is whole: deterministic fields
      // match and the timing is one writer's value, never a blend.
      EXPECT_EQ(deterministicBytes(*Got), Expected);
      EXPECT_TRUE(Got->MappingSeconds == 1.0 || Got->MappingSeconds == 9.0)
          << Got->MappingSeconds;
    }
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  EXPECT_GT(Valid, 0);

  // Exactly one winner on disk: the key's .run file, with every temporary
  // renamed away (the seed run above used no cache directory).
  int RunFiles = 0, TmpFiles = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    const std::string Name = Entry.path().filename().string();
    if (Name.find(".tmp.") != std::string::npos)
      ++TmpFiles;
    else if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".run")
      ++RunFiles;
  }
  EXPECT_EQ(RunFiles, 1);
  EXPECT_EQ(TmpFiles, 0);
}

} // namespace
