//===- tests/cache_test.cpp - Set-associative cache tests -----------------===//

#include "sim/Cache.h"

#include <gtest/gtest.h>

#include <random>

using namespace cta;

TEST(Cache, ColdMissThenHit) {
  Cache C({1024, 2, 64, 1}); // 8 sets, 2-way
  EXPECT_FALSE(C.access(5));
  C.fill(5);
  EXPECT_TRUE(C.access(5));
  EXPECT_TRUE(C.contains(5));
  EXPECT_FALSE(C.contains(6));
}

TEST(Cache, LineAddressing) {
  Cache C({1024, 2, 64, 1});
  EXPECT_EQ(C.lineAddrOf(0), 0u);
  EXPECT_EQ(C.lineAddrOf(63), 0u);
  EXPECT_EQ(C.lineAddrOf(64), 1u);
  EXPECT_EQ(C.lineAddrOf(6400), 100u);
}

TEST(Cache, LruEvictionWithinSet) {
  Cache C({256, 2, 64, 1}); // 2 sets, 2-way: lines mapping to set 0: 0,2,4...
  C.fill(0);
  C.fill(2);
  // Touch 0 so 2 becomes LRU.
  EXPECT_TRUE(C.access(0));
  C.fill(4); // evicts 2
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(2));
  EXPECT_TRUE(C.contains(4));
}

TEST(Cache, FillRefreshesResidentLine) {
  Cache C({256, 2, 64, 1});
  C.fill(0);
  C.fill(2);
  C.fill(0); // refresh, not duplicate
  EXPECT_EQ(C.residentLines(), 2u);
  C.fill(4); // should evict 2 (0 fresher)
  EXPECT_TRUE(C.contains(0));
  EXPECT_FALSE(C.contains(2));
}

TEST(Cache, SetsIsolateConflicts) {
  Cache C({256, 2, 64, 1}); // 2 sets
  // Lines 1,3,5 map to set 1; lines 0,2 to set 0.
  C.fill(1);
  C.fill(3);
  C.fill(5); // evicts in set 1 only
  EXPECT_FALSE(C.contains(1));
  C.fill(0);
  EXPECT_TRUE(C.contains(0));
  EXPECT_TRUE(C.contains(3));
}

TEST(Cache, FlushEmptiesEverything) {
  Cache C({1024, 4, 64, 1});
  for (std::uint64_t L = 0; L != 10; ++L)
    C.fill(L);
  EXPECT_GT(C.residentLines(), 0u);
  C.flush();
  EXPECT_EQ(C.residentLines(), 0u);
  EXPECT_FALSE(C.contains(3));
}

TEST(Cache, CapacityBound) {
  Cache C({1024, 4, 64, 1}); // 16 lines total
  for (std::uint64_t L = 0; L != 100; ++L)
    C.fill(L);
  EXPECT_LE(C.residentLines(), 16u);
}

// Property: a fully-associative-like config retains the most recent
// Assoc distinct lines of a single set.
class LruProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(LruProperty, KeepsMostRecent) {
  unsigned Assoc = GetParam();
  Cache C({64ull * Assoc, Assoc, 64, 1}); // one set, Assoc ways
  ASSERT_EQ(C.numSets(), 1u);
  for (std::uint64_t L = 0; L != 3 * Assoc; ++L)
    C.fill(L);
  // The last Assoc lines are resident, earlier ones are not.
  for (std::uint64_t L = 2 * Assoc; L != 3 * Assoc; ++L)
    EXPECT_TRUE(C.contains(L));
  for (std::uint64_t L = 0; L != Assoc; ++L)
    EXPECT_FALSE(C.contains(L));
}

INSTANTIATE_TEST_SUITE_P(Ways, LruProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 24));

// probe() and probeTraced() against the reference access() + fill() pair on
// random line streams. Lines are drawn from about twice the capacity, so
// hits, cold fills and evictions all occur; a few lines sit above 2^32 to
// reach the division fallback of non-power-of-two set indexing. Every
// cache starts with all ways invalid, and each flush() empties every set
// again before the stream refills them.
class ProbeDifferential
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(ProbeDifferential, MatchesAccessThenFill) {
  const auto [Assoc, Sets] = GetParam();
  const CacheParams Params{64ull * Assoc * Sets, Assoc, 64, 1};
  Cache Fast(Params), Traced(Params), Ref(Params);
  ASSERT_EQ(Fast.numSets(), Sets);
  std::mt19937_64 Rng(Assoc * 1000 + Sets);
  const std::uint64_t Span = 2ull * Assoc * Sets;
  auto drawLine = [&] {
    std::uint64_t L = Rng() % Span;
    return Rng() % 16 == 0 ? L + (std::uint64_t(1) << 40) : L;
  };
  for (unsigned Step = 0; Step != 20000; ++Step) {
    if (Step % 5000 == 4999) {
      Fast.flush();
      Traced.flush();
      Ref.flush();
      ASSERT_EQ(Fast.residentLines(), 0u);
    }
    const std::uint64_t Line = drawLine();
    const bool FastHit = Fast.probe(Line);
    bool TracedEvicted = false, RefEvicted = false;
    std::uint64_t TracedVictim = 0, RefVictim = 0;
    const bool TracedHit =
        Traced.probeTraced(Line, TracedEvicted, TracedVictim);
    const bool RefHit = Ref.access(Line);
    if (!RefHit)
      Ref.fillTraced(Line, RefEvicted, RefVictim);
    ASSERT_EQ(FastHit, RefHit) << "step " << Step;
    ASSERT_EQ(TracedHit, RefHit) << "step " << Step;
    ASSERT_EQ(TracedEvicted, RefEvicted) << "step " << Step;
    if (RefEvicted) {
      ASSERT_EQ(TracedVictim, RefVictim) << "step " << Step;
    }
    if (Step % 97 == 0) {
      ASSERT_EQ(Fast.residentLines(), Ref.residentLines());
      ASSERT_EQ(Traced.residentLines(), Ref.residentLines());
      for (unsigned Q = 0; Q != 8; ++Q) {
        const std::uint64_t Probe = drawLine();
        ASSERT_EQ(Fast.contains(Probe), Ref.contains(Probe));
        ASSERT_EQ(Traced.contains(Probe), Ref.contains(Probe));
      }
    }
  }
  for (const Cache *C : {&Fast, &Traced}) {
    EXPECT_EQ(C->lookups(), Ref.lookups());
    EXPECT_EQ(C->hits(), Ref.hits());
    EXPECT_EQ(C->evictions(), Ref.evictions());
  }
  EXPECT_GT(Ref.evictions(), 0u);
  EXPECT_GT(Ref.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    WaysAndSets, ProbeDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 12u, 16u, 24u),
                       ::testing::Values(1u, 4u, 5u, 12u)));

TEST(CacheDeathTest, ProbeRejectsTheInvalidTag) {
  Cache C({1024, 2, 64, 1});
  EXPECT_DEBUG_DEATH(C.probe(Cache::InvalidTag), "invalid-way tag");
}
