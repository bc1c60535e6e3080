//===- tests/tagger_test.cpp - Tagging and group formation tests ----------===//

#include "core/Tagger.h"
#include "support/Random.h"
#include "topo/Presets.h"
#include "workloads/Generators.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <set>

using namespace cta;

namespace {

TaggingResult tagWorkload(const Program &P, std::uint64_t BlockSize) {
  DataBlockModel Blocks(P.Arrays, BlockSize);
  return buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
}

/// adjacentAffinityFraction as first written: the local mass summed as
/// one tag dot per pair within the window. The inverted-index version
/// must return bit-identical doubles.
double referenceAffinityFraction(const std::vector<IterationGroup> &Groups) {
  const std::size_t N = Groups.size();
  const std::size_t Window =
      std::min<std::size_t>(512, std::max<std::size_t>(32, N / 256));
  if (N <= Window + 1)
    return 1.0;

  double LocalMass = 0.0;
  for (std::size_t I = 0; I != N; ++I)
    for (std::size_t J = I + 1; J <= I + Window && J < N; ++J)
      LocalMass += Groups[I].Tag.dot(Groups[J].Tag);

  SplitMix64 Rng(0xc0a45e);
  const std::size_t Samples = 4 * N;
  double SampleMass = 0.0;
  std::size_t Taken = 0;
  for (std::size_t S = 0; S != Samples; ++S) {
    std::size_t A = static_cast<std::size_t>(Rng.nextBelow(N));
    std::size_t B = static_cast<std::size_t>(Rng.nextBelow(N));
    std::size_t Dist = A > B ? A - B : B - A;
    if (Dist <= Window)
      continue;
    ++Taken;
    SampleMass += Groups[A].Tag.dot(Groups[B].Tag);
  }
  if (Taken == 0)
    return 1.0;
  double TotalPairs = 0.5 * static_cast<double>(N) * (N - 1);
  double LocalPairs =
      static_cast<double>(N) * Window - 0.5 * Window * (Window + 1);
  double NonLocalEstimate =
      SampleMass * (TotalPairs - LocalPairs) / static_cast<double>(Taken);
  double Total = LocalMass + NonLocalEstimate;
  return Total <= 0.0 ? 1.0 : LocalMass / Total;
}

/// \p N groups with 0-4 block ids each, drawn near the group's position
/// (chain-like sharing) or anywhere in a small id space (scattered).
std::vector<IterationGroup> randomGroups(std::size_t N, SplitMix64 &Rng) {
  std::vector<IterationGroup> Groups(N);
  for (std::size_t G = 0; G != N; ++G) {
    std::vector<std::uint32_t> Ids;
    for (std::uint64_t K = Rng.nextBelow(5); K != 0; --K)
      Ids.push_back(static_cast<std::uint32_t>(
          Rng.nextBelow(2) ? G / 8 + Rng.nextBelow(4) : Rng.nextBelow(4096)));
    Groups[G].Tag = BlockSet::fromUnsorted(std::move(Ids));
  }
  return Groups;
}

} // namespace

TEST(Tagger, GroupsPartitionIterationSpace) {
  Program P = makeStencil1D("s", 500, 1);
  TaggingResult R = tagWorkload(P, 256);

  std::vector<bool> Seen(R.Iterations.size(), false);
  for (const IterationGroup &G : R.Groups) {
    EXPECT_FALSE(G.Iterations.empty());
    EXPECT_FALSE(G.Tag.empty());
    for (std::uint32_t It : G.Iterations) {
      ASSERT_LT(It, R.Iterations.size());
      EXPECT_FALSE(Seen[It]) << "iteration in two groups";
      Seen[It] = true;
    }
  }
  for (bool B : Seen)
    EXPECT_TRUE(B) << "iteration not covered";
}

TEST(Tagger, TagsAreDistinctAcrossGroups) {
  // Section 3.3: two different iteration groups never share a tag.
  Program P = makeStencil2D("s", 40, 1);
  TaggingResult R = tagWorkload(P, 256);
  for (std::size_t I = 0; I != R.Groups.size(); ++I)
    for (std::size_t J = I + 1; J != R.Groups.size(); ++J)
      EXPECT_NE(R.Groups[I].Tag, R.Groups[J].Tag);
}

TEST(Tagger, TagMatchesAccessedBlocks) {
  // Verify the Figure 4-style example: tag of an iteration's group equals
  // exactly the blocks its references touch.
  Program P = makeStencil1D("s", 300, 1);
  DataBlockModel Blocks(P.Arrays, 256);
  TaggingResult R = buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
  const LoopNest &Nest = P.Nests[0];

  for (const IterationGroup &G : R.Groups) {
    for (std::uint32_t It : G.Iterations) {
      std::int64_t Point[1];
      R.Iterations.get(It, Point);
      std::set<std::uint32_t> Expected;
      for (const ArrayAccess &A : Nest.accesses()) {
        std::int64_t Idx[1];
        evaluateAccess(A, P.Arrays[A.ArrayId], Point, Idx);
        Expected.insert(
            Blocks.blockOf(A.ArrayId, P.Arrays[A.ArrayId].linearize(Idx)));
      }
      ASSERT_EQ(Expected.size(), G.Tag.size());
      for (std::uint32_t B : Expected)
        EXPECT_TRUE(G.Tag.contains(B));
    }
  }
}

TEST(Tagger, GroupsOrderedByFirstIteration) {
  Program P = makeStencil2D("s", 32, 1);
  TaggingResult R = tagWorkload(P, 256);
  for (std::size_t I = 1; I < R.Groups.size(); ++I)
    EXPECT_LT(R.Groups[I - 1].Iterations.front(),
              R.Groups[I].Iterations.front());
}

TEST(Coarsen, ReachesTargetAndPreservesIterations) {
  Program P = makeStencil1D("s", 2000, 1);
  TaggingResult R = tagWorkload(P, 256);
  std::uint64_t Before = 0;
  for (const IterationGroup &G : R.Groups)
    Before += G.size();

  coarsenGroups(R.Groups, 4);
  EXPECT_LE(R.Groups.size(), 8u); // soft cap: at most 2x for chains
  std::uint64_t After = 0;
  for (const IterationGroup &G : R.Groups)
    After += G.size();
  EXPECT_EQ(Before, After);
}

TEST(Coarsen, NoOpBelowTarget) {
  Program P = makeStencil1D("s", 300, 1);
  TaggingResult R = tagWorkload(P, 256);
  std::size_t N = R.Groups.size();
  coarsenGroups(R.Groups, N + 10);
  EXPECT_EQ(R.Groups.size(), N);
}

TEST(Coarsen, DoesNotFuseDisjointGroupsUnlessForced) {
  // Two independent rows (wavefront): groups of different rows share no
  // blocks, so affinity-respecting coarsening keeps them apart while the
  // count stays within 2x of the target.
  Program P = makeWavefront("w", 24);
  TaggingResult R = tagWorkload(P, 64); // fine blocks -> many groups
  std::size_t RowCount = 24;
  coarsenGroups(R.Groups, RowCount);
  // Group tags should each stay within one row's block span: any pair of
  // groups from different rows is disjoint.
  unsigned CrossRowMerges = 0;
  for (const IterationGroup &G : R.Groups) {
    std::int64_t First[2], Last[2];
    R.Iterations.get(G.Iterations.front(), First);
    R.Iterations.get(G.Iterations.back(), Last);
    if (First[0] != Last[0])
      ++CrossRowMerges;
  }
  EXPECT_EQ(CrossRowMerges, 0u);
}

TEST(AffinityFraction, ChainVsScatter) {
  // Stencil: nearly all affinity is local.
  Program Chain = makeStencil1D("c", 3000, 1);
  TaggingResult RC = tagWorkload(Chain, 256);
  EXPECT_GT(adjacentAffinityFraction(RC.Groups), 0.5);

  // Hashed side table with a large stride: affinity is scattered.
  Program Scatter = makeHashed("h", 20000, 2048, 1031);
  TaggingResult RS = tagWorkload(Scatter, 256);
  EXPECT_LT(adjacentAffinityFraction(RS.Groups), 0.5);
}

TEST(AffinityFraction, TinyInputsAreChainLike) {
  std::vector<IterationGroup> Two(2);
  EXPECT_EQ(adjacentAffinityFraction(Two), 1.0);
}

TEST(AffinityFraction, MatchesPairwiseReferenceOnSuite) {
  // Every Table 2 nest, tagged as the Figure 13 grid tags it (block size
  // selected against each 1/32-scale machine's L1).
  std::set<std::uint64_t> L1Capacities;
  for (const char *M : {"harpertown", "nehalem", "dunnington"})
    L1Capacities.insert(
        makePresetByName(M).scaledCapacity(1.0 / 32).levelCapacity(1));
  for (const std::string &Name : workloadNames()) {
    Program P = makeWorkload(Name);
    for (std::uint64_t L1 : L1Capacities)
      for (const LoopNest &Nest : P.Nests) {
        DataBlockModel Blocks(P.Arrays, selectBlockSize(Nest, P.Arrays, L1));
        TaggingResult R = buildIterationGroups(Nest, P.Arrays, Blocks);
        EXPECT_EQ(adjacentAffinityFraction(R.Groups),
                  referenceAffinityFraction(R.Groups))
            << Name << " with L1 " << L1;
      }
  }
}

TEST(AffinityFraction, MatchesPairwiseReferenceOnRandomGroups) {
  // Sizes around the early return (N <= Window + 1), inside the 32 clamp,
  // between the clamps and beyond the 512 clamp (N >= 512 * 256).
  SplitMix64 Rng(0xaff1);
  for (std::size_t N : {0, 1, 2, 33, 34, 35, 100, 1000, 8191, 8192, 20000,
                        131072, 140000}) {
    std::vector<IterationGroup> Groups = randomGroups(N, Rng);
    EXPECT_EQ(adjacentAffinityFraction(Groups),
              referenceAffinityFraction(Groups))
        << "N = " << N;
  }
}

// Invariant sweep over block sizes: the partition property holds for all.
class TaggerBlockSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TaggerBlockSweep, PartitionInvariant) {
  Program P = makeBanded("b", 4096, 512);
  TaggingResult R = tagWorkload(P, GetParam());
  std::uint64_t Total = 0;
  for (const IterationGroup &G : R.Groups)
    Total += G.size();
  EXPECT_EQ(Total, R.Iterations.size());
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, TaggerBlockSweep,
                         ::testing::Values(64, 128, 256, 512, 1024, 4096));
