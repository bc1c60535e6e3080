//===- tests/clusterer_test.cpp - Figure 6 clusterer tests ----------------===//

#include "core/HierarchicalClusterer.h"
#include "core/MergeHeap.h"
#include "core/Tagger.h"
#include "support/Random.h"
#include "topo/Presets.h"
#include "workloads/Generators.h"

#include <gtest/gtest.h>

#include <queue>

using namespace cta;

namespace {

std::vector<IterationGroup> makeGroups(const Program &P,
                                       std::uint64_t BlockSize,
                                       unsigned Coarsen = 256) {
  DataBlockModel Blocks(P.Arrays, BlockSize);
  TaggingResult R = buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
  coarsenGroups(R.Groups, Coarsen);
  return R.Groups;
}

std::vector<std::uint64_t> coreSizes(const ClusteringResult &R) {
  std::vector<std::uint64_t> Sizes(R.CoreGroups.size(), 0);
  for (std::size_t C = 0; C != R.CoreGroups.size(); ++C)
    for (std::uint32_t G : R.CoreGroups[C])
      Sizes[C] += R.Groups[G].size();
  return Sizes;
}

/// FNV-1a over the per-core group lists and the split records.
std::uint64_t hashPlacement(const ClusteringResult &R) {
  std::uint64_t H = 1469598103934665603ull;
  auto Mix = [&](std::uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  for (const std::vector<std::uint32_t> &CG : R.CoreGroups) {
    Mix(CG.size());
    for (std::uint32_t G : CG)
      Mix(G);
  }
  Mix(R.Splits.size());
  for (auto [Parent, Child] : R.Splits) {
    Mix(Parent);
    Mix(Child);
  }
  return H;
}

/// \p N groups of \p Iters iterations each. With \p SharedBlock every
/// tag holds that block plus a private one, so all pairwise dots are 1;
/// without it the tags are disjoint and all dots are 0.
std::vector<IterationGroup> tiedGroups(unsigned N, unsigned Iters,
                                       bool SharedBlock) {
  std::vector<IterationGroup> Groups;
  std::uint32_t Iter = 0;
  for (unsigned I = 0; I != N; ++I) {
    std::vector<std::uint32_t> Members;
    for (unsigned K = 0; K != Iters; ++K)
      Members.push_back(Iter++);
    std::vector<std::uint32_t> Ids = {I + 1};
    if (SharedBlock)
      Ids.push_back(0);
    Groups.emplace_back(BlockSet::fromUnsorted(Ids), std::move(Members));
  }
  return Groups;
}

} // namespace

TEST(MergeHeap, PopOrderMatchesPriorityQueue) {
  // Mostly tied keys leave the pop order to the heap layout; MergeHeap
  // must reproduce std::priority_queue's layout step for step.
  SplitMix64 Rng(0x6d657267);
  for (unsigned Seq = 0; Seq != 10000; ++Seq) {
    MergeHeap Heap;
    std::priority_queue<MergeCandidate> Ref;
    const unsigned Ops = 1 + Rng.nextBelow(300);
    const std::uint64_t PushPercent = 40 + Rng.nextBelow(50);
    std::uint16_t NextId = 0;
    for (unsigned Op = 0; Op != Ops; ++Op) {
      if (Ref.empty() || Rng.nextBelow(100) < PushPercent) {
        MergeCandidate C{Rng.nextBelow(3),
                         static_cast<std::uint32_t>(2 + 2 * Rng.nextBelow(3)),
                         NextId, static_cast<std::uint16_t>(NextId + 1)};
        ++NextId;
        Heap.push(C);
        Ref.push(C);
        continue;
      }
      ASSERT_EQ(Heap.size(), Ref.size());
      ASSERT_EQ(Heap.top().A, Ref.top().A) << "sequence " << Seq;
      ASSERT_EQ(Heap.top().B, Ref.top().B) << "sequence " << Seq;
      Heap.pop();
      Ref.pop();
    }
    while (!Ref.empty()) {
      ASSERT_FALSE(Heap.empty());
      ASSERT_EQ(Heap.top().A, Ref.top().A) << "sequence " << Seq;
      ASSERT_EQ(Heap.top().B, Ref.top().B) << "sequence " << Seq;
      Heap.pop();
      Ref.pop();
    }
    EXPECT_TRUE(Heap.empty());
  }
}

TEST(Clusterer, TieOrderGolden) {
  // Equal sizes and all-equal dots: every merge choice is a full tie
  // broken by the heap layout, so these hashes pin the merge order.
  struct Case {
    const char *Preset;
    bool SharedBlock;
    std::uint64_t Hash;
  };
  const Case Cases[] = {
      {"harpertown", false, 0xe86b640847f7c58dull},
      {"harpertown", true, 0x143a746013cb60a1ull},
      {"dunnington", false, 0xe8c911abfa887d1full},
      {"dunnington", true, 0x85b22d30eb182e79ull},
  };
  for (const Case &C : Cases) {
    CacheTopology Topo = makePresetByName(C.Preset);
    ClusteringResult R =
        clusterForTopology(tiedGroups(96, 8, C.SharedBlock), Topo, 0.10);
    EXPECT_EQ(hashPlacement(R), C.Hash)
        << C.Preset << (C.SharedBlock ? " shared" : " disjoint");
  }
}

TEST(ClustererDeathTest, RejectsEmptyGroups) {
  std::vector<IterationGroup> Groups = tiedGroups(4, 2, true);
  Groups[2].Iterations.clear();
  CacheTopology Topo = makeHarpertown();
  EXPECT_DEATH(clusterForTopology(std::move(Groups), Topo, 0.10),
               "nonempty iteration groups");
}

TEST(Clusterer, AssignsEveryGroupExactlyOnce) {
  Program P = makeStencil2D("s", 64, 1);
  std::vector<IterationGroup> Groups = makeGroups(P, 256);
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);

  std::vector<unsigned> Owner(R.Groups.size(), UINT_MAX);
  for (std::size_t C = 0; C != R.CoreGroups.size(); ++C)
    for (std::uint32_t G : R.CoreGroups[C]) {
      EXPECT_EQ(Owner[G], UINT_MAX) << "group on two cores";
      Owner[G] = C;
    }
  for (unsigned O : Owner)
    EXPECT_NE(O, UINT_MAX) << "group unassigned";
}

TEST(Clusterer, PreservesIterationTotal) {
  Program P = makeBanded("b", 20000, 2048);
  std::vector<IterationGroup> Groups = makeGroups(P, 256);
  std::uint64_t Before = 0;
  for (const IterationGroup &G : Groups)
    Before += G.size();

  CacheTopology Topo = makeHarpertown().scaledCapacity(1.0 / 32);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);
  std::uint64_t After = 0;
  for (std::uint64_t S : coreSizes(R))
    After += S;
  EXPECT_EQ(Before, After);
}

TEST(Clusterer, RespectsBalanceThreshold) {
  Program P = makeStencil2D("s", 96, 1);
  std::vector<IterationGroup> Groups = makeGroups(P, 256);
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);

  std::vector<std::uint64_t> Sizes = coreSizes(R);
  std::uint64_t Total = 0;
  for (std::uint64_t S : Sizes)
    Total += S;
  double Ideal = static_cast<double>(Total) / Sizes.size();
  for (std::uint64_t S : Sizes) {
    EXPECT_LE(S, Ideal * 1.11 + 1.0) << "core over the balance threshold";
    EXPECT_GE(S + 1.0, Ideal * 0.89) << "core starved";
  }
}

TEST(Clusterer, SplitsAreRecordedAndConsistent) {
  Program P = makeStencil1D("s", 5000, 1);
  std::vector<IterationGroup> Groups = makeGroups(P, 2048, /*Coarsen=*/8);
  std::size_t Original = Groups.size();
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);

  // 8 coarse groups over 12 cores force splits.
  EXPECT_GT(R.Groups.size(), Original);
  EXPECT_EQ(R.Groups.size(), Original + R.Splits.size());
  for (auto [Parent, Child] : R.Splits) {
    EXPECT_LT(Parent, Child);
    EXPECT_LT(Child, R.Groups.size());
    EXPECT_EQ(R.Groups[Parent].Tag, R.Groups[Child].Tag);
    // Head precedes tail in iteration order.
    EXPECT_LT(R.Groups[Parent].Iterations.front(),
              R.Groups[Child].Iterations.front());
  }
}

TEST(Clusterer, FewerIterationsThanCoresLeavesIdleCores) {
  std::vector<IterationGroup> Groups;
  Groups.emplace_back(BlockSet::fromUnsorted({0}),
                      std::vector<std::uint32_t>{0});
  Groups.emplace_back(BlockSet::fromUnsorted({1}),
                      std::vector<std::uint32_t>{1});
  CacheTopology Topo = makeDunnington();
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);
  unsigned Busy = 0;
  for (const auto &CG : R.CoreGroups)
    if (!CG.empty())
      ++Busy;
  EXPECT_GE(Busy, 1u);
  EXPECT_LE(Busy, 2u);
}

TEST(Clusterer, SharingGroupsLandTogether) {
  // Two families of groups: family A shares block 100, family B shares
  // block 200, no cross sharing. On a 2-socket machine the families
  // should separate by socket (or at least not interleave pairwise).
  std::vector<IterationGroup> Groups;
  std::uint32_t Iter = 0;
  for (int I = 0; I < 8; ++I) {
    std::vector<std::uint32_t> Members;
    for (int K = 0; K < 10; ++K)
      Members.push_back(Iter++);
    BlockSet Tag = BlockSet::fromUnsorted(
        {static_cast<std::uint32_t>(I < 4 ? 100 : 200),
         static_cast<std::uint32_t>(I)});
    Groups.emplace_back(Tag, Members);
  }
  // Two cores sharing nothing but memory.
  CacheTopology Topo = makeSymmetricTopology(
      "pair", 2, {{1, 1, {1024, 2, 64, 2}}}, 100);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);

  // Each core should hold one family.
  for (const auto &CG : R.CoreGroups) {
    ASSERT_FALSE(CG.empty());
    bool HasA = false, HasB = false;
    for (std::uint32_t G : CG) {
      if (R.Groups[G].Tag.contains(100))
        HasA = true;
      if (R.Groups[G].Tag.contains(200))
        HasB = true;
    }
    EXPECT_NE(HasA, HasB) << "families mixed on one core";
  }
}

// Balance property across machines and workload shapes.
struct ClusterCase {
  const char *Preset;
  double Threshold;
};

class ClustererSweep : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(ClustererSweep, BalancedOnEveryMachine) {
  auto [Preset, Threshold] = GetParam();
  Program P = makeStencil2D("s", 80, 1);
  std::vector<IterationGroup> Groups = makeGroups(P, 256);
  CacheTopology Topo = makePresetByName(Preset).scaledCapacity(1.0 / 32);
  ClusteringResult R =
      clusterForTopology(std::move(Groups), Topo, Threshold);

  std::vector<std::uint64_t> Sizes = coreSizes(R);
  std::uint64_t Total = 0, Max = 0;
  for (std::uint64_t S : Sizes) {
    Total += S;
    Max = std::max(Max, S);
  }
  double Ideal = static_cast<double>(Total) / Sizes.size();
  EXPECT_LE(static_cast<double>(Max), Ideal * (1.0 + Threshold) + 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, ClustererSweep,
    ::testing::Values(ClusterCase{"harpertown", 0.10},
                      ClusterCase{"nehalem", 0.10},
                      ClusterCase{"dunnington", 0.10},
                      ClusterCase{"arch-i", 0.10},
                      ClusterCase{"arch-ii", 0.15},
                      ClusterCase{"dunnington", 0.05}));
