//===- tests/baselines_test.cpp - Base / Base+ / Local tests --------------===//

#include "core/Baselines.h"
#include "core/DataBlockModel.h"
#include "core/Tagger.h"
#include "topo/Presets.h"
#include "workloads/Generators.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <random>

using namespace cta;

TEST(BaseOwner, ContiguousChunksCoverEverything) {
  const std::uint32_t N = 103;
  const unsigned Cores = 8;
  unsigned Prev = 0;
  std::vector<std::uint32_t> Count(Cores, 0);
  for (std::uint32_t I = 0; I != N; ++I) {
    unsigned O = baseOwner(I, N, Cores);
    ASSERT_LT(O, Cores);
    EXPECT_GE(O, Prev) << "ownership must be monotone";
    Prev = O;
    ++Count[O];
  }
  // Counts differ by at most one (static schedule).
  std::uint32_t Min = *std::min_element(Count.begin(), Count.end());
  std::uint32_t Max = *std::max_element(Count.begin(), Count.end());
  EXPECT_LE(Max - Min, 1u);
}

TEST(MapBase, PartitionInOriginalOrder) {
  Program P = makeStencil2D("s", 24, 1);
  IterationTable T = P.Nests[0].enumerate();
  Mapping Map = mapBase(T, 6);
  EXPECT_TRUE(Map.coversExactly(T.size()));
  EXPECT_EQ(Map.NumCores, 6u);
  EXPECT_LT(Map.imbalance(), 0.02);
  for (const auto &Iters : Map.CoreIterations)
    EXPECT_TRUE(std::is_sorted(Iters.begin(), Iters.end()));
  // 576 iterations on 7 cores leave a remainder of 2.
  Mapping Uneven = mapBase(T, 7);
  for (unsigned C = 0; C != 7; ++C)
    for (std::uint32_t It : Uneven.CoreIterations[C])
      EXPECT_EQ(baseOwner(It, T.size(), 7), C);
}

TEST(PickTileSizes, ShrinksWithL1) {
  Program P = makeStencil2D("s", 64, 1);
  auto Big = pickTileSizes(P.Nests[0], P.Arrays, 64 * 1024);
  auto Small = pickTileSizes(P.Nests[0], P.Arrays, 512);
  ASSERT_EQ(Big.size(), 2u);
  ASSERT_EQ(Small.size(), 2u);
  EXPECT_GE(Big[0], Small[0]);
  EXPECT_GE(Small[0], 1u);
}

TEST(MapBasePlus, SameAssignmentAsBase) {
  // Section 4.1: the set of iterations per core is identical in Base and
  // Base+; only the order differs.
  Program P = makeStencil2D("s", 32, 1);
  IterationTable T = P.Nests[0].enumerate();
  Mapping Base = mapBase(T, 4);
  Mapping Plus = mapBasePlus(P.Nests[0], P.Arrays, T, 4, 1024);
  ASSERT_TRUE(Plus.coversExactly(T.size()));
  for (unsigned C = 0; C != 4; ++C) {
    auto A = Base.CoreIterations[C];
    auto B = Plus.CoreIterations[C];
    std::sort(B.begin(), B.end());
    EXPECT_EQ(A, B) << "Base+ moved iterations across cores";
  }
}

TEST(MapBasePlus, TilingReordersWithinChunks) {
  Program P = makeStencil2D("s", 32, 1);
  IterationTable T = P.Nests[0].enumerate();
  Mapping Plus = mapBasePlus(P.Nests[0], P.Arrays, T, 2, 512,
                             /*TileOverride=*/{4, 4});
  Mapping Base = mapBase(T, 2);
  EXPECT_NE(Plus.CoreIterations[0], Base.CoreIterations[0]);
  // Within a tile the order stays lexicographic: the first tile's
  // iterations come first.
  const std::int32_t *First = T.raw(Plus.CoreIterations[0][0]);
  EXPECT_LT(First[0], 4 + 1);
  EXPECT_LT(First[1], 4 + 1);
}

namespace {

/// The Base+ order as a comparator sort: each Base chunk stable-sorted by
/// tile tuple (truncating division), then by iteration id.
std::vector<std::vector<std::uint32_t>>
referenceBasePlus(const IterationTable &T, unsigned NumCores,
                  const std::vector<std::uint32_t> &Tile) {
  Mapping Map = mapBase(T, NumCores);
  for (auto &Chunk : Map.CoreIterations)
    std::stable_sort(Chunk.begin(), Chunk.end(),
                     [&](std::uint32_t A, std::uint32_t B) {
                       const std::int32_t *PA = T.raw(A);
                       const std::int32_t *PB = T.raw(B);
                       for (unsigned D = 0; D != T.depth(); ++D) {
                         std::int32_t TA =
                             PA[D] / static_cast<std::int32_t>(Tile[D]);
                         std::int32_t TB =
                             PB[D] / static_cast<std::int32_t>(Tile[D]);
                         if (TA != TB)
                           return TA < TB;
                       }
                       return A < B;
                     });
  return Map.CoreIterations;
}

void expectReferenceOrder(const LoopNest &Nest,
                          const std::vector<ArrayDecl> &Arrays,
                          unsigned NumCores,
                          const std::vector<std::uint32_t> &Tile) {
  IterationTable T = Nest.enumerate();
  Mapping Plus = mapBasePlus(Nest, Arrays, T, NumCores, 0, Tile);
  EXPECT_EQ(Plus.CoreIterations, referenceBasePlus(T, NumCores, Tile))
      << Nest.name() << " on " << NumCores << " cores";
}

/// A random nest of depth 1-3 whose lower bounds may be negative, so tile
/// coordinates straddle 0 (truncating division puts -3/4 and 3/4 in one
/// tile). Triangular nests bound the inner loops by outer variables.
LoopNest randomNest(std::mt19937 &Rng, bool Triangular) {
  const unsigned Depth = 1 + Rng() % 3;
  LoopNest Nest(Triangular ? "tri" : "rect", Depth);
  for (unsigned D = 0; D != Depth; ++D) {
    const std::int64_t Lo = static_cast<std::int64_t>(Rng() % 21) - 12;
    const std::int64_t Hi = Lo + 1 + Rng() % 18;
    if (Triangular && D != 0)
      Nest.addDim(LoopDim(Nest.iv(D - 1) + Lo, Nest.cst(Hi)));
    else
      Nest.addConstantDim(Lo, Hi);
  }
  return Nest;
}

} // namespace

TEST(MapBasePlus, MatchesComparatorOnSuite) {
  // The Figure 13 grid's nests, cores and L1 capacities.
  std::vector<CacheTopology> Machines;
  for (const char *Name : {"harpertown", "nehalem", "dunnington"})
    Machines.push_back(makePresetByName(Name).scaledCapacity(1.0 / 32));
  for (const std::string &Name : workloadNames()) {
    Program P = makeWorkload(Name);
    for (const LoopNest &Nest : P.Nests)
      for (const CacheTopology &Topo : Machines)
        expectReferenceOrder(
            Nest, P.Arrays, Topo.numCores(),
            pickTileSizes(Nest, P.Arrays, Topo.levelCapacity(1)));
  }
}

TEST(MapBasePlus, MatchesComparatorOnRandomNests) {
  std::mt19937 Rng(2010);
  for (unsigned Trial = 0; Trial != 300; ++Trial) {
    LoopNest Nest = randomNest(Rng, Trial % 2 == 1);
    if (Nest.countIterations() == 0)
      continue;
    std::vector<std::uint32_t> Tile(Nest.depth());
    for (std::uint32_t &E : Tile)
      E = Trial % 5 == 0 ? 1 : 1 + Rng() % 6;
    expectReferenceOrder(Nest, {}, 1 + Rng() % 5, Tile);
  }
}

TEST(MapBasePlus, SparseGridTakesTheComparatorSort) {
  // 200 iterations spread over 200 x 598 unit tiles, far more cells than
  // the counting sort allows. Dimension 1 falls as the id rises, so the
  // tiled order reverses the chunk.
  LoopNest Sparse("sparse", 3);
  Sparse.addConstantDim(0, 199);
  Sparse.addDim(LoopDim(Sparse.cst(199) - Sparse.iv(0),
                        Sparse.cst(199) - Sparse.iv(0)));
  Sparse.addDim(LoopDim(Sparse.iv(0) * 3, Sparse.iv(0) * 3));
  expectReferenceOrder(Sparse, {}, 1, {256, 1, 1});

  // Three unit-tile dimensions each spanning 2e9: the cell count would
  // overflow 64 bits.
  LoopNest Wide("wide", 4);
  Wide.addConstantDim(0, 1);
  for (unsigned D = 1; D != 4; ++D)
    Wide.addDim(LoopDim(Wide.cst(1000000000) - Wide.iv(0) * 2000000000,
                        Wide.cst(1000000000) - Wide.iv(0) * 2000000000));
  expectReferenceOrder(Wide, {}, 1, {2, 1, 1, 1});
}

TEST(MapBasePlusDeathTest, RejectsZeroTileExtent) {
  Program P = makeStencil2D("s", 8, 1);
  IterationTable T = P.Nests[0].enumerate();
  EXPECT_DEATH(mapBasePlus(P.Nests[0], P.Arrays, T, 2, 512, {4, 0}),
               "tile extents");
}

TEST(MapLocal, KeepsBaseDistribution) {
  Program P = makeStencil1D("s", 500, 1);
  DataBlockModel Blocks(P.Arrays, 256);
  TaggingResult R = buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
  CacheTopology Topo = makeHarpertown().scaledCapacity(1.0 / 32);
  Mapping Map = mapLocal(R.Iterations, R.Groups,
                         makeNoDependences(R.Groups.size()), Topo, 0.5, 0.5);
  ASSERT_TRUE(Map.coversExactly(R.Iterations.size()));
  // Every iteration stays on its Base chunk owner.
  for (unsigned C = 0; C != Map.NumCores; ++C)
    for (std::uint32_t It : Map.CoreIterations[C])
      EXPECT_EQ(baseOwner(It, R.Iterations.size(), Map.NumCores), C);
}

TEST(MapLocal, ValidatesAndBalances) {
  Program P = makeStencil2D("s", 48, 1);
  DataBlockModel Blocks(P.Arrays, 256);
  TaggingResult R = buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  Mapping Map = mapLocal(R.Iterations, R.Groups,
                         makeNoDependences(R.Groups.size()), Topo, 0.5, 0.5);
  EXPECT_TRUE(Map.validate());
  EXPECT_LT(Map.imbalance(), 0.02); // Base distribution is near-perfect
}
