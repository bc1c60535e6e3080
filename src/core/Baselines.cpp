//===- core/Baselines.cpp - Base, Base+ and Local mappings ----------------===//

#include "core/Baselines.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <numeric>

using namespace cta;

/// The Base+ order: tile tuple (truncating division by the extents) first,
/// then iteration id within a tile.
static bool tileLess(const IterationTable &Table,
                     const std::vector<std::uint32_t> &Tile, std::uint32_t A,
                     std::uint32_t B) {
  const std::int32_t *PA = Table.raw(A);
  const std::int32_t *PB = Table.raw(B);
  for (unsigned D = 0, E = Tile.size(); D != E; ++D) {
    std::int32_t TA = PA[D] / static_cast<std::int32_t>(Tile[D]);
    std::int32_t TB = PB[D] / static_cast<std::int32_t>(Tile[D]);
    if (TA != TB)
      return TA < TB;
  }
  return A < B;
}

Mapping cta::mapBase(const IterationTable &Table, unsigned NumCores) {
  if (NumCores == 0)
    reportFatalError("mapping requires at least one core");
  Mapping Map;
  Map.StrategyName = "Base";
  Map.NumCores = NumCores;
  Map.CoreIterations.resize(NumCores);
  // The contiguous ranges baseOwner() assigns: the first N % NumCores
  // cores take one iteration more.
  const std::uint32_t N = Table.size();
  const std::uint32_t Chunk = N / NumCores, Rem = N % NumCores;
  std::uint32_t Begin = 0;
  for (unsigned C = 0; C != NumCores; ++C) {
    std::vector<std::uint32_t> &Iters = Map.CoreIterations[C];
    Iters.resize(Chunk + (C < Rem ? 1 : 0));
    std::iota(Iters.begin(), Iters.end(), Begin);
    Begin += Iters.size();
  }
  return Map;
}

std::vector<std::uint32_t>
cta::pickTileSizes(const LoopNest &Nest, const std::vector<ArrayDecl> &Arrays,
                   std::uint64_t L1CapacityBytes) {
  const unsigned Depth = Nest.depth();
  std::uint64_t BytesPerIter = 0;
  for (const ArrayAccess &A : Nest.accesses())
    BytesPerIter += Arrays[A.ArrayId].ElementSize;
  if (BytesPerIter == 0)
    BytesPerIter = 8;

  // Target tile volume: iterations whose (upper-bound) footprint fits L1.
  std::uint64_t Volume = std::max<std::uint64_t>(
      L1CapacityBytes / BytesPerIter, 1);
  double Side = std::pow(static_cast<double>(Volume),
                         1.0 / std::max(1u, Depth));
  std::uint32_t Extent =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(Side));
  return std::vector<std::uint32_t>(Depth, Extent);
}

Mapping cta::mapBasePlus(const LoopNest &Nest,
                         const std::vector<ArrayDecl> &Arrays,
                         const IterationTable &Table, unsigned NumCores,
                         std::uint64_t L1CapacityBytes,
                         const std::vector<std::uint32_t> &TileOverride) {
  Mapping Map = mapBase(Table, NumCores);
  Map.StrategyName = "Base+";

  std::vector<std::uint32_t> Tile =
      TileOverride.empty() ? pickTileSizes(Nest, Arrays, L1CapacityBytes)
                           : TileOverride;
  const unsigned Depth = Table.depth();
  if (Tile.size() != Depth)
    reportFatalError("tile extents must match the nest depth");
  for (std::uint32_t E : Tile)
    if (E == 0 || E > INT32_MAX)
      reportFatalError("tile extents must lie in [1, 2^31)");

  // Reorder each chunk by tile coordinates, then lexicographically within a
  // tile: a blocked execution of the original chunk.
  std::vector<std::uint32_t> Rank, Count;
  for (auto &Chunk : Map.CoreIterations) {
    const std::size_t M = Chunk.size();
    if (M < 2)
      continue;
    // Base chunks are contiguous id ranges: Chunk[I] == First + I.
    const std::uint32_t First = Chunk.front();
    // Rank each iteration by its tile tuple read as a mixed-radix number
    // over the chunk's per-dimension tile ranges (dimension 0 most
    // significant), so rank order is the comparator's tuple order. A grid
    // much larger than the chunk would make the counting sort cost more
    // than the comparison sort it replaces; ranks must fit 32 bits.
    const std::uint64_t MaxCells =
        std::min<std::uint64_t>(4 * std::uint64_t(M) + 1024, UINT32_MAX);
    std::uint64_t Cells = 1;
    Rank.assign(M, 0);
    for (unsigned D = 0; D != Depth; ++D) {
      const auto Extent = static_cast<std::int32_t>(Tile[D]);
      std::int32_t Lo = INT32_MAX, Hi = INT32_MIN;
      for (std::uint32_t I = 0; I != M; ++I) {
        Lo = std::min(Lo, Table.raw(First + I)[D]);
        Hi = std::max(Hi, Table.raw(First + I)[D]);
      }
      // Truncating division is monotone, so the tile range follows from
      // the coordinate range.
      const std::int32_t TileLo = Lo / Extent;
      const std::uint64_t Range =
          std::uint64_t(std::int64_t(Hi / Extent) - TileLo) + 1;
      if (Range > MaxCells / Cells) {
        Cells = MaxCells + 1;
        break;
      }
      Cells *= Range;
      for (std::uint32_t I = 0; I != M; ++I)
        Rank[I] = Rank[I] * static_cast<std::uint32_t>(Range) +
                  (static_cast<std::uint32_t>(Table.raw(First + I)[D] /
                                              Extent) -
                   static_cast<std::uint32_t>(TileLo));
    }
    if (Cells > MaxCells) {
      std::stable_sort(Chunk.begin(), Chunk.end(),
                       [&](std::uint32_t A, std::uint32_t B) {
                         return tileLess(Table, Tile, A, B);
                       });
      continue;
    }
    // Stable counting sort by rank, written back in place. Chunks are
    // id-ascending, so equal tiles keep ascending ids, the comparator's
    // tie order.
    Count.assign(Cells + 1, 0);
    for (std::uint32_t I = 0; I != M; ++I)
      ++Count[Rank[I] + 1];
    for (std::uint64_t C = 1; C != Cells; ++C)
      Count[C] += Count[C - 1];
    for (std::uint32_t I = 0; I != M; ++I)
      Chunk[Count[Rank[I]]++] = First + I;
  }
  return Map;
}

Mapping cta::mapLocal(const IterationTable &Table,
                      const std::vector<IterationGroup> &Groups,
                      const SchedulerDependences &Deps,
                      const CacheTopology &Topo, double Alpha, double Beta,
                      bool UsePointToPoint) {
  const unsigned NumCores = Topo.numCores();
  const std::uint32_t N = Table.size();

  // Fragment every group by Base chunk ownership: Local keeps the default
  // distribution and only reorganizes within cores.
  std::vector<IterationGroup> Fragments;
  std::vector<std::vector<std::uint32_t>> CoreGroups(NumCores);
  SchedulerDependences FragDeps;
  FragDeps.OriginPreds = Deps.OriginPreds;
  FragDeps.HasDependences = Deps.HasDependences;

  // Per origin: fragment ids in ascending first-iteration order (group
  // member lists are ascending, and we emit core fragments in ascending
  // chunk order, so emission order is ascending already).
  std::vector<std::vector<std::uint32_t>> PartsOfOrigin(Groups.size());

  for (std::uint32_t G = 0, E = Groups.size(); G != E; ++G) {
    std::vector<std::vector<std::uint32_t>> PerCore(NumCores);
    for (std::uint32_t It : Groups[G].Iterations)
      PerCore[baseOwner(It, N, NumCores)].push_back(It);
    for (unsigned C = 0; C != NumCores; ++C) {
      if (PerCore[C].empty())
        continue;
      std::uint32_t FragId = Fragments.size();
      Fragments.emplace_back(Groups[G].Tag, std::move(PerCore[C]));
      CoreGroups[C].push_back(FragId);
      FragDeps.OriginOf.push_back(Deps.OriginOf[G]);
      PartsOfOrigin[Deps.OriginOf[G]].push_back(FragId);
    }
  }

  // Chain parts of each origin by first iteration so intra-origin order is
  // preserved under synchronization. Without dependences any order is
  // legal, so no chains are needed.
  FragDeps.PrevPart.assign(Fragments.size(), UINT32_MAX);
  if (Deps.HasDependences) {
    for (auto &Parts : PartsOfOrigin) {
      std::sort(Parts.begin(), Parts.end(),
                [&](std::uint32_t A, std::uint32_t B) {
                  return Fragments[A].Iterations.front() <
                         Fragments[B].Iterations.front();
                });
      for (std::size_t I = 1; I < Parts.size(); ++I)
        FragDeps.PrevPart[Parts[I]] = Parts[I - 1];
    }
  }

  ScheduleResult Sched =
      scheduleGroups(Fragments, CoreGroups, FragDeps, Topo, Alpha, Beta);
  return scheduleToMapping(Fragments, std::move(Sched), NumCores, "Local",
                           &FragDeps, UsePointToPoint);
}
