//===- core/Tagger.cpp - Iteration tagging and group formation ------------===//

#include "core/Tagger.h"

#include "obs/MetricSink.h"
#include "support/ErrorHandling.h"
#include "support/Random.h"

#include <algorithm>

using namespace cta;

namespace {

obs::Counter NumIterationsTagged("tagger.iterations");
obs::Counter NumGroupsFormed("tagger.groups");
obs::Counter NumGroupsCoarsened("tagger.groups-coarsened-away");

/// Open-addressing map from a tag's hash to the id of the first group
/// with that hash; collisions probe linearly and are resolved by comparing
/// the full tags. Kept at most half full.
class TagTable {
  struct Slot {
    std::uint64_t Hash;
    std::uint32_t Group; // UINT32_MAX: empty
  };
  std::vector<Slot> Slots;
  std::size_t Used = 0;

  std::size_t home(std::uint64_t H) const {
    return static_cast<std::size_t>(H ^ (H >> 32)) & (Slots.size() - 1);
  }

  void place(const Slot &S) {
    std::size_t I = home(S.Hash);
    while (Slots[I].Group != UINT32_MAX)
      I = (I + 1) & (Slots.size() - 1);
    Slots[I] = S;
  }

public:
  TagTable() : Slots(1024, Slot{0, UINT32_MAX}) {}

  /// Returns the group whose tag has ids \p Sorted and hash \p H, or
  /// UINT32_MAX.
  std::uint32_t find(std::uint64_t H, const std::vector<std::uint32_t> &Sorted,
                     const std::vector<IterationGroup> &Groups) const {
    for (std::size_t I = home(H);; I = (I + 1) & (Slots.size() - 1)) {
      const Slot &S = Slots[I];
      if (S.Group == UINT32_MAX)
        return UINT32_MAX;
      if (S.Hash == H && Groups[S.Group].Tag.ids() == Sorted)
        return S.Group;
    }
  }

  void insert(std::uint64_t H, std::uint32_t Group) {
    if (2 * (Used + 1) > Slots.size()) {
      std::vector<Slot> Old(2 * Slots.size(), Slot{0, UINT32_MAX});
      Old.swap(Slots);
      for (const Slot &S : Old)
        if (S.Group != UINT32_MAX)
          place(S);
    }
    place({H, Group});
    ++Used;
  }
};

} // namespace

TaggingResult cta::buildIterationGroups(const LoopNest &Nest,
                                        const std::vector<ArrayDecl> &Arrays,
                                        const DataBlockModel &Blocks,
                                        std::uint64_t MaxIterations) {
  TaggingResult Result;
  Result.Iterations = Nest.enumerate(MaxIterations);
  const IterationTable &Table = Result.Iterations;
  const unsigned Depth = Table.depth();

  TagTable TagToGroup;
  std::vector<IterationGroup> &Groups = Result.Groups;

  std::vector<std::int64_t> Point(Depth);
  std::vector<std::int64_t> Idx;
  std::vector<std::uint32_t> Touched;

  for (std::uint32_t Iter = 0, E = Table.size(); Iter != E; ++Iter) {
    Table.get(Iter, Point.data());
    Touched.clear();
    for (const ArrayAccess &Acc : Nest.accesses()) {
      const ArrayDecl &A = Arrays[Acc.ArrayId];
      Idx.resize(Acc.Subscripts.size());
      evaluateAccess(Acc, A, Point.data(), Idx.data());
      if (!A.inBounds(Idx.data()))
        reportFatalError("array access out of bounds while tagging");
      Touched.push_back(Blocks.blockOf(Acc.ArrayId, A.linearize(Idx.data())));
    }
    // Touched becomes the tag's sorted id list; a BlockSet is built only
    // for a tag not seen before.
    std::sort(Touched.begin(), Touched.end());
    Touched.erase(std::unique(Touched.begin(), Touched.end()), Touched.end());

    std::uint64_t H = BlockSet::hashOf(Touched);
    std::uint32_t GroupId = TagToGroup.find(H, Touched, Groups);
    if (GroupId == UINT32_MAX) {
      GroupId = Groups.size();
      Groups.emplace_back(BlockSet::fromSorted(Touched),
                          std::vector<std::uint32_t>{});
      TagToGroup.insert(H, GroupId);
    }
    Groups[GroupId].Iterations.push_back(Iter);
  }

  NumIterationsTagged += Table.size();
  NumGroupsFormed += Groups.size();
  return Result;
}

double cta::adjacentAffinityFraction(
    const std::vector<IterationGroup> &Groups) {
  // "Local" pairs live within this window in first-iteration order; wide
  // enough to cover cross-row sharing of 2D nests (a row is tens of
  // groups, so the window scales with the group count), narrow against
  // hashed/strided collisions.
  const std::size_t N = Groups.size();
  const std::size_t Window =
      std::min<std::size_t>(512, std::max<std::size_t>(32, N / 256));
  if (N <= Window + 1)
    return 1.0;

  // Local mass: the dot products of all pairs at most Window apart, i.e.
  // for every block, the pairs of groups holding it that lie within
  // Window. An inverted block -> group index (CSR, each list ascending)
  // counts them with two pointers in O(sum of tag sizes). The count is an
  // integer, so it equals the pairwise sum of dots exactly.
  std::uint32_t NumBlockIds = 0;
  for (const IterationGroup &G : Groups)
    if (!G.Tag.empty())
      NumBlockIds = std::max(NumBlockIds, G.Tag.ids().back() + 1);
  std::vector<std::size_t> Start(NumBlockIds + 1, 0);
  for (const IterationGroup &G : Groups)
    for (std::uint32_t B : G.Tag.ids())
      ++Start[B + 1];
  for (std::uint32_t B = 0; B != NumBlockIds; ++B)
    Start[B + 1] += Start[B];
  std::vector<std::uint32_t> Occ(Start[NumBlockIds]);
  {
    std::vector<std::size_t> Fill(Start.begin(), Start.end() - 1);
    for (std::uint32_t G = 0; G != N; ++G)
      for (std::uint32_t B : Groups[G].Tag.ids())
        Occ[Fill[B]++] = G;
  }
  std::uint64_t LocalCount = 0;
  for (std::uint32_t B = 0; B != NumBlockIds; ++B) {
    std::size_t Lo = Start[B];
    for (std::size_t Hi = Start[B]; Hi != Start[B + 1]; ++Hi) {
      while (Occ[Hi] - Occ[Lo] > Window)
        ++Lo;
      LocalCount += Hi - Lo;
    }
  }
  double LocalMass = static_cast<double>(LocalCount);

  // Deterministic sample of non-local pairs, extrapolated to the whole
  // pair space.
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

void cta::coarsenGroups(std::vector<IterationGroup> &Groups,
                        unsigned MaxGroups) {
  if (MaxGroups == 0)
    reportFatalError("coarsenGroups requires a nonzero target");

  // Pairwise-merge passes over neighbors in first-iteration order. Early
  // passes only fuse groups that actually share blocks - fusing unrelated
  // groups would fabricate affinity (and, worse, fabricate dependence
  // chains when the nest has loop-carried dependences). If a pass makes
  // too little progress, fall back to unconditional merging so the cost
  // cap still holds.
  bool RequireAffinity = true;
  while (Groups.size() > MaxGroups) {
    std::vector<IterationGroup> Merged;
    Merged.reserve((Groups.size() + 1) / 2);
    std::size_t Before = Groups.size();
    std::size_t I = 0;
    while (I < Groups.size()) {
      if (I + 1 == Groups.size()) {
        Merged.push_back(std::move(Groups[I]));
        break;
      }
      if (RequireAffinity && Groups[I].Tag.dot(Groups[I + 1].Tag) == 0) {
        Merged.push_back(std::move(Groups[I]));
        ++I;
        continue;
      }
      IterationGroup G;
      G.Tag = Groups[I].Tag.unionWith(Groups[I + 1].Tag);
      G.Iterations = std::move(Groups[I].Iterations);
      G.Iterations.insert(G.Iterations.end(),
                          Groups[I + 1].Iterations.begin(),
                          Groups[I + 1].Iterations.end());
      Merged.push_back(std::move(G));
      ++NumGroupsCoarsened;
      I += 2;
    }
    bool LittleProgress = Merged.size() * 20 > Before * 19;
    Groups = std::move(Merged);
    if (Groups.size() <= MaxGroups)
      break;
    if (LittleProgress) {
      if (!RequireAffinity)
        break; // cannot shrink further (degenerate single-group tails)
      // Tolerate up to 2x the target when the remaining groups are
      // mutually disjoint; beyond that, cost wins and we merge anyway.
      if (Groups.size() <= 2 * MaxGroups)
        break;
      RequireAffinity = false;
    }
  }
}
