//===- core/HierarchicalClusterer.cpp - Figure 6 clustering ---------------===//

#include "core/HierarchicalClusterer.h"

#include "core/MergeHeap.h"
#include "obs/MetricSink.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cmath>

using namespace cta;

namespace {

obs::Counter NumMerges("clusterer.merges");
obs::Counter NumClusterSplits("clusterer.cluster-splits");
obs::Counter NumGroupSplits("clusterer.group-splits");
obs::Counter NumEvictions("clusterer.balance-evictions");

/// A working cluster: group ids plus the total iteration count. The
/// "bitwise sum" signature of Figure 6 is never materialized: the merge
/// phase tracks pairwise signature dot products incrementally (the dot is
/// bilinear in the member tags), and the balance phases keep per-cluster
/// dense block-count arrays instead.
struct Cluster {
  std::vector<std::uint32_t> GroupIds;
  std::uint64_t Size = 0;

  void addGroup(std::uint32_t Id, const IterationGroup &G) {
    GroupIds.push_back(Id);
    Size += G.size();
  }

  void absorb(Cluster &&Other) {
    GroupIds.insert(GroupIds.end(), Other.GroupIds.begin(),
                    Other.GroupIds.end());
    Size += Other.Size;
  }
};

class ClustererImpl {
  std::vector<IterationGroup> &Groups;
  const CacheTopology &Topo;
  const double Threshold;
  ClusteringResult &Result;
  std::uint32_t NumBlockIds = 0;

public:
  ClustererImpl(std::vector<IterationGroup> &Groups, const CacheTopology &Topo,
                double Threshold, ClusteringResult &Result)
      : Groups(Groups), Topo(Topo), Threshold(Threshold), Result(Result) {}

  void run() {
    // Splits reuse their parent's tag, so the id space is fixed up front.
    for (const IterationGroup &G : Groups)
      if (!G.Tag.empty())
        NumBlockIds = std::max(NumBlockIds, G.Tag.ids().back() + 1);
    std::vector<std::uint32_t> All(Groups.size());
    for (std::uint32_t I = 0, E = Groups.size(); I != E; ++I)
      All[I] = I;
    clusterNode(Topo.rootId(), std::move(All));
  }

private:
  /// Recursively distributes \p GroupIds over the subtree rooted at
  /// \p NodeId.
  void clusterNode(unsigned NodeId, std::vector<std::uint32_t> GroupIds) {
    const CacheTopology::Node &N = Topo.node(NodeId);
    if (N.Children.empty()) {
      assert(N.Core >= 0 && "leaf cache without a core");
      Result.CoreGroups[static_cast<unsigned>(N.Core)] = std::move(GroupIds);
      return;
    }
    if (N.Children.size() == 1) {
      clusterNode(N.Children[0], std::move(GroupIds));
      return;
    }

    unsigned K = N.Children.size();
    std::vector<Cluster> Clusters = partition(std::move(GroupIds), K);

    // Per-child iteration targets: this node's total split proportionally
    // to the cores each child serves (globally ideal when the parent level
    // balanced perfectly, and always feasible). Match bigger clusters to
    // bigger-capacity children before balancing.
    std::uint64_t NodeTotal = 0;
    for (const Cluster &C : Clusters)
      NodeTotal += C.Size;
    double PerCore = static_cast<double>(NodeTotal) / N.Cores.size();
    std::vector<double> Target(K);
    std::vector<unsigned> ChildOrder(K);
    for (unsigned C = 0; C != K; ++C)
      ChildOrder[C] = C;
    std::sort(ChildOrder.begin(), ChildOrder.end(),
              [&](unsigned A, unsigned B) {
                return Topo.node(N.Children[A]).Cores.size() >
                       Topo.node(N.Children[B]).Cores.size();
              });
    std::vector<unsigned> ClusterOrder(K);
    for (unsigned C = 0; C != K; ++C)
      ClusterOrder[C] = C;
    std::sort(ClusterOrder.begin(), ClusterOrder.end(),
              [&](unsigned A, unsigned B) {
                return Clusters[A].Size > Clusters[B].Size;
              });
    std::vector<Cluster> Ordered(K);
    std::vector<unsigned> ChildOfCluster(K);
    for (unsigned R = 0; R != K; ++R) {
      Ordered[R] = std::move(Clusters[ClusterOrder[R]]);
      ChildOfCluster[R] = ChildOrder[R];
      Target[R] =
          PerCore * Topo.node(N.Children[ChildOrder[R]]).Cores.size();
    }
    Clusters = std::move(Ordered);

    // Dense per-cluster block counts (the signature, scatter-stored):
    // evictionScore reads counts at a tag's blocks in O(|tag|) and group
    // moves update both sides in O(|tag|), where the sparse SharingVector
    // cost a full merge-join per score and a signature rebuild per move.
    std::vector<std::vector<std::uint32_t>> Counts(K);
    for (unsigned C = 0; C != K; ++C) {
      Counts[C].assign(NumBlockIds, 0);
      for (std::uint32_t Id : Clusters[C].GroupIds)
        for (std::uint32_t B : Groups[Id].Tag.ids())
          ++Counts[C][B];
    }
    loadBalance(Clusters, Target, Counts);
    refineBalance(Clusters, Target, Counts);
    for (unsigned C = 0; C != K; ++C)
      clusterNode(N.Children[ChildOfCluster[C]],
                  std::move(Clusters[C].GroupIds));
  }

  /// Splits \p GroupIds into exactly \p K clusters by agglomerative
  /// max-affinity merging (splitting when there are too few).
  std::vector<Cluster> partition(std::vector<std::uint32_t> GroupIds,
                                 unsigned K) {
    std::vector<Cluster> Clusters;
    Clusters.reserve(GroupIds.size());
    for (std::uint32_t Id : GroupIds) {
      Cluster C;
      C.addGroup(Id, Groups[Id]);
      Clusters.push_back(std::move(C));
    }

    if (Clusters.size() > K)
      mergeDown(Clusters, K);
    while (Clusters.size() < K)
      splitLargest(Clusters);
    return Clusters;
  }

  void mergeDown(std::vector<Cluster> &Clusters, unsigned K) {
    const std::uint32_t N = Clusters.size();
    if (N > UINT16_MAX)
      reportFatalError("too many clusters for the merge heap's 16-bit ids");
    std::vector<bool> Alive(N, true);
    // Per-cluster sizes, the heap's staleness stamps (see MergeCandidate);
    // clusterForTopology bounds their sum by UINT32_MAX.
    std::vector<std::uint32_t> Size(N);
    for (std::uint32_t I = 0; I != N; ++I)
      Size[I] = static_cast<std::uint32_t>(Clusters[I].Size);
    MergeHeap Heap;
    Heap.reserve(static_cast<std::size_t>(N) * N);

    // Pairwise signature dot products, maintained incrementally: the dot
    // is bilinear in the member tags, so dot(A+B, I) = dot(A, I) +
    // dot(B, I) exactly. Seeding inverts tag->cluster (every block
    // contributes occurrences^2 products) instead of N^2 merge-joins, and
    // each merge folds the absorbed row into the survivor in O(N), where
    // the old code recomputed N dots over ever-growing signatures.
    std::vector<std::uint64_t> DotM(static_cast<std::size_t>(N) * N, 0);
    {
      std::vector<std::vector<std::uint32_t>> Occ(NumBlockIds);
      for (std::uint32_t A = 0; A != N; ++A)
        for (std::uint32_t B : Groups[Clusters[A].GroupIds[0]].Tag.ids())
          Occ[B].push_back(A);
      for (const std::vector<std::uint32_t> &V : Occ)
        for (std::size_t I = 0, E = V.size(); I != E; ++I)
          for (std::size_t J = I + 1; J != E; ++J) {
            ++DotM[static_cast<std::size_t>(V[I]) * N + V[J]];
            ++DotM[static_cast<std::size_t>(V[J]) * N + V[I]];
          }
    }

    for (std::uint32_t A = 0; A != N; ++A)
      for (std::uint32_t B = A + 1; B != N; ++B)
        Heap.push({DotM[static_cast<std::size_t>(A) * N + B],
                   Size[A] + Size[B], static_cast<std::uint16_t>(A),
                   static_cast<std::uint16_t>(B)});

    // Every alive pair has exactly one current candidate in the heap, so
    // while two clusters are alive a pop finds one.
    std::uint32_t AliveCount = N;
    while (AliveCount > K) {
      // Skip stale candidates: a side died or grew since the push.
      MergeCandidate Top{};
      do {
        if (Heap.empty())
          cta_unreachable("merge heap ran dry with clusters left to merge");
        Top = Heap.top();
        Heap.pop();
      } while (!Alive[Top.A] || !Alive[Top.B] ||
               Top.TieBreakSize != Size[Top.A] + Size[Top.B]);
      const std::uint32_t A = Top.A, B = Top.B;
      Clusters[A].absorb(std::move(Clusters[B]));
      Size[A] += Size[B];
      Alive[B] = false;
      --AliveCount;
      ++NumMerges;
      // Fold row B into row A, mirror it into column A and push the
      // survivor's new pairs in ascending I. Dead rows and columns are
      // never read again: only alive pairs are pushed and only an alive
      // row is ever folded.
      std::uint64_t *RowA = &DotM[static_cast<std::size_t>(A) * N];
      const std::uint64_t *RowB = &DotM[static_cast<std::size_t>(B) * N];
      for (std::uint32_t I = 0; I != N; ++I) {
        if (!Alive[I])
          continue;
        RowA[I] += RowB[I];
        DotM[static_cast<std::size_t>(I) * N + A] = RowA[I];
        if (I != A)
          Heap.push({RowA[I], Size[A] + Size[I],
                     static_cast<std::uint16_t>(std::min(I, A)),
                     static_cast<std::uint16_t>(std::max(I, A))});
      }
    }

    std::vector<Cluster> Out;
    Out.reserve(K);
    for (std::uint32_t I = 0; I != N; ++I)
      if (Alive[I])
        Out.push_back(std::move(Clusters[I]));
    Clusters = std::move(Out);
  }

  /// Adds one cluster by splitting the largest existing one. A multi-group
  /// cluster is bipartitioned greedily by size; a single-group cluster has
  /// its group's iterations split in half.
  void splitLargest(std::vector<Cluster> &Clusters) {
    if (Clusters.empty()) {
      Clusters.emplace_back(); // no work at all: empty cluster
      return;
    }
    std::size_t Largest = 0;
    for (std::size_t I = 1; I != Clusters.size(); ++I)
      if (Clusters[I].Size > Clusters[Largest].Size)
        Largest = I;

    Cluster &Src = Clusters[Largest];
    Cluster NewCluster;
    ++NumClusterSplits;
    if (Src.GroupIds.size() >= 2) {
      // Greedy size bipartition: place groups (largest first) into the
      // lighter side.
      std::vector<std::uint32_t> Ids = std::move(Src.GroupIds);
      std::sort(Ids.begin(), Ids.end(),
                [&](std::uint32_t A, std::uint32_t B) {
                  return Groups[A].size() > Groups[B].size();
                });
      Cluster SideA, SideB;
      for (std::uint32_t Id : Ids) {
        Cluster &Side = SideA.Size <= SideB.Size ? SideA : SideB;
        Side.addGroup(Id, Groups[Id]);
      }
      Src = std::move(SideA);
      NewCluster = std::move(SideB);
    } else if (Src.GroupIds.size() == 1 &&
               Groups[Src.GroupIds[0]].size() >= 2) {
      std::uint32_t ParentId = Src.GroupIds[0];
      std::uint32_t Tail = Groups[ParentId].size() / 2;
      std::uint32_t NewId = Groups.size();
      Groups.push_back(Groups[ParentId].splitTail(Tail));
      Result.Splits.emplace_back(ParentId, NewId);
      ++NumGroupSplits;
      // Rebuild both clusters' cached state.
      Src = Cluster();
      Src.addGroup(ParentId, Groups[ParentId]);
      NewCluster.addGroup(NewId, Groups[NewId]);
    }
    // else: nothing splittable; add an empty cluster (idle core).
    Clusters.push_back(std::move(NewCluster));
  }

  /// Greedy load balancing within \p Clusters (Figure 6's second phase).
  /// \p Target holds each cluster's ideal iteration count; the balance
  /// threshold bounds the tolerated deviation from it.
  void loadBalance(std::vector<Cluster> &Clusters,
                   const std::vector<double> &Target,
                   std::vector<std::vector<std::uint32_t>> &Counts) {
    const unsigned K = Clusters.size();
    if (K < 2)
      return;
    assert(Target.size() == K && "one target per cluster");
    std::vector<std::uint64_t> Up(K), Low(K);
    for (unsigned I = 0; I != K; ++I) {
      Up[I] = static_cast<std::uint64_t>(
          std::ceil(Target[I] * (1.0 + Threshold)));
      Low[I] = static_cast<std::uint64_t>(
          std::floor(Target[I] * (1.0 - Threshold)));
    }

    // Termination guard: every step strictly reduces the donor's excess.
    // Affinity-first merging can produce one giant cluster (sharing chains
    // snowball), so the balancer may need to relocate a large fraction of
    // all groups; budget accordingly.
    std::size_t TotalGroups = 0;
    for (const Cluster &C : Clusters)
      TotalGroups += C.GroupIds.size();
    std::uint64_t StepsLeft = 4 * TotalGroups + 64;
    while (StepsLeft-- > 0) {
      // Figure 6 stops when *all* clusters are inside [Low, Up]: both a
      // cluster above its upper limit and one starved below its lower
      // limit keep the balancer running. Work always flows from the
      // largest surplus to the largest deficit.
      std::size_t Donor = SIZE_MAX;
      double DonorExcess = 0.0;
      bool Violation = false;
      for (std::size_t I = 0; I != K; ++I) {
        double Delta = static_cast<double>(Clusters[I].Size) - Target[I];
        if (Delta > DonorExcess) {
          Donor = I;
          DonorExcess = Delta;
        }
        if (Clusters[I].Size > Up[I] || Clusters[I].Size < Low[I])
          Violation = true;
      }
      if (!Violation || Donor == SIZE_MAX)
        break; // everyone within the balance threshold

      // Recipient: fill the deepest-below-target cluster toward its target
      // first; once no one is below target, spill toward the roomiest
      // upper limit. Filling to target (not to Up) first keeps the global
      // deficit from piling up on a few starved clusters.
      std::size_t Recipient = SIZE_MAX;
      double BestDeficit = 0.0;
      std::uint64_t BestRoom = 0;
      for (std::size_t I = 0; I != K; ++I) {
        if (I == Donor)
          continue;
        double Deficit =
            Target[I] - static_cast<double>(Clusters[I].Size);
        std::uint64_t RoomToUp =
            Up[I] > Clusters[I].Size ? Up[I] - Clusters[I].Size : 0;
        if (Deficit > BestDeficit) {
          Recipient = I;
          BestDeficit = Deficit;
          BestRoom = RoomToUp;
        } else if (BestDeficit <= 0.0 && RoomToUp > BestRoom) {
          Recipient = I;
          BestRoom = RoomToUp;
        }
      }
      if (Recipient == SIZE_MAX || BestRoom == 0)
        break; // nowhere to put the excess
      std::uint64_t Desired =
          BestDeficit > 0.0
              ? static_cast<std::uint64_t>(
                    std::min(DonorExcess, BestDeficit))
              : std::min(static_cast<std::uint64_t>(DonorExcess), BestRoom);
      // A fractional target deficit floors to zero; spill toward the upper
      // limit instead so an over-Up donor always makes progress.
      if (Desired == 0 && Clusters[Donor].Size > Up[Donor])
        Desired = std::min(static_cast<std::uint64_t>(DonorExcess), BestRoom);
      if (Desired == 0)
        break;

      // Whole-group eviction: pick the group with max affinity to the
      // recipient among those that roughly fit the transfer (never beyond
      // the recipient's hard cap, never starving the donor below Low).
      Cluster &D = Clusters[Donor];
      Cluster &R = Clusters[Recipient];
      std::uint64_t MaxMove = std::min<std::uint64_t>(Desired, BestRoom);
      std::size_t BestIdx = SIZE_MAX;
      std::int64_t BestScore = 0;
      for (std::size_t GI = 0; GI != D.GroupIds.size(); ++GI) {
        const IterationGroup &G = Groups[D.GroupIds[GI]];
        if (G.size() > MaxMove || D.Size - G.size() < Low[Donor])
          continue;
        std::int64_t Score = evictionScore(G, Counts[Recipient], Counts[Donor]);
        if (BestIdx == SIZE_MAX || Score > BestScore) {
          BestIdx = GI;
          BestScore = Score;
        }
      }

      if (BestIdx != SIZE_MAX) {
        std::uint32_t Id = D.GroupIds[BestIdx];
        D.GroupIds.erase(D.GroupIds.begin() +
                         static_cast<std::ptrdiff_t>(BestIdx));
        D.Size -= Groups[Id].size();
        removeTag(Counts[Donor], Groups[Id].Tag);
        R.addGroup(Id, Groups[Id]);
        addTag(Counts[Recipient], Groups[Id].Tag);
        ++NumEvictions;
        continue;
      }

      // No whole group fits: split the max-affinity group so that exactly
      // the desired amount moves.
      std::size_t SplitIdx = SIZE_MAX;
      std::int64_t SplitScore = 0;
      for (std::size_t GI = 0; GI != D.GroupIds.size(); ++GI) {
        const IterationGroup &G = Groups[D.GroupIds[GI]];
        if (G.size() <= MaxMove)
          continue; // must leave a nonempty head behind
        std::int64_t Score = evictionScore(G, Counts[Recipient], Counts[Donor]);
        if (SplitIdx == SIZE_MAX || Score > SplitScore) {
          SplitIdx = GI;
          SplitScore = Score;
        }
      }
      if (SplitIdx == SIZE_MAX)
        break; // cannot improve further
      std::uint32_t ParentId = D.GroupIds[SplitIdx];
      std::uint32_t NewId = Groups.size();
      Groups.push_back(
          Groups[ParentId].splitTail(static_cast<std::uint32_t>(MaxMove)));
      Result.Splits.emplace_back(ParentId, NewId);
      ++NumGroupSplits;
      D.Size -= MaxMove;
      R.addGroup(NewId, Groups[NewId]);
      addTag(Counts[Recipient], Groups[NewId].Tag);
      ++NumEvictions;
    }
  }

  /// Whole-group refinement after the threshold-bounded phase: keep
  /// relocating groups from the largest-surplus cluster to the
  /// largest-deficit one while each move strictly shrinks the pair's worst
  /// deviation. Never splits; can only tighten the balance the threshold
  /// already allows, which matters because the finishing time of the
  /// slowest core tracks the *maximum* surplus.
  void refineBalance(std::vector<Cluster> &Clusters,
                     const std::vector<double> &Target,
                     std::vector<std::vector<std::uint32_t>> &Counts) {
    const unsigned K = Clusters.size();
    if (K < 2)
      return;
    std::size_t TotalGroups = 0;
    for (const Cluster &C : Clusters)
      TotalGroups += C.GroupIds.size();
    std::uint64_t StepsLeft = 2 * TotalGroups + 32;

    while (StepsLeft-- > 0) {
      std::size_t Donor = SIZE_MAX, Recipient = SIZE_MAX;
      double MaxDelta = 0.0, MinDelta = 0.0;
      for (std::size_t I = 0; I != K; ++I) {
        double Delta = static_cast<double>(Clusters[I].Size) - Target[I];
        if (Donor == SIZE_MAX || Delta > MaxDelta) {
          Donor = I;
          MaxDelta = Delta;
        }
        if (Recipient == SIZE_MAX || Delta < MinDelta) {
          Recipient = I;
          MinDelta = Delta;
        }
      }
      if (Donor == Recipient || MaxDelta <= 0.0)
        break;

      Cluster &D = Clusters[Donor];
      Cluster &R = Clusters[Recipient];
      double WorstBefore = std::max(MaxDelta, -MinDelta);
      std::size_t BestIdx = SIZE_MAX;
      std::int64_t BestScore = 0;
      for (std::size_t GI = 0; GI != D.GroupIds.size(); ++GI) {
        const IterationGroup &G = Groups[D.GroupIds[GI]];
        double S = G.size();
        double WorstAfter =
            std::max(std::abs(MaxDelta - S), std::abs(MinDelta + S));
        if (WorstAfter + 0.5 >= WorstBefore)
          continue; // does not strictly improve the pair
        std::int64_t Score = evictionScore(G, Counts[Recipient], Counts[Donor]);
        if (BestIdx == SIZE_MAX || Score > BestScore) {
          BestIdx = GI;
          BestScore = Score;
        }
      }
      if (BestIdx != SIZE_MAX) {
        std::uint32_t Id = D.GroupIds[BestIdx];
        D.GroupIds.erase(D.GroupIds.begin() +
                         static_cast<std::ptrdiff_t>(BestIdx));
        D.Size -= Groups[Id].size();
        removeTag(Counts[Donor], Groups[Id].Tag);
        R.addGroup(Id, Groups[Id]);
        addTag(Counts[Recipient], Groups[Id].Tag);
        ++NumEvictions;
        continue;
      }

      // No whole group improves the pair: coarse groups cap how tight the
      // balance can get, so split off exactly the surplus/deficit overlap
      // when it is worth a new group.
      constexpr std::uint64_t MinSplitIterations = 16;
      double Deficit = -MinDelta;
      std::uint64_t Desired = static_cast<std::uint64_t>(
          Deficit > 0.0 ? std::min(MaxDelta, Deficit) : MaxDelta);
      if (Desired < MinSplitIterations)
        break;
      std::size_t SplitIdx = SIZE_MAX;
      std::int64_t SplitScore = 0;
      for (std::size_t GI = 0; GI != D.GroupIds.size(); ++GI) {
        const IterationGroup &G = Groups[D.GroupIds[GI]];
        if (G.size() <= Desired)
          continue;
        std::int64_t Score = evictionScore(G, Counts[Recipient], Counts[Donor]);
        if (SplitIdx == SIZE_MAX || Score > SplitScore) {
          SplitIdx = GI;
          SplitScore = Score;
        }
      }
      if (SplitIdx == SIZE_MAX)
        break;
      std::uint32_t ParentId = D.GroupIds[SplitIdx];
      std::uint32_t NewId = Groups.size();
      Groups.push_back(
          Groups[ParentId].splitTail(static_cast<std::uint32_t>(Desired)));
      Result.Splits.emplace_back(ParentId, NewId);
      ++NumGroupSplits;
      D.Size -= Desired;
      R.addGroup(NewId, Groups[NewId]);
      addTag(Counts[Recipient], Groups[NewId].Tag);
      ++NumEvictions;
    }
  }

  /// Eviction preference: gain affinity with the recipient, lose as
  /// little as possible with the donor. A pure max-dot-to-recipient rule
  /// degenerates to arbitrary picks while the recipient's signature is
  /// still empty, scattering contiguous iteration runs across domains.
  std::int64_t evictionScore(const IterationGroup &G,
                             const std::vector<std::uint32_t> &RCounts,
                             const std::vector<std::uint32_t> &DCounts) const {
    std::int64_t ToRecipient = 0, ToDonor = 0;
    for (std::uint32_t B : G.Tag.ids()) {
      ToRecipient += RCounts[B];
      ToDonor += DCounts[B];
    }
    return ToRecipient - ToDonor;
  }

  static void addTag(std::vector<std::uint32_t> &C, const BlockSet &Tag) {
    for (std::uint32_t B : Tag.ids())
      ++C[B];
  }

  static void removeTag(std::vector<std::uint32_t> &C, const BlockSet &Tag) {
    for (std::uint32_t B : Tag.ids()) {
      assert(C[B] > 0 && "count underflow");
      --C[B];
    }
  }
};

} // namespace

ClusteringResult cta::clusterForTopology(std::vector<IterationGroup> Groups,
                                         const CacheTopology &Topo,
                                         double BalanceThreshold) {
  if (!Topo.finalized())
    reportFatalError("clusterForTopology needs a finalized topology");
  if (BalanceThreshold < 0.0)
    reportFatalError("balance threshold must be non-negative");
  // mergeDown stamps heap entries with 32-bit cluster sizes, which is
  // sound only if every absorb strictly grows the survivor.
  std::uint64_t Total = 0;
  for (const IterationGroup &G : Groups) {
    if (G.Iterations.empty())
      reportFatalError("clusterForTopology needs nonempty iteration groups");
    Total += G.size();
  }
  if (Total > UINT32_MAX)
    reportFatalError("clusterForTopology needs at most 2^32-1 iterations");

  ClusteringResult Result;
  Result.CoreGroups.resize(Topo.numCores());
  Result.Groups = std::move(Groups);
  ClustererImpl Impl(Result.Groups, Topo, BalanceThreshold, Result);
  Impl.run();
  return Result;
}
