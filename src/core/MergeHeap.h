//===- core/MergeHeap.h - Exact-order merge heap ---------------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The agglomerative merge's candidate heap (private to the clusterer).
///
/// Candidates with equal Dot and equal TieBreakSize are common, and the
/// heap's internal layout decides which of them pops first. That order
/// picks the merges, so it fixes every mapping the clusterer produces.
/// MergeHeap therefore performs libstdc++'s push_heap / pop_heap steps one
/// for one (hole walks down taking the right child unless right < left,
/// the even-length lone left child, then the displaced last element sifts
/// back up). Fed the same push/pop sequence, it pops candidates in exactly
/// the order libstdc++'s std::priority_queue<MergeCandidate> does, with
/// 16-byte entries and branch-free child selection, and keeps that order
/// under any standard library.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_CORE_MERGEHEAP_H
#define CTA_CORE_MERGEHEAP_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cta {

/// A candidate merge of clusters A < B. Ids are 16 bit (mergeDown checks
/// the cluster count) and TieBreakSize is the pair's combined iteration
/// count when pushed, which doubles as the staleness stamp: clusters only
/// grow, so a candidate is current iff its TieBreakSize still equals the
/// pair's combined size.
struct MergeCandidate {
  std::uint64_t Dot;
  std::uint32_t TieBreakSize; // prefer merging smaller clusters on ties
  std::uint16_t A, B;

  /// Max-heap order: higher affinity first, then the smaller pair. The
  /// short-circuit form measured faster than a branch-free one: the Dot
  /// test predicts well and lets the next heap level load speculatively.
  bool operator<(const MergeCandidate &RHS) const {
    if (Dot != RHS.Dot)
      return Dot < RHS.Dot;
    return TieBreakSize > RHS.TieBreakSize;
  }
};
static_assert(sizeof(MergeCandidate) == 16, "heap entry stays packed");

/// Max-heap of MergeCandidate with std::priority_queue's exact pop order.
class MergeHeap {
  std::vector<MergeCandidate> H;

  /// libstdc++ __push_heap: move parents down into the hole while they
  /// compare less than \p V, then place \p V.
  void siftUp(std::size_t Hole, const MergeCandidate &V) {
    while (Hole > 0) {
      std::size_t Parent = (Hole - 1) / 2;
      if (!(H[Parent] < V))
        break;
      H[Hole] = H[Parent];
      Hole = Parent;
    }
    H[Hole] = V;
  }

public:
  void reserve(std::size_t N) { H.reserve(N); }
  bool empty() const { return H.empty(); }
  std::size_t size() const { return H.size(); }
  const MergeCandidate &top() const {
    assert(!H.empty() && "top of an empty heap");
    return H.front();
  }

  void push(const MergeCandidate &V) {
    H.push_back(V);
    siftUp(H.size() - 1, V);
  }

  /// libstdc++ pop_heap + pop_back: the last element is taken out, the
  /// hole left by the top walks down to a leaf, and the taken element
  /// sifts up from there.
  void pop() {
    assert(!H.empty() && "pop of an empty heap");
    MergeCandidate Last = H.back();
    H.pop_back();
    const std::size_t Len = H.size();
    if (Len == 0)
      return;
    std::size_t Hole = 0, Child = 0;
    while (Child < (Len - 1) / 2) {
      Child = 2 * (Child + 1);
      Child -= static_cast<std::size_t>(H[Child] < H[Child - 1]);
      H[Hole] = H[Child];
      Hole = Child;
    }
    if ((Len & 1) == 0 && Child == (Len - 2) / 2) {
      Child = 2 * (Child + 1);
      H[Hole] = H[Child - 1];
      Hole = Child - 1;
    }
    siftUp(Hole, Last);
  }
};

} // namespace cta

#endif // CTA_CORE_MERGEHEAP_H
