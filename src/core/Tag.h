//===- core/Tag.h - Iteration-group tags and sharing vectors ---*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tags and cluster signatures (Section 3.3 and Figure 6):
///
///  * BlockSet - an iteration group's tag: the set of data blocks all of
///    its iterations access, semantically the paper's bit string
///    d0 d1 ... dn-1, stored as a sorted sparse id list (tags are sparse:
///    an iteration touches a handful of blocks out of thousands).
///  * SharingVector - a cluster's signature: the "bitwise sum" of member
///    tags, i.e. a per-block count. The dot product of two sharing vectors
///    is the Figure 6 clustering measure; for 0/1 tags it reduces to the
///    "number of common 1s" edge weight of the affinity graph.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_CORE_TAG_H
#define CTA_CORE_TAG_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace cta {

/// Sorted set of data-block ids; an iteration group's tag.
class BlockSet {
  std::vector<std::uint32_t> Ids; // sorted, unique

public:
  BlockSet() = default;

  /// Builds from possibly unsorted, possibly duplicated ids.
  static BlockSet fromUnsorted(std::vector<std::uint32_t> Raw) {
    std::sort(Raw.begin(), Raw.end());
    Raw.erase(std::unique(Raw.begin(), Raw.end()), Raw.end());
    BlockSet S;
    S.Ids = std::move(Raw);
    return S;
  }

  /// Builds from ids already sorted and unique.
  static BlockSet fromSorted(std::vector<std::uint32_t> Sorted) {
    assert(std::is_sorted(Sorted.begin(), Sorted.end()) &&
           std::adjacent_find(Sorted.begin(), Sorted.end()) == Sorted.end() &&
           "ids must be sorted and unique");
    BlockSet S;
    S.Ids = std::move(Sorted);
    return S;
  }

  const std::vector<std::uint32_t> &ids() const { return Ids; }
  std::uint32_t size() const { return Ids.size(); }
  bool empty() const { return Ids.empty(); }

  bool contains(std::uint32_t Id) const {
    return std::binary_search(Ids.begin(), Ids.end(), Id);
  }

  /// Number of common blocks ("number of common 1s"): the affinity-graph
  /// edge weight between two iteration groups.
  std::uint32_t dot(const BlockSet &RHS) const {
    std::uint32_t N = 0;
    auto A = Ids.begin(), AE = Ids.end();
    auto B = RHS.Ids.begin(), BE = RHS.Ids.end();
    while (A != AE && B != BE) {
      if (*A < *B)
        ++A;
      else if (*B < *A)
        ++B;
      else {
        ++N;
        ++A;
        ++B;
      }
    }
    return N;
  }

  /// Hamming distance between the tags viewed as bit strings (symmetric
  /// difference size), Section 3.5.3's contiguous-scheduling measure.
  std::uint32_t hammingDistance(const BlockSet &RHS) const {
    return size() + RHS.size() - 2 * dot(RHS);
  }

  /// Union ("bitwise OR") of two tags; used when iteration groups merge.
  BlockSet unionWith(const BlockSet &RHS) const {
    std::vector<std::uint32_t> Out;
    Out.reserve(Ids.size() + RHS.Ids.size());
    std::set_union(Ids.begin(), Ids.end(), RHS.Ids.begin(), RHS.Ids.end(),
                   std::back_inserter(Out));
    return fromSorted(std::move(Out));
  }

  bool operator==(const BlockSet &RHS) const { return Ids == RHS.Ids; }
  bool operator!=(const BlockSet &RHS) const { return !(*this == RHS); }

  /// FNV-1a hash for tag-keyed hash maps.
  std::uint64_t hash() const { return hashOf(Ids); }

  /// hash() of the tag with ids \p Sorted (sorted and unique), without
  /// building it.
  static std::uint64_t hashOf(const std::vector<std::uint32_t> &Sorted) {
    std::uint64_t H = 1469598103934665603ull;
    for (std::uint32_t Id : Sorted) {
      H ^= Id;
      H *= 1099511628211ull;
    }
    return H;
  }
};

/// Per-block counts: the "bitwise sum" of a cluster's member tags.
class SharingVector {
  // Sorted by block id.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> Counts;

public:
  SharingVector() = default;

  bool empty() const { return Counts.empty(); }
  std::size_t numDistinctBlocks() const { return Counts.size(); }

  std::uint32_t countOf(std::uint32_t Block) const {
    auto It = std::lower_bound(
        Counts.begin(), Counts.end(), Block,
        [](const auto &P, std::uint32_t B) { return P.first < B; });
    return (It != Counts.end() && It->first == Block) ? It->second : 0;
  }

  /// Adds a member tag (all counts += 1 on its blocks).
  void add(const BlockSet &Tag) { addWeighted(Tag, 1); }

  /// Adds \p Weight to every block of \p Tag.
  void addWeighted(const BlockSet &Tag, std::uint32_t Weight);

  /// Merges another sharing vector in.
  void add(const SharingVector &RHS);

  /// Dot product of two sharing vectors (Figure 6's clustering measure).
  std::uint64_t dot(const SharingVector &RHS) const;

  /// Dot product against a plain tag: sum of counts over the tag's blocks.
  std::uint64_t dot(const BlockSet &Tag) const;
};

} // namespace cta

#endif // CTA_CORE_TAG_H
