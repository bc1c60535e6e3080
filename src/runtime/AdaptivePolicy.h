//===- runtime/AdaptivePolicy.h - Round-boundary remap policies -*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Policies that turn a Feedback snapshot into group migrations at a round
/// commit point. Two are provided: a greedy rebalancer that moves groups
/// off the projected-slowest core (preferring targets inside the same
/// shared-cache domain so the paper's locality clusters survive the move),
/// and a multiplicative-weights core selector in the CoreGuard-NMR
/// scheduler's shape — per-core weights grow when a core's observed
/// per-iteration cost is competitive and shrink when it is not, and
/// pending work is steered toward the weight distribution.
///
/// Policies must be deterministic: remap decisions feed artifacts that are
/// byte-compared across --jobs configurations.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_RUNTIME_ADAPTIVEPOLICY_H
#define CTA_RUNTIME_ADAPTIVEPOLICY_H

#include "core/IterationGroup.h"
#include "runtime/Feedback.h"
#include "topo/Topology.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace cta {
namespace runtime {

/// One planned migration: pending group \p Group leaves core \p From's
/// queue and joins the back of core \p To's queue.
struct Migration {
  std::uint32_t Group = 0;
  unsigned From = 0;
  unsigned To = 0;
};

class AdaptivePolicy {
public:
  virtual ~AdaptivePolicy();

  /// Plans migrations at a round commit point. \p Pending holds, per core,
  /// the ids of groups not yet started (front = next to run); \p Groups
  /// resolves ids to their iteration lists. Every returned migration must
  /// name a group currently pending on From and a To with nonzero speed.
  virtual std::vector<Migration>
  plan(const Feedback &FB,
       const std::vector<std::vector<std::uint32_t>> &Pending,
       const std::vector<IterationGroup> &Groups,
       const CacheTopology &Topo) = 0;

  /// Multiplicative-weight updates applied so far (0 for weightless
  /// policies); feeds the runtime.adapt.weight_updates counter.
  virtual std::uint64_t weightUpdates() const { return 0; }

  virtual const char *name() const = 0;
};

enum class AdaptivePolicyKind { GreedyRebalance, MultiplicativeWeights };

std::unique_ptr<AdaptivePolicy> makeAdaptivePolicy(AdaptivePolicyKind Kind);

} // namespace runtime
} // namespace cta

#endif // CTA_RUNTIME_ADAPTIVEPOLICY_H
