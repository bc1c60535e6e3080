//===- runtime/AdaptiveExecutor.h - Feedback-driven execution --*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive runtime: executes a statically computed group-structured
/// mapping, but between rounds — a round ends when every core has retired
/// its allowance of AdaptInterval groups — extracts a runtime::Feedback
/// snapshot and lets an AdaptivePolicy migrate pending groups between
/// cores. The commit point is where the sequential engine's event heap
/// already leaves every core idle at a group boundary, so migration needs
/// no new synchronization; its cost is charged organically as cold-cache
/// refill when the moved group's lines miss in the destination core's
/// private levels.
///
/// The adaptive path is sequential-only, like `--emit-trace`: remap
/// decisions depend on global cross-core state at each commit point, so
/// `--sim-threads` requests fall back to this engine (documented in
/// DESIGN.md). Determinism is unconditional — policies are deterministic
/// and the event order is the sequential engine's — so artifacts are
/// byte-identical across --jobs counts.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_RUNTIME_ADAPTIVEEXECUTOR_H
#define CTA_RUNTIME_ADAPTIVEEXECUTOR_H

#include "runtime/AdaptivePolicy.h"
#include "sim/Engine.h"

namespace cta {

class AccessTrace;

namespace runtime {

struct AdaptiveConfig {
  AdaptivePolicyKind Policy = AdaptivePolicyKind::GreedyRebalance;
  /// Groups each core retires between remap commit points (min 1).
  unsigned Interval = 4;
};

/// Executes \p Map over \p Trace with round-boundary remapping. Requires a
/// group-structured single-round barrier-free mapping (what the
/// topology-aware pipeline produces); anything else — point-to-point
/// dependences, multi-round barrier schedules, group-less baselines —
/// falls back to the static executeTrace (counted in
/// runtime.adapt.fallbacks). Statistics and results mirror executeTrace.
ExecutionResult executeAdaptive(MachineSim &Machine, const AccessTrace &Trace,
                                const Mapping &Map,
                                const AdaptiveConfig &Cfg);

/// Folds the work of disabled cores (SpeedPercent == 0) onto live ones so
/// static strategies can still run on a degraded machine: each disabled
/// core's per-round slice is appended to the live core sharing the
/// closest cache (ties: lightest load, then lowest index), round structure
/// preserved. Fatal for point-to-point schedules — their dependence
/// positions are core-relative and do not survive the fold. No-op on
/// topologies without disabled cores.
void remapDisabledCores(Mapping &Map, const CacheTopology &Topo);

} // namespace runtime
} // namespace cta

#endif // CTA_RUNTIME_ADAPTIVEEXECUTOR_H
