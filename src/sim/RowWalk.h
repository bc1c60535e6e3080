//===- sim/RowWalk.h - One iteration's walk down a core's caches -*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential engine's per-iteration step, shared by executeTrace and
/// the adaptive executor (runtime::executeAdaptive): one trace row probes
/// the issuing core's cache path and advances that core's clock.
///
/// Untraced rows take the batched walk: probe the path level by level,
/// gather the level's line addresses, probe once per surviving access,
/// carry the misses down. Every cache still sees its probes in access
/// order (survivor filtering preserves it), so state and statistics are
/// bit-identical to the per-access walk — the batching only turns the
/// per-level work into tight vectorizable loops. Statistics accumulate in
/// Stats and are folded into the machine once by the caller (sums of
/// per-access counts commute). Traced rows go access by access through
/// MachineSim::access so the attached TraceLog sees every event at its
/// cycle.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SIM_ROWWALK_H
#define CTA_SIM_ROWWALK_H

#include "sim/AccessTrace.h"
#include "sim/MachineSim.h"
#include "sim/TraceLog.h"

#include <cstdint>
#include <vector>

namespace cta {

/// Stretches one iteration's duration \p D for core \p Core: identity at
/// nominal speed (or when \p Speed is empty, i.e. a uniform machine),
/// ceil(D * 100 / pct) otherwise, so a slow core is never rounded back to
/// nominal.
inline std::uint64_t scaleDuration(const std::vector<unsigned> &Speed,
                                   unsigned Core, std::uint64_t D) {
  if (Speed.empty() || Speed[Core] == 100)
    return D;
  return (D * 100 + Speed[Core] - 1) / Speed[Core];
}

class RowWalk {
  MachineSim &Machine;
  const AccessTrace &Trace;
  TraceLog *const Log;
  const std::vector<unsigned> Speed;
  const unsigned NumAccesses;
  const unsigned ComputeCycles;
  const unsigned MemLat;
  std::vector<std::uint64_t> Line;
  std::vector<std::uint32_t> Idx;
  std::vector<std::uint32_t> Lat;

public:
  /// Per-level statistics of the untraced rows walked so far.
  SimStats Stats;

  /// \p Speed holds each core's speed percentage; empty means every core
  /// runs at nominal speed.
  RowWalk(MachineSim &Machine, const AccessTrace &Trace,
          std::vector<unsigned> Speed)
      : Machine(Machine), Trace(Trace), Log(Machine.traceLog()),
        Speed(std::move(Speed)), NumAccesses(Trace.numAccesses()),
        ComputeCycles(Trace.computeCyclesPerIteration()),
        MemLat(Machine.memoryLatency()), Line(NumAccesses), Idx(NumAccesses),
        Lat(NumAccesses) {}

  /// Runs iteration \p Iter on \p Core, advancing the core's clock
  /// \p Clock past it.
  void run(unsigned Core, std::uint32_t Iter, std::uint64_t &Clock) {
    const std::uint64_t *Row = Trace.row(Iter);
    std::uint64_t C = Clock;
    const std::uint64_t Start = C;
    if (Log != nullptr) {
      for (unsigned A = 0; A != NumAccesses; ++A) {
        Log->setCycle(Core, C);
        C += Machine.access(Core, Row[A], Trace.isWrite(A));
      }
    } else {
      Stats.TotalAccesses += NumAccesses;
      unsigned Alive = NumAccesses;
      for (unsigned A = 0; A != NumAccesses; ++A)
        Idx[A] = A;
      for (const MachineSim::PathEntry &E : Machine.corePath(Core)) {
        if (Alive == 0)
          break;
        Stats.Levels[E.Level].Lookups += Alive;
        for (unsigned J = 0; J != Alive; ++J)
          Line[J] = E.lineOf(Row[Idx[J]]);
        unsigned Surv = 0;
        std::uint64_t Hits = 0;
        for (unsigned J = 0; J != Alive; ++J) {
          if (E.C->probe(Line[J])) {
            Lat[Idx[J]] = E.Latency;
            ++Hits;
          } else {
            Idx[Surv++] = Idx[J];
          }
        }
        Stats.Levels[E.Level].Hits += Hits;
        Alive = Surv;
      }
      Stats.MemoryAccesses += Alive;
      for (unsigned J = 0; J != Alive; ++J)
        Lat[Idx[J]] = MemLat;
      for (unsigned A = 0; A != NumAccesses; ++A)
        C += Lat[A];
    }
    const std::uint64_t End =
        Start + scaleDuration(Speed, Core, C + ComputeCycles - Start);
    if (Log != nullptr)
      Log->iterationSpan(Core, Iter, Start, End);
    Clock = End;
  }
};

} // namespace cta

#endif // CTA_SIM_ROWWALK_H
