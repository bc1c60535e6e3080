//===- sim/Engine.h - Mapping execution engine -----------------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a Mapping on a MachineSim: every core runs its assigned
/// iterations in schedule order; cores are interleaved by a discrete-event
/// loop (the core with the smallest local clock issues its next iteration),
/// and global round barriers synchronize cores when the mapping requires
/// them. The result is the execution-cycle metric all the paper's figures
/// are built on: the finishing time of the slowest core.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SIM_ENGINE_H
#define CTA_SIM_ENGINE_H

#include "core/Mapping.h"
#include "poly/Program.h"
#include "sim/MachineSim.h"

#include <cstdint>
#include <vector>

namespace cta {

/// Row-major array placement in the simulated address space: arrays laid
/// out back to back, page aligned. A layout ending at or above
/// AddressLimit is a fatal error, so no line address reaches
/// Cache::InvalidTag.
class AddressMap {
  std::vector<std::uint64_t> Base;
  std::vector<unsigned> ElementSize;

public:
  static constexpr std::uint64_t PageSize = 4096;
  static constexpr std::uint64_t FirstAddress = PageSize; // keep 0 unused
  static constexpr std::uint64_t AddressLimit = std::uint64_t(1) << 62;

  explicit AddressMap(const std::vector<ArrayDecl> &Arrays);

  std::uint64_t baseOf(unsigned ArrayId) const {
    assert(ArrayId < Base.size() && "bad array id");
    return Base[ArrayId];
  }

  std::uint64_t addrOf(unsigned ArrayId, std::int64_t FlatIndex) const {
    assert(ArrayId < Base.size() && "bad array id");
    return Base[ArrayId] +
           static_cast<std::uint64_t>(FlatIndex) * ElementSize[ArrayId];
  }
};

/// Outcome of executing one mapping.
struct ExecutionResult {
  std::uint64_t TotalCycles = 0;          // finishing time of slowest core
  std::vector<std::uint64_t> CoreCycles;  // per-core finishing times
  SimStats Stats;                         // cache behaviour of this run
  std::vector<CacheNodeStats> PerCache;   // per cache instance, node order
};

class AccessTrace;
class ThreadPool;

/// Engine concurrency options, threaded from `cta run --sim-threads=N`
/// (CTA_SIM_THREADS) through serve::Service down to executeTrace.
struct SimExec {
  /// 1 = sequential engine (the default); 0 = one thread per hardware
  /// thread; N > 1 = epoch-parallel engine with at most N workers.
  /// Results are bit-identical across every value by construction —
  /// threads only change wall time.
  unsigned Threads = 1;

  /// Optional shared pool (the serve daemon lends its own); when null and
  /// Threads != 1 the engine brings up a pool for the call. Workers of a
  /// lent pool help instead of blocking, so nesting under exec/ jobs
  /// cannot deadlock.
  ThreadPool *Pool = nullptr;
};

/// Executes nest \p NestIdx of \p Prog under \p Map on \p Machine. The
/// iteration table must be the nest's lexicographic enumeration (the
/// pipeline guarantees ids match). Statistics cover only this execution;
/// cache contents persist across calls so multi-nest programs stay warm.
///
/// This is the fast path: the nest is lowered to an AccessTrace
/// (precompiled per-iteration byte addresses) and cores are interleaved
/// by a binary min-heap keyed on (cycle, core). Bit-identical results to
/// executeMappingReference().
ExecutionResult executeMapping(MachineSim &Machine, const Program &Prog,
                               unsigned NestIdx, const IterationTable &Table,
                               const Mapping &Map, const AddressMap &Addrs);

/// Fast-path core: executes \p Map over an already-compiled \p Trace.
/// The experiment driver shares one trace across every (machine x
/// strategy) run of the same workload via the TraceRegistry.
ExecutionResult executeTrace(MachineSim &Machine, const AccessTrace &Trace,
                             const Mapping &Map);

/// As above with engine concurrency options. With \p Exec.Threads != 1
/// and an eligible schedule (no point-to-point dependences, no trace log
/// attached) the epoch-parallel engine runs per-core round segments
/// concurrently and merges shared-level probes deterministically at round
/// boundaries; everything else falls back to the sequential engine.
/// Results are bit-identical either way.
ExecutionResult executeTrace(MachineSim &Machine, const AccessTrace &Trace,
                             const Mapping &Map, const SimExec &Exec);

/// The original naive engine — per-access affine evaluation, O(NumCores)
/// min-scans, two-probe cache walks — retained as the oracle the
/// randomized differential test (tests/sim_equivalence_test.cpp) checks
/// the fast path against.
ExecutionResult executeMappingReference(MachineSim &Machine,
                                        const Program &Prog, unsigned NestIdx,
                                        const IterationTable &Table,
                                        const Mapping &Map,
                                        const AddressMap &Addrs);

} // namespace cta

#endif // CTA_SIM_ENGINE_H
