//===- sim/ParallelEngine.cpp - Epoch-parallel trace engine ----------------===//

#include "sim/ParallelEngine.h"

#include "obs/MetricSink.h"
#include "sim/AccessTrace.h"
#include "sim/Arena.h"
#include "support/ErrorHandling.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>
#include <queue>

using namespace cta;

namespace {

obs::Counter NumParallelRuns("sim.parallel.runs");
obs::Counter NumArenaBytes("sim.parallel.arena-bytes");
obs::Counter NumDeferredProbes("sim.parallel.deferred-probes");
obs::Counter NumDeferredIters("sim.parallel.deferred-iters");

/// One access that missed the whole private prefix: replayed against the
/// shared suffix during the merge. PreLat is the sum of the known
/// (private-hit) latencies between the previous deferred access of the
/// same iteration (or the iteration start) and this one.
struct DeferredProbe {
  std::uint64_t Addr;
  std::uint32_t PreLat;
  std::uint32_t Pad = 0;
};

/// One iteration containing deferred probes. PreDelta is the fully-known
/// cost (whole iterations plus compute) between the previous deferred
/// iteration's end (or the round start) and this iteration's start;
/// PostDelta the known tail inside the iteration after its last deferred
/// probe, including ComputeCycles.
struct DeferredIter {
  std::uint64_t PreDelta;
  std::uint64_t PostDelta;
  std::uint32_t NumProbes;
  std::uint32_t Pad = 0;
};

/// Append-only chunked sequence carved out of an Arena: grows without
/// reallocation (merge cursors stay valid) and dies with the arena.
template <typename T> class ChunkedStore {
  struct Chunk {
    T *Data;
    std::uint32_t Len = 0;
    Chunk *Next = nullptr;
  };

  Arena &A;
  Chunk *Head = nullptr;
  Chunk *Tail = nullptr;
  static constexpr std::uint32_t ChunkCap = 4096;

  void grow() {
    Chunk *C = A.allocateArray<Chunk>(1);
    C->Data = A.allocateArray<T>(ChunkCap);
    C->Len = 0;
    C->Next = nullptr;
    if (Tail != nullptr)
      Tail->Next = C;
    else
      Head = C;
    Tail = C;
  }

public:
  explicit ChunkedStore(Arena &A) : A(A) {}

  std::uint64_t Count = 0;

  void push(const T &V) {
    if (Tail == nullptr || Tail->Len == ChunkCap)
      grow();
    Tail->Data[Tail->Len++] = V;
    ++Count;
  }

  /// Forward consumer over everything pushed so far.
  class Cursor {
    const Chunk *C = nullptr;
    std::uint32_t I = 0;

  public:
    Cursor() = default;
    explicit Cursor(const Chunk *Head) : C(Head) {}
    const T &next() {
      while (I == C->Len) {
        C = C->Next;
        I = 0;
      }
      return C->Data[I++];
    }
  };

  Cursor cursor() const { return Cursor(Head); }
};

/// Per-core phase-1 output. Line aligned: phase-1 workers write their
/// core's statistics and store tails on every access batch.
struct alignas(HostCacheLineBytes) CoreState {
  Arena Storage;
  ChunkedStore<DeferredProbe> Probes{Storage};
  ChunkedStore<DeferredIter> Iters{Storage};
  std::vector<std::uint32_t> ItersPerRound; // deferred iterations per round
  std::vector<std::uint64_t> TailDelta;     // known cost after the last one
  SimStats Local;                           // private-prefix statistics
};

/// One core's phase-2 merge cursor. Line aligned and built in one
/// core-indexed array before the merge: domain tasks advance their
/// cores' cursors concurrently.
struct alignas(HostCacheLineBytes) MergeCursor {
  ChunkedStore<DeferredProbe>::Cursor Probes;
  ChunkedStore<DeferredIter>::Cursor Iters;
  DeferredIter Cur{};
  std::uint32_t Left = 0;
  std::uint64_t RelEnd = 0; // end cycle relative to the round start
};

/// One cache domain's phase-2 output: its shared-level statistics and,
/// per round, its latest core end relative to the round start (span).
/// Line aligned: each domain task writes its own.
struct alignas(HostCacheLineBytes) DomainMerge {
  SimStats Stats;
  std::vector<std::uint64_t> Span;
};

static_assert(alignof(Cache) == HostCacheLineBytes &&
                  alignof(CoreState) == HostCacheLineBytes &&
                  alignof(MergeCursor) == HostCacheLineBytes &&
                  alignof(DomainMerge) == HostCacheLineBytes,
              "state written by different engine threads must not share "
              "a host cache line");

constexpr std::uint32_t DeferMark = UINT32_MAX;

/// Cache domains: cores grouped by the top-level cache of their path, in
/// order of each domain's first core. In a tree, cores that share any
/// cache share the top-level one, so no cache is probed by two domains.
/// A core without caches is a domain of its own.
std::vector<std::vector<unsigned>> cacheDomains(const MachineSim &Machine,
                                                unsigned NumCores) {
  std::vector<std::vector<unsigned>> Domains;
  std::vector<const Cache *> Top;
  for (unsigned C = 0; C != NumCores; ++C) {
    const std::vector<MachineSim::PathEntry> &Path = Machine.corePath(C);
    const Cache *Root = Path.empty() ? nullptr : Path.back().C;
    auto It = Root == nullptr ? Top.end()
                              : std::find(Top.begin(), Top.end(), Root);
    if (It != Top.end()) {
      Domains[It - Top.begin()].push_back(C);
    } else {
      Top.push_back(Root);
      Domains.push_back({C});
    }
  }
  return Domains;
}

/// Phase 1 for one core: runs every round's iterations against the
/// private prefix only, batching each iteration's access row level by
/// level (gather lines, probe, carry survivors down). Accesses that miss
/// the whole prefix become DeferredProbe records; cores whose entire path
/// is private resolve memory directly (constant latency, no shared state
/// touched).
void runCorePhase1(MachineSim &Machine, const AccessTrace &Trace,
                   const Mapping &Map, unsigned Core, bool Barriers,
                   unsigned NumRounds, CoreState &State) {
  const std::vector<MachineSim::PathEntry> &Path = Machine.corePath(Core);
  const unsigned Priv = Machine.privatePrefixLen(Core);
  const bool AllPrivate = Priv == Path.size();
  const unsigned MemLat = Machine.memoryLatency();
  const unsigned N = Trace.numAccesses();
  const unsigned ComputeCycles = Trace.computeCyclesPerIteration();
  const std::vector<std::uint32_t> &Iters = Map.CoreIterations[Core];

  State.ItersPerRound.assign(NumRounds, 0);
  State.TailDelta.assign(NumRounds, 0);

  std::vector<std::uint64_t> Line(N);
  std::vector<std::uint32_t> Idx(N);
  std::vector<std::uint32_t> Lat(N);

  std::uint32_t Pos = 0;
  for (unsigned Round = 0; Round != NumRounds; ++Round) {
    const std::uint32_t EndPos =
        Barriers ? Map.RoundEnd[Core][Round]
                 : static_cast<std::uint32_t>(Iters.size());
    std::uint64_t DeltaAcc = 0;
    std::uint32_t DeferredIters = 0;

    for (; Pos != EndPos; ++Pos) {
      const std::uint64_t *Row = Trace.row(Iters[Pos]);
      State.Local.TotalAccesses += N;

      unsigned Alive = N;
      for (unsigned A = 0; A != N; ++A)
        Idx[A] = A;
      for (unsigned P = 0; P != Priv && Alive != 0; ++P) {
        const MachineSim::PathEntry &E = Path[P];
        State.Local.Levels[E.Level].Lookups += Alive;
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
        State.Local.Levels[E.Level].Hits += Hits;
        Alive = Surv;
      }

      if (Alive != 0) {
        if (AllPrivate) {
          State.Local.MemoryAccesses += Alive;
          for (unsigned J = 0; J != Alive; ++J)
            Lat[Idx[J]] = MemLat;
          Alive = 0;
        } else {
          for (unsigned J = 0; J != Alive; ++J)
            Lat[Idx[J]] = DeferMark;
        }
      }

      if (Alive == 0) {
        // Fully known iteration: pure delta, nothing deferred.
        std::uint64_t Known = 0;
        for (unsigned A = 0; A != N; ++A)
          Known += Lat[A];
        DeltaAcc += Known + ComputeCycles;
        continue;
      }

      // Deferred iteration: split the row into known runs between probes.
      std::uint32_t Acc = 0;
      std::uint32_t Probes = 0;
      for (unsigned A = 0; A != N; ++A) {
        if (Lat[A] != DeferMark) {
          Acc += Lat[A];
        } else {
          State.Probes.push({Row[A], Acc});
          Acc = 0;
          ++Probes;
        }
      }
      State.Iters.push({DeltaAcc, static_cast<std::uint64_t>(Acc) +
                                      ComputeCycles,
                        Probes});
      DeltaAcc = 0;
      ++DeferredIters;
    }

    State.ItersPerRound[Round] = DeferredIters;
    State.TailDelta[Round] = DeltaAcc;
  }
}

/// Phase 2 for one cache domain: replays the deferred iterations of its
/// \p Cores round by round through a (start cycle, core) min-heap with
/// the sequential engine's exact tie semantics, so every shared cache of
/// the domain sees the identical probe sequence. Clocks are relative to
/// the round start; leaves each core's relative end of the last round in
/// its cursor and each round's span in \p Merge.
void runDomainPhase2(MachineSim &Machine, const std::vector<unsigned> &Cores,
                     const std::vector<CoreState> &States, unsigned NumRounds,
                     std::vector<MergeCursor> &Curs, DomainMerge &Merge) {
  const unsigned MemLat = Machine.memoryLatency();
  Merge.Span.assign(NumRounds, 0);

  auto sharedWalk = [&](unsigned Core, std::uint64_t Addr) -> unsigned {
    const std::vector<MachineSim::PathEntry> &Path = Machine.corePath(Core);
    for (unsigned P = Machine.privatePrefixLen(Core); P != Path.size();
         ++P) {
      const MachineSim::PathEntry &E = Path[P];
      ++Merge.Stats.Levels[E.Level].Lookups;
      if (E.C->probe(E.lineOf(Addr))) {
        ++Merge.Stats.Levels[E.Level].Hits;
        return E.Latency;
      }
    }
    ++Merge.Stats.MemoryAccesses;
    return MemLat;
  };

  using HeapEntry = std::pair<std::uint64_t, unsigned>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      Heap;
  for (unsigned Round = 0; Round != NumRounds; ++Round) {
    for (unsigned C : Cores) {
      MergeCursor &M = Curs[C];
      M.Left = States[C].ItersPerRound[Round];
      if (M.Left != 0) {
        M.Cur = M.Iters.next();
        Heap.push({M.Cur.PreDelta, C});
      } else {
        M.RelEnd = States[C].TailDelta[Round];
      }
    }

    while (!Heap.empty()) {
      auto [At, C] = Heap.top();
      Heap.pop();
      MergeCursor &M = Curs[C];
      std::uint64_t Cur = At;
      for (std::uint32_t P = 0; P != M.Cur.NumProbes; ++P) {
        const DeferredProbe &Probe = M.Probes.next();
        Cur += Probe.PreLat;
        Cur += sharedWalk(C, Probe.Addr);
      }
      Cur += M.Cur.PostDelta;
      if (--M.Left != 0) {
        M.Cur = M.Iters.next();
        Heap.push({Cur + M.Cur.PreDelta, C});
      } else {
        M.RelEnd = Cur + States[C].TailDelta[Round];
      }
    }

    for (unsigned C : Cores)
      Merge.Span[Round] = std::max(Merge.Span[Round], Curs[C].RelEnd);
  }
}

} // namespace

bool cta::epochParallelEligible(const MachineSim &Machine,
                                const Mapping &Map) {
  const bool PointToPoint =
      Map.Sync == SyncMode::PointToPoint && !Map.PointDeps.empty();
  // Heterogeneous (degraded/disabled-core) topologies take the sequential
  // engine: the private-prefix sweep assumes nominal per-core clocks, and
  // degraded machines are rare enough that a documented fallback (like
  // --emit-trace's) beats complicating the parallel commit protocol.
  return !PointToPoint && Machine.traceLog() == nullptr &&
         Map.NumCores > 1 && Machine.topology().uniformSpeed();
}

ExecutionResult cta::executeTraceEpochParallel(MachineSim &Machine,
                                               const AccessTrace &Trace,
                                               const Mapping &Map,
                                               const SimExec &Exec) {
  if (!epochParallelEligible(Machine, Map))
    reportFatalError("epoch-parallel engine invoked on an ineligible run");

  const unsigned NumCores = Map.NumCores;
  const bool Barriers = Map.BarriersRequired;
  const unsigned NumRounds = Barriers ? Map.NumRounds : 1;

  Machine.clearStats();

  // One pool serves both phases: the lent one, or one owned for the call.
  unsigned Threads = Exec.Threads == 0 ? ThreadPool::defaultThreadCount()
                                       : Exec.Threads;
  Threads = std::min(Threads, NumCores);
  std::unique_ptr<ThreadPool> OwnedPool;
  ThreadPool *Pool = nullptr;
  if (Threads > 1) {
    Pool = Exec.Pool;
    if (Pool == nullptr) {
      OwnedPool = std::make_unique<ThreadPool>(Threads);
      Pool = OwnedPool.get();
    }
  }

  // Phase 1: private-prefix simulation, one task per core. Worker
  // statistics stay core-local (MetricSink attribution is thread local,
  // and the machine's aggregate counters must not race); they are folded
  // in core order below.
  std::vector<CoreState> States(NumCores);
  parallelFor(Pool, 0, NumCores, [&](std::size_t C) {
    runCorePhase1(Machine, Trace, Map, static_cast<unsigned>(C), Barriers,
                  NumRounds, States[C]);
  });

  // Phase 2: deterministic merge, one task per cache domain on
  // round-relative clocks (invariant 4); the barriers fold in afterwards.
  const std::vector<std::vector<unsigned>> Domains =
      cacheDomains(Machine, NumCores);
  std::vector<DomainMerge> Merges(Domains.size());
  std::vector<MergeCursor> Curs(NumCores);
  for (unsigned C = 0; C != NumCores; ++C) {
    Curs[C].Probes = States[C].Probes.cursor();
    Curs[C].Iters = States[C].Iters.cursor();
  }
  parallelFor(Pool, 0, Domains.size(), [&](std::size_t D) {
    runDomainPhase2(Machine, Domains[D], States, NumRounds, Curs, Merges[D]);
  });

  // Barriers: every round but the last ends when its slowest domain does
  // (matching the sequential engine, the last round leaves the clocks
  // unaligned).
  std::uint64_t RoundStart = 0;
  if (Barriers)
    for (unsigned Round = 0; Round + 1 < NumRounds; ++Round) {
      std::uint64_t Span = 0;
      for (const DomainMerge &Merge : Merges)
        Span = std::max(Span, Merge.Span[Round]);
      RoundStart += Span;
    }
  std::vector<std::uint64_t> Cycle(NumCores);
  for (unsigned C = 0; C != NumCores; ++C)
    Cycle[C] = RoundStart + Curs[C].RelEnd;

  // Fold statistics: per-core private counts in core order, then the
  // shared-level counts from the merge. Sums of per-access increments are
  // order independent, so the totals equal the sequential engine's.
  std::uint64_t ArenaBytes = 0, Probes = 0, Iters = 0;
  for (unsigned C = 0; C != NumCores; ++C) {
    Machine.addStats(States[C].Local);
    ArenaBytes += States[C].Storage.totalBytes();
    Probes += States[C].Probes.Count;
    Iters += States[C].Iters.Count;
  }
  for (const DomainMerge &Merge : Merges)
    Machine.addStats(Merge.Stats);

  ++NumParallelRuns;
  NumArenaBytes += ArenaBytes;
  NumDeferredProbes += Probes;
  NumDeferredIters += Iters;

  ExecutionResult Result;
  Result.CoreCycles = Cycle;
  Result.TotalCycles = *std::max_element(Cycle.begin(), Cycle.end());
  Result.Stats = Machine.stats();
  Result.PerCache = Machine.perCacheStats();
  return Result;
}
