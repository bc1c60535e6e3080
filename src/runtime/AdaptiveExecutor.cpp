//===- runtime/AdaptiveExecutor.cpp - Round-boundary remapping ------------===//

#include "runtime/AdaptiveExecutor.h"

#include "obs/MetricSink.h"
#include "sim/AccessTrace.h"
#include "sim/RowWalk.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <queue>

using namespace cta;
using namespace cta::runtime;

namespace {

obs::Counter NumAdaptRounds("runtime.adapt.rounds");
obs::Counter NumAdaptRemaps("runtime.adapt.remaps");
obs::Counter NumAdaptMigrations("runtime.adapt.migrations");
obs::Counter NumAdaptFallbacks("runtime.adapt.fallbacks");

/// A mapping the adaptive executor can drive: group-structured, one
/// round, no cross-core dependences (what the topology-aware pipeline
/// emits). Everything else runs statically.
bool adaptiveEligible(const Mapping &Map) {
  const bool PointToPoint =
      Map.Sync == SyncMode::PointToPoint && !Map.PointDeps.empty();
  return !PointToPoint && !(Map.BarriersRequired && Map.NumRounds > 1) &&
         !Map.Groups.empty() && !Map.CoreGroups.empty();
}

/// True when \p A and \p B share an on-chip cache (the paper's affinity
/// relation); migrations inside a domain keep the moved group's data
/// reachable through the shared level instead of refetching from memory.
bool sameDomain(const CacheTopology &Topo, unsigned A, unsigned B) {
  return Topo.affinityLevel(A, B) != CacheTopology::MemoryLevel;
}

} // namespace

std::vector<Migration>
runtime::rebalance(const std::vector<CoreLoad> &Cores,
                   const std::vector<std::vector<std::uint32_t>> &Pending,
                   const std::vector<IterationGroup> &Groups,
                   const CacheTopology &Topo) {
  const unsigned N = static_cast<unsigned>(Cores.size());
  std::uint64_t TotCycles = 0, TotIters = 0;
  for (const CoreLoad &C : Cores) {
    TotCycles += C.Cycles;
    TotIters += C.Iters;
  }
  // Cores that have not retired anything yet are costed at the average.
  const double Default =
      TotIters == 0 ? 1.0
                    : static_cast<double>(TotCycles) /
                          static_cast<double>(TotIters);

  std::vector<double> CPI(N), Finish(N);
  std::vector<std::vector<std::uint32_t>> Queue = Pending;
  for (unsigned C = 0; C != N; ++C) {
    double Pend = 0.0;
    for (std::uint32_t G : Pending[C])
      Pend += Groups[G].size();
    CPI[C] = Cores[C].Iters == 0 ? Default
                                 : static_cast<double>(Cores[C].Cycles) /
                                       static_cast<double>(Cores[C].Iters);
    Finish[C] = static_cast<double>(Cores[C].Cycles) + Pend * CPI[C];
  }

  std::vector<Migration> Moves;
  for (unsigned Step = 0; Step != 4 * N; ++Step) {
    // The projected-latest finisher that still has a group to give.
    unsigned Src = N;
    for (unsigned C = 0; C != N; ++C)
      if (!Queue[C].empty() && (Src == N || Finish[C] > Finish[Src]))
        Src = C;
    if (Src == N)
      break;

    const std::uint32_t G = Queue[Src].back();
    const double S = Groups[G].size();

    // Best target: lowest post-move finish, same-domain pass first so a
    // viable neighbour always wins over a viable stranger.
    unsigned Dst = N;
    double DstFinish = 0;
    for (int DomainPass = 1; DomainPass >= 0 && Dst == N; --DomainPass) {
      for (unsigned T = 0; T != N; ++T) {
        if (T == Src || Topo.coreSpeedPercent(T) == 0)
          continue;
        if (sameDomain(Topo, Src, T) != (DomainPass == 1))
          continue;
        const double F = Finish[T] + S * CPI[T];
        if (F >= Finish[Src])
          continue; // would not finish before the current peak
        if (Dst == N || F < DstFinish) {
          Dst = T;
          DstFinish = F;
        }
      }
    }
    if (Dst == N)
      break; // no move improves the peak any more

    Moves.push_back({G, Src, Dst});
    Queue[Src].pop_back();
    Queue[Dst].push_back(G);
    Finish[Src] -= S * CPI[Src];
    Finish[Dst] = DstFinish;
  }
  return Moves;
}

ExecutionResult runtime::executeAdaptive(MachineSim &Machine,
                                         const AccessTrace &Trace,
                                         const Mapping &Map,
                                         unsigned Interval) {
  if (Map.NumCores != Machine.topology().numCores())
    reportFatalError("mapping core count does not match the machine");
  if (!Map.coversExactly(Trace.numIterations()))
    reportFatalError("mapping is not a partition of the iteration space");
  if (!adaptiveEligible(Map)) {
    ++NumAdaptFallbacks;
    return executeTrace(Machine, Trace, Map);
  }

  const unsigned NumCores = Map.NumCores;
  Interval = std::max(1u, Interval);
  const CacheTopology &Topo = Machine.topology();

  Machine.clearStats();

  // Per-core group queues; Head marks the next group to run. Migrations
  // splice pending entries (index >= Head) between queues.
  std::vector<std::vector<std::uint32_t>> Queue = Map.CoreGroups;
  std::vector<std::size_t> Head(NumCores, 0);
  std::vector<std::size_t> InGroup(NumCores, 0);
  std::vector<CoreLoad> Load(NumCores);

  std::vector<unsigned> Speed(NumCores, 100);
  for (unsigned C = 0; C != NumCores; ++C) {
    Speed[C] = Topo.coreSpeedPercent(C);
    if (Speed[C] == 0 && !Queue[C].empty())
      reportFatalError(("adaptive executor given work on disabled core " +
                        std::to_string(C) + " — run remapDisabledCores first")
                           .c_str());
  }

  TraceLog *Log = Machine.traceLog();
  if (Log != nullptr)
    Log->beginNest();
  RowWalk Walk(Machine, Trace, Speed);

  using HeapEntry = std::pair<std::uint64_t, unsigned>;
  using MinHeap = std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                      std::greater<HeapEntry>>;

  for (unsigned Round = 0;; ++Round) {
    MinHeap Heap;
    for (unsigned C = 0; C != NumCores; ++C)
      if (Head[C] < Queue[C].size())
        Heap.push({Load[C].Cycles, C});
    if (Heap.empty())
      break;
    if (Log != nullptr)
      Log->setRound(Round);

    // One round: discrete-event interleave, each core retiring at most
    // Interval groups. Cores leave the heap exactly at group boundaries,
    // so the commit point below sees every core idle between groups.
    std::vector<unsigned> Allowance(NumCores, Interval);
    while (!Heap.empty()) {
      unsigned C = Heap.top().second;
      Heap.pop();
      const IterationGroup &G = Map.Groups[Queue[C][Head[C]]];
      Walk.run(C, G.Iterations[InGroup[C]], Load[C].Cycles);
      ++Load[C].Iters;
      if (++InGroup[C] == G.Iterations.size()) {
        InGroup[C] = 0;
        ++Head[C];
        if (--Allowance[C] == 0 || Head[C] == Queue[C].size())
          continue; // this core's round is over
      }
      Heap.push({Load[C].Cycles, C});
    }
    ++NumAdaptRounds;

    // Commit point: plan on what is still pending, then migrate.
    std::vector<std::vector<std::uint32_t>> Pending(NumCores);
    for (unsigned C = 0; C != NumCores; ++C)
      Pending[C].assign(Queue[C].begin() +
                            static_cast<std::ptrdiff_t>(Head[C]),
                        Queue[C].end());

    unsigned Applied = 0;
    for (const Migration &M : rebalance(Load, Pending, Map.Groups, Topo)) {
      if (M.From >= NumCores || M.To >= NumCores || M.From == M.To ||
          Speed[M.To] == 0)
        reportFatalError("adaptive rebalance planned an invalid migration");
      auto It = std::find(Queue[M.From].begin() +
                              static_cast<std::ptrdiff_t>(Head[M.From]),
                          Queue[M.From].end(), M.Group);
      if (It == Queue[M.From].end())
        reportFatalError("adaptive rebalance migrated a non-pending group");
      Queue[M.From].erase(It);
      Queue[M.To].push_back(M.Group);
      ++Applied;
    }
    if (Applied != 0) {
      ++NumAdaptRemaps;
      NumAdaptMigrations += Applied;
    }
  }

  Machine.addStats(Walk.Stats);

  ExecutionResult Result;
  for (const CoreLoad &L : Load)
    Result.CoreCycles.push_back(L.Cycles);
  Result.TotalCycles =
      *std::max_element(Result.CoreCycles.begin(), Result.CoreCycles.end());
  Result.Stats = Machine.stats();
  Result.PerCache = Machine.perCacheStats();
  return Result;
}

void runtime::remapDisabledCores(Mapping &Map, const CacheTopology &Topo) {
  if (!Topo.hasDisabledCores())
    return;
  const unsigned N = Map.NumCores;
  if (N != Topo.numCores())
    reportFatalError("mapping core count does not match the machine");
  if (Map.Sync == SyncMode::PointToPoint && !Map.PointDeps.empty())
    reportFatalError(
        "point-to-point schedules cannot run with disabled cores; use "
        "barrier synchronization or an adaptive strategy");

  std::vector<unsigned> Live;
  for (unsigned C = 0; C != N; ++C)
    if (Topo.coreSpeedPercent(C) != 0)
      Live.push_back(C);
  if (Live.empty())
    reportFatalError("every core of the topology is disabled");

  // Choose each disabled core's target once: the live core sharing the
  // closest cache, ties broken toward the lightest load then the lowest
  // index. Load counts prior folds so two disabled siblings spread out.
  std::vector<std::uint64_t> Load(N, 0);
  for (unsigned C = 0; C != N; ++C)
    Load[C] = Map.CoreIterations[C].size();
  std::vector<unsigned> Target(N, N);
  for (unsigned D = 0; D != N; ++D) {
    if (Topo.coreSpeedPercent(D) != 0 || Map.CoreIterations[D].empty())
      continue;
    unsigned Best = Live[0];
    for (unsigned T : Live) {
      const unsigned LvlT = Topo.affinityLevel(D, T);
      const unsigned LvlB = Topo.affinityLevel(D, Best);
      if (LvlT < LvlB || (LvlT == LvlB && Load[T] < Load[Best]))
        Best = T;
    }
    Target[D] = Best;
    Load[Best] += Map.CoreIterations[D].size();
  }

  // Fold round by round: within each round, a target core runs its own
  // slice first, then the folded slices in disabled-core order.
  const bool Barriers = Map.BarriersRequired;
  const unsigned Rounds = Barriers ? Map.NumRounds : 1;
  auto slice = [&](unsigned C, unsigned R) {
    const auto &Iters = Map.CoreIterations[C];
    const std::uint32_t Begin =
        (Barriers && R > 0) ? Map.RoundEnd[C][R - 1] : 0;
    const std::uint32_t End =
        Barriers ? Map.RoundEnd[C][R]
                 : static_cast<std::uint32_t>(Iters.size());
    return std::make_pair(Begin, End);
  };

  std::vector<std::vector<std::uint32_t>> NewIters(N);
  std::vector<std::vector<std::uint32_t>> NewEnd(N);
  for (unsigned R = 0; R != Rounds; ++R) {
    for (unsigned C = 0; C != N; ++C) {
      if (Topo.coreSpeedPercent(C) == 0)
        continue;
      auto [B, E] = slice(C, R);
      NewIters[C].insert(NewIters[C].end(),
                         Map.CoreIterations[C].begin() + B,
                         Map.CoreIterations[C].begin() + E);
    }
    for (unsigned D = 0; D != N; ++D) {
      if (Target[D] == N)
        continue;
      auto [B, E] = slice(D, R);
      NewIters[Target[D]].insert(NewIters[Target[D]].end(),
                                 Map.CoreIterations[D].begin() + B,
                                 Map.CoreIterations[D].begin() + E);
    }
    for (unsigned C = 0; C != N; ++C)
      NewEnd[C].push_back(static_cast<std::uint32_t>(NewIters[C].size()));
  }
  Map.CoreIterations = std::move(NewIters);
  if (Barriers)
    Map.RoundEnd = std::move(NewEnd);

  // Group diagnostics move wholesale; concatenation order matches the
  // single-round iteration fold above, so group-structured mappings stay
  // consistent for the adaptive executor.
  if (!Map.CoreGroups.empty()) {
    for (unsigned D = 0; D != N; ++D) {
      if (Target[D] == N)
        continue;
      auto &Dst = Map.CoreGroups[Target[D]];
      auto &Src = Map.CoreGroups[D];
      Dst.insert(Dst.end(), Src.begin(), Src.end());
      Src.clear();
    }
  }
}
