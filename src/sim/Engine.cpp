//===- sim/Engine.cpp - Mapping execution engine ---------------------------===//

#include "sim/Engine.h"

#include "obs/MetricSink.h"
#include "sim/AccessTrace.h"
#include "sim/ParallelEngine.h"
#include "sim/RowWalk.h"
#include "sim/TraceLog.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <map>
#include <queue>

using namespace cta;

namespace {

obs::Counter NumBatchRows("sim.batch.rows");
obs::Counter NumBatchAccesses("sim.batch.accesses");

/// Per-core speed table for heterogeneous topologies. 100 = nominal; a
/// degraded core stretches each iteration's duration by 100/pct (ceiling
/// division, so a slow core is never rounded back to nominal). Returns an
/// empty vector for uniform machines so the hot paths keep a single
/// never-taken branch.
std::vector<unsigned> coreSpeeds(const MachineSim &Machine,
                                 const Mapping &Map) {
  const CacheTopology &Topo = Machine.topology();
  if (Topo.uniformSpeed())
    return {};
  std::vector<unsigned> Speed(Map.NumCores, 100);
  for (unsigned C = 0; C != Map.NumCores; ++C) {
    Speed[C] = Topo.coreSpeedPercent(C);
    if (Speed[C] == 0 && !Map.CoreIterations[C].empty())
      reportFatalError(("mapping assigns work to disabled core " +
                        std::to_string(C) +
                        " — fold its work onto live cores first")
                           .c_str());
  }
  return Speed;
}

/// Unrecorded-completion sentinel. Cycle 0 is a legitimate completion time
/// (a zero-latency prefix), so "not yet recorded" must be a value no real
/// completion can take.
constexpr std::uint64_t NotRecorded = UINT64_MAX;

/// Scheduling state shared by both engines: per-core clocks and positions
/// plus the point-to-point synchronization bookkeeping.
struct SyncState {
  std::vector<std::vector<SyncDep>> Waits; // per core, sorted by StartPos
  std::vector<std::map<std::uint32_t, std::uint64_t>> CompletionCycle;
  std::vector<std::size_t> NextWait;

  SyncState(const Mapping &Map, unsigned NumCores) : Waits(NumCores) {
    for (const SyncDep &D : Map.PointDeps) {
      if (D.Core >= NumCores || D.PredCore >= NumCores)
        reportFatalError("point-to-point sync references a bad core");
      Waits[D.Core].push_back(D);
    }
    for (auto &W : Waits)
      std::sort(W.begin(), W.end(), [](const SyncDep &A, const SyncDep &B) {
        return A.StartPos < B.StartPos;
      });
    // CompletionCycle[C][P] = cycle at which core C finished its first P
    // iterations, recorded only for watched positions.
    CompletionCycle.resize(NumCores);
    for (const SyncDep &D : Map.PointDeps)
      CompletionCycle[D.PredCore][D.PredEndPos] = NotRecorded;
    for (unsigned C = 0; C != NumCores; ++C) {
      auto It = CompletionCycle[C].find(0);
      if (It != CompletionCycle[C].end())
        It->second = 0; // an empty prefix is complete at cycle 0
    }
    NextWait.assign(NumCores, 0);
  }

  void recordCompletion(unsigned Core, std::uint32_t Pos,
                        std::uint64_t Cycle) {
    auto It = CompletionCycle[Core].find(Pos);
    if (It != CompletionCycle[Core].end() && It->second == NotRecorded)
      It->second = Cycle;
  }
};

} // namespace

AddressMap::AddressMap(const std::vector<ArrayDecl> &Arrays) {
  std::uint64_t Next = FirstAddress;
  for (const ArrayDecl &A : Arrays) {
    Base.push_back(Next);
    ElementSize.push_back(A.ElementSize);
    std::uint64_t Bytes = static_cast<std::uint64_t>(A.sizeInBytes());
    if (Bytes >= AddressLimit)
      reportFatalError("array layout reaches 2^62 bytes of address space");
    Next += (Bytes + PageSize - 1) / PageSize * PageSize;
    if (Next >= AddressLimit)
      reportFatalError("array layout reaches 2^62 bytes of address space");
  }
}

ExecutionResult cta::executeTrace(MachineSim &Machine,
                                  const AccessTrace &Trace,
                                  const Mapping &Map) {
  return executeTrace(Machine, Trace, Map, SimExec());
}

ExecutionResult cta::executeTrace(MachineSim &Machine,
                                  const AccessTrace &Trace,
                                  const Mapping &Map, const SimExec &Exec) {
  if (Map.NumCores != Machine.topology().numCores())
    reportFatalError("mapping core count does not match the machine");
  if (!Map.coversExactly(Trace.numIterations()))
    reportFatalError("mapping is not a partition of the iteration space");

  // Concurrency requested and the schedule qualifies: hand the whole run
  // to the epoch-parallel engine (bit-identical results by construction).
  if (Exec.Threads != 1 && epochParallelEligible(Machine, Map))
    return executeTraceEpochParallel(Machine, Trace, Map, Exec);

  const unsigned NumCores = Map.NumCores;

  Machine.clearStats();

  std::vector<std::uint64_t> Cycle(NumCores, 0);
  std::vector<std::uint32_t> Pos(NumCores, 0);

  const bool PointToPoint =
      Map.Sync == SyncMode::PointToPoint && !Map.PointDeps.empty();
  // Round structure: without barriers the whole schedule is one round.
  const bool Barriers = !PointToPoint && Map.BarriersRequired;
  const unsigned NumRounds = Barriers ? Map.NumRounds : 1;

  // Tracing is resolved once per execution; untraced rows take the
  // batched walk (sim/RowWalk.h).
  TraceLog *Log = Machine.traceLog();
  if (Log != nullptr)
    Log->beginNest();

  RowWalk Walk(Machine, Trace, coreSpeeds(Machine, Map));
  std::uint64_t BatchedRows = 0;

  auto runIteration = [&](unsigned Core) {
    Walk.run(Core, Map.CoreIterations[Core][Pos[Core]], Cycle[Core]);
    if (Log == nullptr)
      ++BatchedRows;
    ++Pos[Core];
  };

  // Binary min-heap of (cycle, core): pops the lexicographically smallest
  // pair, i.e. the earliest clock with ties broken toward the lowest core
  // index — exactly the order the reference engine's linear min-scan
  // produces, so shared-cache interleaving is bit-identical.
  using HeapEntry = std::pair<std::uint64_t, unsigned>;
  using MinHeap = std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                      std::greater<HeapEntry>>;

  if (PointToPoint) {
    SyncState Sync(Map, NumCores);

    // A core not yet finished is either in the ready heap (exactly once,
    // keyed by the cycle it may issue at) or parked in the waiter list of
    // the predecessor whose progress it is blocked on.
    MinHeap Ready;
    std::vector<std::vector<std::pair<std::uint32_t, unsigned>>> Waiters(
        NumCores); // per pred: (required PredEndPos, blocked core)

    // Evaluates core C's waits due at its current position. Returns true
    // and the issue cycle when all are satisfied (retiring them); parks C
    // on the first unsatisfied one otherwise. Satisfied waits ahead of an
    // unsatisfied one are deliberately NOT retired: their completion
    // cycles must still feed ReadyAt when C is re-evaluated.
    auto evaluate = [&](unsigned C) {
      std::uint64_t ReadyAt = Cycle[C];
      const std::vector<SyncDep> &W = Sync.Waits[C];
      std::size_t I = Sync.NextWait[C];
      for (; I != W.size() && W[I].StartPos <= Pos[C]; ++I) {
        const SyncDep &D = W[I];
        if (Pos[D.PredCore] < D.PredEndPos) {
          Waiters[D.PredCore].push_back({D.PredEndPos, C});
          return;
        }
        ReadyAt =
            std::max(ReadyAt, Sync.CompletionCycle[D.PredCore][D.PredEndPos]);
      }
      Sync.NextWait[C] = I;
      Cycle[C] = ReadyAt;
      Ready.push({ReadyAt, C});
    };

    unsigned Unfinished = 0;
    for (unsigned C = 0; C != NumCores; ++C) {
      if (Pos[C] >= Map.CoreIterations[C].size())
        continue;
      ++Unfinished;
      evaluate(C);
    }

    while (!Ready.empty()) {
      auto [At, C] = Ready.top();
      Ready.pop();
      Cycle[C] = At;
      runIteration(C);
      Sync.recordCompletion(C, Pos[C], Cycle[C]);
      // Wake consumers whose required prefix of C is now complete.
      auto &Parked = Waiters[C];
      for (std::size_t I = 0; I != Parked.size();) {
        if (Parked[I].first <= Pos[C]) {
          unsigned Woken = Parked[I].second;
          Parked[I] = Parked.back();
          Parked.pop_back();
          evaluate(Woken);
        } else {
          ++I;
        }
      }
      if (Pos[C] < Map.CoreIterations[C].size())
        evaluate(C);
      else
        --Unfinished;
    }
    if (Unfinished != 0)
      reportFatalError("point-to-point synchronization deadlock");
  } else {
    MinHeap Heap;
    for (unsigned Round = 0; Round != NumRounds; ++Round) {
      if (Log != nullptr)
        Log->setRound(Round);
      // Per-core end position of this round.
      std::vector<std::uint32_t> End(NumCores);
      for (unsigned C = 0; C != NumCores; ++C) {
        End[C] = Barriers ? Map.RoundEnd[C][Round]
                          : static_cast<std::uint32_t>(
                                Map.CoreIterations[C].size());
        if (Pos[C] < End[C])
          Heap.push({Cycle[C], C});
      }

      // Discrete-event interleave: always advance the earliest active core.
      while (!Heap.empty()) {
        unsigned C = Heap.top().second;
        Heap.pop();
        runIteration(C);
        if (Pos[C] < End[C])
          Heap.push({Cycle[C], C});
      }

      // Barrier: everyone waits for the slowest participant.
      if (Barriers && Round + 1 != NumRounds) {
        std::uint64_t Max = 0;
        for (unsigned C = 0; C != NumCores; ++C)
          Max = std::max(Max, Cycle[C]);
        for (unsigned C = 0; C != NumCores; ++C)
          Cycle[C] = Max;
        if (Log != nullptr)
          Log->roundBarrier(Round, Max);
      }
    }
  }

  Machine.addStats(Walk.Stats);
  NumBatchRows += BatchedRows;
  NumBatchAccesses += Walk.Stats.TotalAccesses;

  ExecutionResult Result;
  Result.CoreCycles = Cycle;
  Result.TotalCycles = *std::max_element(Cycle.begin(), Cycle.end());
  Result.Stats = Machine.stats();
  Result.PerCache = Machine.perCacheStats();
  return Result;
}

ExecutionResult cta::executeMapping(MachineSim &Machine, const Program &Prog,
                                    unsigned NestIdx,
                                    const IterationTable &Table,
                                    const Mapping &Map,
                                    const AddressMap &Addrs) {
  if (NestIdx >= Prog.Nests.size())
    reportFatalError("nest index out of range");
  AccessTrace Trace = AccessTrace::compile(Prog, NestIdx, Table, Addrs);
  return executeTrace(Machine, Trace, Map);
}

ExecutionResult cta::executeMappingReference(MachineSim &Machine,
                                             const Program &Prog,
                                             unsigned NestIdx,
                                             const IterationTable &Table,
                                             const Mapping &Map,
                                             const AddressMap &Addrs) {
  if (NestIdx >= Prog.Nests.size())
    reportFatalError("nest index out of range");
  const LoopNest &Nest = Prog.Nests[NestIdx];
  if (Map.NumCores != Machine.topology().numCores())
    reportFatalError("mapping core count does not match the machine");
  if (!Map.coversExactly(Table.size()))
    reportFatalError("mapping is not a partition of the iteration space");

  const unsigned NumCores = Map.NumCores;
  const unsigned Depth = Table.depth();
  const unsigned ComputeCycles = Nest.computeCyclesPerIteration();

  // The access recipe: per access, the subscript expressions and the
  // owning array (the naive path re-evaluates these per iteration).
  struct AccessRecipe {
    const ArrayAccess *Acc;
    const ArrayDecl *Array;
  };
  std::vector<AccessRecipe> Recipes;
  Recipes.reserve(Nest.accesses().size());
  for (const ArrayAccess &A : Nest.accesses())
    Recipes.push_back({&A, &Prog.Arrays[A.ArrayId]});

  Machine.clearStats();

  std::vector<std::uint64_t> Cycle(NumCores, 0);
  std::vector<std::uint32_t> Pos(NumCores, 0);

  const bool PointToPoint =
      Map.Sync == SyncMode::PointToPoint && !Map.PointDeps.empty();
  // Round structure: without barriers the whole schedule is one round.
  const bool Barriers = !PointToPoint && Map.BarriersRequired;
  const unsigned NumRounds = Barriers ? Map.NumRounds : 1;

  std::vector<std::int64_t> Point(Depth);
  std::vector<std::int64_t> Idx;

  TraceLog *Log = Machine.traceLog();
  if (Log != nullptr)
    Log->beginNest();

  const std::vector<unsigned> Speed = coreSpeeds(Machine, Map);

  auto runIteration = [&](unsigned Core) {
    std::uint32_t Iter = Map.CoreIterations[Core][Pos[Core]];
    Table.get(Iter, Point.data());
    std::uint64_t C = Cycle[Core];
    const std::uint64_t Start = C;
    for (const AccessRecipe &R : Recipes) {
      Idx.resize(R.Acc->Subscripts.size());
      evaluateAccess(*R.Acc, *R.Array, Point.data(), Idx.data());
      std::uint64_t Addr =
          Addrs.addrOf(R.Acc->ArrayId, R.Array->linearize(Idx.data()));
      if (Log != nullptr)
        Log->setCycle(Core, C);
      C += Machine.accessReference(Core, Addr, R.Acc->IsWrite);
    }
    std::uint64_t End =
        Start + scaleDuration(Speed, Core, C + ComputeCycles - Start);
    if (Log != nullptr)
      Log->iterationSpan(Core, Iter, Start, End);
    Cycle[Core] = End;
    ++Pos[Core];
  };

  if (PointToPoint) {
    SyncState Sync(Map, NumCores);

    for (;;) {
      unsigned Next = NumCores;
      bool AnyWork = false;
      for (unsigned C = 0; C != NumCores; ++C) {
        if (Pos[C] >= Map.CoreIterations[C].size())
          continue;
        AnyWork = true;
        // All waits due at the current position must be satisfied.
        bool Blocked = false;
        std::uint64_t ReadyAt = Cycle[C];
        for (std::size_t W = Sync.NextWait[C];
             W != Sync.Waits[C].size() &&
             Sync.Waits[C][W].StartPos <= Pos[C];
             ++W) {
          const SyncDep &D = Sync.Waits[C][W];
          if (Pos[D.PredCore] < D.PredEndPos) {
            Blocked = true;
            break;
          }
          ReadyAt = std::max(ReadyAt,
                             Sync.CompletionCycle[D.PredCore][D.PredEndPos]);
        }
        if (Blocked)
          continue;
        Cycle[C] = ReadyAt;
        if (Next == NumCores || Cycle[C] < Cycle[Next])
          Next = C;
      }
      if (Next == NumCores) {
        if (AnyWork)
          reportFatalError("point-to-point synchronization deadlock");
        break;
      }
      // Retire waits that are now permanently satisfied.
      while (Sync.NextWait[Next] != Sync.Waits[Next].size() &&
             Sync.Waits[Next][Sync.NextWait[Next]].StartPos <= Pos[Next] &&
             Pos[Sync.Waits[Next][Sync.NextWait[Next]].PredCore] >=
                 Sync.Waits[Next][Sync.NextWait[Next]].PredEndPos)
        ++Sync.NextWait[Next];
      runIteration(Next);
      Sync.recordCompletion(Next, Pos[Next], Cycle[Next]);
    }
  } else {
    for (unsigned Round = 0; Round != NumRounds; ++Round) {
      if (Log != nullptr)
        Log->setRound(Round);
      // Per-core end position of this round.
      std::vector<std::uint32_t> End(NumCores);
      for (unsigned C = 0; C != NumCores; ++C)
        End[C] = Barriers ? Map.RoundEnd[C][Round]
                          : static_cast<std::uint32_t>(
                                Map.CoreIterations[C].size());

      // Discrete-event interleave: always advance the earliest active core.
      for (;;) {
        unsigned Next = NumCores;
        for (unsigned C = 0; C != NumCores; ++C) {
          if (Pos[C] >= End[C])
            continue;
          if (Next == NumCores || Cycle[C] < Cycle[Next])
            Next = C;
        }
        if (Next == NumCores)
          break;
        runIteration(Next);
      }

      // Barrier: everyone waits for the slowest participant.
      if (Barriers && Round + 1 != NumRounds) {
        std::uint64_t Max = 0;
        for (unsigned C = 0; C != NumCores; ++C)
          Max = std::max(Max, Cycle[C]);
        for (unsigned C = 0; C != NumCores; ++C)
          Cycle[C] = Max;
        if (Log != nullptr)
          Log->roundBarrier(Round, Max);
      }
    }
  }

  ExecutionResult Result;
  Result.CoreCycles = Cycle;
  Result.TotalCycles = *std::max_element(Cycle.begin(), Cycle.end());
  Result.Stats = Machine.stats();
  Result.PerCache = Machine.perCacheStats();
  return Result;
}
