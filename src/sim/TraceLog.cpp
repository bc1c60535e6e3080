//===- sim/TraceLog.cpp - Event-level simulator tracing --------------------===//

#include "sim/TraceLog.h"

#include "support/ErrorHandling.h"

#include <algorithm>

using namespace cta;

//===----------------------------------------------------------------------===//
// ReuseDistanceProfiler
//===----------------------------------------------------------------------===//

unsigned ReuseDistanceProfiler::bucketOf(std::uint64_t Distance) {
  if (Distance == 0)
    return 0;
  unsigned Log2 = 63u - static_cast<unsigned>(__builtin_clzll(Distance));
  return std::min(NumBuckets - 1, Log2 + 1);
}

void ReuseDistanceProfiler::bitSet(std::uint32_t Slot) {
  for (; Slot < Tree.size(); Slot += Slot & (0u - Slot))
    ++Tree[Slot];
}

void ReuseDistanceProfiler::bitClear(std::uint32_t Slot) {
  for (; Slot < Tree.size(); Slot += Slot & (0u - Slot))
    --Tree[Slot];
}

std::uint32_t ReuseDistanceProfiler::onesUpTo(std::uint32_t Slot) const {
  std::uint32_t Sum = 0;
  for (; Slot != 0; Slot -= Slot & (0u - Slot))
    Sum += Tree[Slot];
  return Sum;
}

void ReuseDistanceProfiler::compact() {
  // Reassign the live lines' slots to 1..L in age order, then rebuild the
  // tree with 4x slack so at least 3L accesses fit before the next
  // compaction (amortized O(log L) per access).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ByAge; // (slot, line)
  ByAge.reserve(LastSlot.size());
  for (const auto &KV : LastSlot)
    ByAge.push_back({KV.second, KV.first});
  std::sort(ByAge.begin(), ByAge.end());

  Tree.assign(std::max<std::size_t>(1024, 4 * ByAge.size() + 2), 0);
  NextSlot = 1;
  for (const auto &[OldSlot, Line] : ByAge) {
    LastSlot[Line] = NextSlot;
    bitSet(NextSlot);
    ++NextSlot;
  }
}

std::uint64_t ReuseDistanceProfiler::record(std::uint64_t LineAddr) {
  ++SampleCount;
  if (NextSlot >= Tree.size())
    compact();
  std::uint32_t Slot = NextSlot++;
  auto [It, Inserted] = LastSlot.try_emplace(LineAddr, Slot);
  if (Inserted) {
    ++ColdCount;
    bitSet(Slot);
    return UINT64_MAX;
  }
  // Marked slots in (Prev, Slot-1] are exactly the most recent accesses of
  // the distinct other lines touched since the previous access to this one.
  std::uint32_t Prev = It->second;
  std::uint64_t Distance = onesUpTo(Slot - 1) - onesUpTo(Prev);
  bitClear(Prev);
  bitSet(Slot);
  It->second = Slot;
  ++Histogram[bucketOf(Distance)];
  return Distance;
}

std::uint64_t ReuseDistanceProfiler::massUpTo(std::uint64_t Distance) const {
  std::uint64_t Sum = 0;
  for (unsigned B = 0, E = bucketOf(Distance); B <= E; ++B)
    Sum += Histogram[B];
  return Sum;
}

//===----------------------------------------------------------------------===//
// TraceLog
//===----------------------------------------------------------------------===//

TraceLog::TraceLog(TraceConfig Config) : Config(Config) {}

void TraceLog::bind(const CacheTopology &T) {
  if (Topo) {
    if (*Topo != T)
      reportFatalError("trace log is already bound to a different topology");
    return;
  }
  if (!T.finalized())
    reportFatalError("trace log needs a finalized topology");
  Topo = T;
  NumCores = T.numCores();

  Ring.assign(Config.RingCapacity, TraceEvent());
  Counts.assign(T.numNodes(), NodeCounts());
  if (Config.ReuseDistance)
    Reuse.assign(T.numNodes(), ReuseDistanceProfiler());
  Sharing.assign(T.numNodes(), {});
  Filler.assign(T.numNodes(), {});
  if (Config.SharingFlow)
    for (unsigned Id = 1, E = T.numNodes(); Id != E; ++Id)
      if (T.node(Id).Cores.size() > 1)
        Sharing[Id].assign(static_cast<std::size_t>(NumCores) * NumCores, 0);
  CoreCycle.assign(NumCores, 0);
  Rounds.assign(NumCores, {});
}

const CacheTopology &TraceLog::topology() const {
  if (!Topo)
    reportFatalError("trace log is not bound to a machine");
  return *Topo;
}

void TraceLog::push(TraceEventKind Kind, unsigned Core, unsigned Node,
                    std::uint64_t Cycle, std::uint64_t Payload) {
  ++TotalEvents;
  TraceEvent E;
  E.Cycle = Cycle;
  E.Payload = Payload;
  E.Core = Core;
  E.Node = static_cast<std::uint16_t>(Node);
  E.Kind = Kind;
  if (Ring.empty()) {
    ++Dropped;
    return;
  }
  if (Count == Ring.size()) {
    // Full: the new event replaces the oldest, keeping the ring a
    // contiguous chronological window ending at the present.
    Ring[Head] = E;
    Head = (Head + 1) % Ring.size();
    ++Dropped;
  } else {
    Ring[(Head + Count) % Ring.size()] = E;
    ++Count;
  }
}

void TraceLog::beginNest() {
  RoundBase = NumRounds;
  CurRound = RoundBase;
}

void TraceLog::iterationSpan(unsigned Core, std::uint32_t Iter,
                             std::uint64_t StartCycle,
                             std::uint64_t EndCycle) {
  push(TraceEventKind::IterBegin, Core, 0, StartCycle, Iter);
  push(TraceEventKind::IterEnd, Core, 0, EndCycle, Iter);
  std::vector<RoundSpan> &Row = Rounds[Core];
  if (Row.size() <= CurRound)
    Row.resize(CurRound + 1);
  RoundSpan &S = Row[CurRound];
  S.StartCycle = std::min(S.StartCycle, StartCycle);
  S.EndCycle = std::max(S.EndCycle, EndCycle);
  ++S.Iterations;
  NumRounds = std::max(NumRounds, CurRound + 1);
}

void TraceLog::roundBarrier(unsigned Round, std::uint64_t Cycle) {
  unsigned Global = RoundBase + Round;
  push(TraceEventKind::RoundBarrier, 0, 0, Cycle, Global);
  Barriers.push_back({Global, Cycle});
}

void TraceLog::cacheLookup(unsigned Core, unsigned Node,
                           std::uint64_t LineAddr, std::uint64_t ByteAddr,
                           bool Hit) {
  push(Hit ? TraceEventKind::CacheHit : TraceEventKind::CacheMiss, Core, Node,
       CoreCycle[Core], LineAddr);
  NodeCounts &NC = Counts[Node];
  if (Hit) {
    ++NC.Hits;
    if (!Sharing[Node].empty()) {
      auto It = Filler[Node].find(LineAddr);
      if (It != Filler[Node].end())
        ++Sharing[Node][static_cast<std::size_t>(It->second) * NumCores +
                        Core];
    }
  } else {
    ++NC.Misses;
    ++Granules[ByteAddr >> MissGranuleShift].CacheMisses;
  }
  if (Config.ReuseDistance)
    Reuse[Node].record(LineAddr);
}

void TraceLog::cacheEviction(unsigned Core, unsigned Node,
                             std::uint64_t VictimTag) {
  push(TraceEventKind::CacheEviction, Core, Node, CoreCycle[Core], VictimTag);
  ++Counts[Node].Evictions;
  if (!Sharing[Node].empty())
    Filler[Node].erase(VictimTag);
}

void TraceLog::cacheFill(unsigned Core, unsigned Node,
                         std::uint64_t LineAddr) {
  push(TraceEventKind::CacheFill, Core, Node, CoreCycle[Core], LineAddr);
  ++Counts[Node].Fills;
  if (!Sharing[Node].empty())
    Filler[Node][LineAddr] = Core;
}

void TraceLog::memoryAccess(unsigned Core, std::uint64_t ByteAddr) {
  push(TraceEventKind::MemoryAccess, Core, 0, CoreCycle[Core], ByteAddr);
  ++Counts[0].Misses;
  ++Granules[ByteAddr >> MissGranuleShift].MemoryAccesses;
}

std::vector<TraceEvent> TraceLog::events() const {
  std::vector<TraceEvent> Out;
  Out.reserve(Count);
  for (std::size_t I = 0; I != Count; ++I)
    Out.push_back(Ring[(Head + I) % Ring.size()]);
  return Out;
}

static const std::vector<std::uint64_t> EmptyMatrix;

const std::vector<std::uint64_t> &TraceLog::sharingMatrix(
    unsigned Node) const {
  return Node < Sharing.size() ? Sharing[Node] : EmptyMatrix;
}

std::vector<std::uint64_t> TraceLog::sharingMatrixAtLevel(
    unsigned Level) const {
  std::vector<std::uint64_t> Sum(static_cast<std::size_t>(NumCores) *
                                     NumCores,
                                 0);
  for (unsigned Id : topology().nodesAtLevel(Level)) {
    const std::vector<std::uint64_t> &M = Sharing[Id];
    for (std::size_t I = 0, E = M.size(); I != E; ++I)
      Sum[I] += M[I];
  }
  return Sum;
}

std::vector<std::vector<TraceLog::RoundSpan>> TraceLog::roundSpans() const {
  std::vector<std::vector<RoundSpan>> Out = Rounds;
  for (std::vector<RoundSpan> &Row : Out)
    Row.resize(NumRounds);
  return Out;
}
