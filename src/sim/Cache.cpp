//===- sim/Cache.cpp - Set-associative LRU cache ---------------------------===//

#include "sim/Cache.h"

#include "support/ErrorHandling.h"

#include <algorithm>

using namespace cta;

Cache::Cache(const CacheParams &Params) : Params(Params) {
  if (Params.SizeBytes == 0 || Params.LineSize == 0 || Params.Assoc == 0)
    reportFatalError("degenerate cache parameters");
  NumSets = Params.numSets();
  SetMask = (NumSets & (NumSets - 1)) == 0 ? NumSets - 1 : 0;
  if (SetMask == 0)
    FastModM = UINT64_MAX / NumSets + 1;
  std::size_t Total = static_cast<std::size_t>(NumSets) * Params.Assoc;
  Tags.assign(Total, InvalidTag);
  Stamps.assign(Total, 0);
}

bool Cache::access(std::uint64_t LineAddr) {
  ++StatLookups;
  const std::size_t Base = setOf(LineAddr) * Params.Assoc;
  std::uint64_t *T = &Tags[Base];
  std::uint64_t *S = &Stamps[Base];
  const unsigned Assoc = Params.Assoc;
  unsigned Match = Assoc;
  for (unsigned W = 0; W != Assoc; ++W)
    if (T[W] == LineAddr && S[W] != 0)
      Match = W;
  if (Match == Assoc)
    return false;
  S[Match] = ++Tick;
  ++StatHits;
  return true;
}

bool Cache::contains(std::uint64_t LineAddr) const {
  const std::size_t Base = setOf(LineAddr) * Params.Assoc;
  for (unsigned W = 0; W != Params.Assoc; ++W)
    if (Tags[Base + W] == LineAddr && Stamps[Base + W] != 0)
      return true;
  return false;
}

void Cache::fill(std::uint64_t LineAddr) {
  const std::size_t Base = setOf(LineAddr) * Params.Assoc;
  std::uint64_t *T = &Tags[Base];
  std::uint64_t *S = &Stamps[Base];
  unsigned Victim = 0;
  for (unsigned W = 0; W != Params.Assoc; ++W) {
    if (S[W] != 0 && T[W] == LineAddr) {
      S[W] = ++Tick; // already resident: refresh
      return;
    }
    if (S[W] == 0) {
      Victim = W;
      break;
    }
    if (S[W] < S[Victim])
      Victim = W;
  }
  StatEvictions += S[Victim] != 0;
  T[Victim] = LineAddr;
  S[Victim] = ++Tick;
}

void Cache::fillTraced(std::uint64_t LineAddr, bool &Evicted,
                       std::uint64_t &VictimTag) {
  const std::size_t Base = setOf(LineAddr) * Params.Assoc;
  std::uint64_t *T = &Tags[Base];
  std::uint64_t *S = &Stamps[Base];
  unsigned Victim = 0;
  for (unsigned W = 0; W != Params.Assoc; ++W) {
    if (S[W] != 0 && T[W] == LineAddr) {
      S[W] = ++Tick; // already resident: refresh
      Evicted = false;
      return;
    }
    if (S[W] == 0) {
      Victim = W;
      break;
    }
    if (S[W] < S[Victim])
      Victim = W;
  }
  StatEvictions += S[Victim] != 0;
  Evicted = S[Victim] != 0;
  VictimTag = T[Victim];
  T[Victim] = LineAddr;
  S[Victim] = ++Tick;
}

void Cache::flush() {
  std::fill(Tags.begin(), Tags.end(), InvalidTag);
  std::fill(Stamps.begin(), Stamps.end(), 0);
  Tick = 0;
}

std::uint64_t Cache::residentLines() const {
  std::uint64_t N = 0;
  for (std::uint64_t S : Stamps)
    if (S != 0)
      ++N;
  return N;
}
