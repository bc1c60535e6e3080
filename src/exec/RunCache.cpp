//===- exec/RunCache.cpp - Persistent content-addressed run cache ---------===//

#include "exec/RunCache.h"

#include "exec/Fingerprint.h"

#include "support/ErrorHandling.h"
#include "support/Hashing.h"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace cta;

namespace {

/// Lossless double rendering (hexfloat) — "%a" round-trips exactly.
std::string formatExact(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

} // namespace

std::string cta::serializeRunResult(const RunResult &R, std::uint64_t Key) {
  std::ostringstream OS;
  OS << "CTA-RUN v" << RunCacheFormatVersion << "\n";
  OS << "key " << toHexDigest(Key) << "\n";
  OS << "cycles " << R.Cycles << "\n";
  OS << "mapping_seconds " << formatExact(R.MappingSeconds) << "\n";
  OS << "block_size " << R.BlockSizeBytes << "\n";
  OS << "imbalance " << formatExact(R.Imbalance) << "\n";
  OS << "num_rounds " << R.NumRounds << "\n";
  OS << "memory_accesses " << R.Stats.MemoryAccesses << "\n";
  OS << "total_accesses " << R.Stats.TotalAccesses << "\n";
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    const SimStats::LevelStats &S = R.Stats.Levels[L];
    if (S.Lookups == 0 && S.Hits == 0)
      continue;
    OS << "level " << L << " " << S.Lookups << " " << S.Hits << "\n";
  }
  for (const CacheNodeStats &C : R.PerCache)
    OS << "cache_node " << C.NodeId << " " << C.Level << " " << C.Lookups
       << " " << C.Hits << " " << C.Evictions << "\n";
  OS << "sharing_total " << R.Sharing.TotalSharing << "\n";
  for (const LevelSharing &L : R.Sharing.Levels)
    OS << "sharing " << L.Level << " " << L.WithinDomain << " "
       << L.AcrossDomains << "\n";
  // Counter and phase names are identifier-like ("tagger.iterations",
  // "sim.execute"): single whitespace-free tokens by construction.
  for (const auto &[Name, Value] : R.Counters)
    OS << "counter " << Name << " " << Value << "\n";
  for (const obs::PhaseRecord &P : R.Phases) {
    OS << "phase " << P.Name << " " << formatExact(P.StartSeconds) << " "
       << formatExact(P.Seconds) << " " << P.PeakRssKb << " "
       << P.CounterDeltas.size();
    for (const auto &[Name, Value] : P.CounterDeltas)
      OS << " " << Name << " " << Value;
    OS << "\n";
  }
  OS << "end\n";
  return OS.str();
}

std::optional<RunResult> cta::deserializeRunResult(const std::string &Text,
                                                   std::uint64_t Key) {
  std::istringstream IS(Text);
  std::string Line;
  if (!std::getline(IS, Line) ||
      Line != "CTA-RUN v" + std::to_string(RunCacheFormatVersion))
    return std::nullopt;

  RunResult R;
  bool SawKey = false, SawEnd = false;
  while (std::getline(IS, Line)) {
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    std::istringstream LS(Line);
    std::string Field;
    LS >> Field;
    if (Field == "key") {
      std::string Hex;
      LS >> Hex;
      if (Hex != toHexDigest(Key))
        return std::nullopt;
      SawKey = true;
    } else if (Field == "cycles") {
      LS >> R.Cycles;
    } else if (Field == "mapping_seconds") {
      std::string V;
      LS >> V;
      R.MappingSeconds = std::strtod(V.c_str(), nullptr);
    } else if (Field == "block_size") {
      LS >> R.BlockSizeBytes;
    } else if (Field == "imbalance") {
      std::string V;
      LS >> V;
      R.Imbalance = std::strtod(V.c_str(), nullptr);
    } else if (Field == "num_rounds") {
      LS >> R.NumRounds;
    } else if (Field == "memory_accesses") {
      LS >> R.Stats.MemoryAccesses;
    } else if (Field == "total_accesses") {
      LS >> R.Stats.TotalAccesses;
    } else if (Field == "level") {
      unsigned L = 0;
      std::uint64_t Lookups = 0, Hits = 0;
      LS >> L >> Lookups >> Hits;
      if (L == 0 || L > SimStats::MaxLevels)
        return std::nullopt;
      R.Stats.Levels[L].Lookups = Lookups;
      R.Stats.Levels[L].Hits = Hits;
    } else if (Field == "cache_node") {
      CacheNodeStats C;
      LS >> C.NodeId >> C.Level >> C.Lookups >> C.Hits >> C.Evictions;
      R.PerCache.push_back(C);
    } else if (Field == "sharing_total") {
      LS >> R.Sharing.TotalSharing;
    } else if (Field == "sharing") {
      LevelSharing L;
      LS >> L.Level >> L.WithinDomain >> L.AcrossDomains;
      R.Sharing.Levels.push_back(L);
    } else if (Field == "counter") {
      std::string Name;
      std::uint64_t Value = 0;
      LS >> Name >> Value;
      if (Name.empty())
        return std::nullopt;
      R.Counters[Name] = Value;
    } else if (Field == "phase") {
      obs::PhaseRecord P;
      std::string Start, Sec;
      std::size_t NumDeltas = 0;
      LS >> P.Name >> Start >> Sec >> P.PeakRssKb >> NumDeltas;
      if (P.Name.empty() || LS.fail())
        return std::nullopt;
      P.StartSeconds = std::strtod(Start.c_str(), nullptr);
      P.Seconds = std::strtod(Sec.c_str(), nullptr);
      for (std::size_t I = 0; I != NumDeltas; ++I) {
        std::string Name;
        std::uint64_t Value = 0;
        LS >> Name >> Value;
        if (Name.empty())
          return std::nullopt;
        P.CounterDeltas[Name] = Value;
      }
      R.Phases.push_back(std::move(P));
    } else {
      return std::nullopt; // unknown field: treat as corruption
    }
    if (LS.fail())
      return std::nullopt;
  }
  if (!SawKey || !SawEnd)
    return std::nullopt;
  return R;
}

/// Engine-telemetry counters describe *how* a simulation executed
/// (batched rows, arena footprint, deferred work), not what it computed;
/// different engine paths — sequential batched, traced unbatched,
/// epoch-parallel — legitimately publish different families for the
/// same bit-identical result, so they are not part of the deterministic
/// record.
static bool isEngineTelemetry(const std::string &Name) {
  return Name.rfind("sim.batch.", 0) == 0 ||
         Name.rfind("sim.parallel.", 0) == 0;
}

static void dropEngineTelemetry(std::map<std::string, std::uint64_t> &M) {
  for (auto It = M.begin(); It != M.end();)
    It = isEngineTelemetry(It->first) ? M.erase(It) : std::next(It);
}

std::string cta::deterministicBytes(const RunResult &R) {
  RunResult Canon = R;
  Canon.MappingSeconds = 0.0;
  // Phase spans are part of the deterministic record only in structure
  // (names, order, counter deltas); their start/wall time and the
  // process's peak RSS are measurements.
  for (obs::PhaseRecord &P : Canon.Phases) {
    P.StartSeconds = 0.0;
    P.Seconds = 0.0;
    P.PeakRssKb = 0;
    dropEngineTelemetry(P.CounterDeltas);
  }
  dropEngineTelemetry(Canon.Counters);
  return serializeRunResult(Canon, /*Key=*/0);
}

RunCache::RunCache(std::string Directory) : Dir(std::move(Directory)) {
  if (Dir.empty())
    return;
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    reportFatalError(("cannot create run-cache directory '" + Dir +
                      "': " + EC.message())
                         .c_str());
}

std::optional<RunResult> RunCache::lookup(std::uint64_t Key) const {
  if (!enabled())
    return std::nullopt;
  std::filesystem::path Path =
      std::filesystem::path(Dir) / (toHexDigest(Key) + ".run");
  std::ifstream In(Path);
  if (!In) {
    MissCount.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::ostringstream Contents;
  Contents << In.rdbuf();
  std::optional<RunResult> R = deserializeRunResult(Contents.str(), Key);
  (R ? HitCount : MissCount).fetch_add(1, std::memory_order_relaxed);
  return R;
}

void RunCache::store(std::uint64_t Key, const RunResult &R) const {
  if (!enabled())
    return;
  std::filesystem::path Final =
      std::filesystem::path(Dir) / (toHexDigest(Key) + ".run");
  // Unique temp per writer *process and thread*, renamed into place
  // atomically: concurrent processes sharing a cache directory (two
  // benches, `cta run` beside a `cta serve` daemon) publish the same key
  // without ever exposing a torn file — the last rename wins whole.
  std::ostringstream TmpName;
  TmpName << toHexDigest(Key) << ".tmp." << ::getpid() << "."
          << std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::filesystem::path Tmp = std::filesystem::path(Dir) / TmpName.str();
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out)
      return; // cache is best-effort; failing to store is not fatal
    Out << serializeRunResult(R, Key);
  }
  std::error_code EC;
  std::filesystem::rename(Tmp, Final, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return;
  }
  StoreCount.fetch_add(1, std::memory_order_relaxed);
}
