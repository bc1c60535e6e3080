//===- bench/BenchCommon.h - Shared bench harness pieces -------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure/table reproduction binaries: the simulated
/// machine roster, the sensitivity subset and small formatting helpers.
/// Every bench prints the series of one table or figure from the paper's
/// evaluation (Section 4); EXPERIMENTS.md records the measured outcomes.
///
/// All benches execute their (workload x machine x strategy x option)
/// grids through exec/ExperimentRunner: tasks run concurrently on a
/// work-stealing pool (--jobs=N, default one per hardware thread) and are
/// served from the persistent RunCache when --cache-dir=PATH is given.
/// Results are collected in grid order, so bench output is identical for
/// every thread count.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_BENCH_BENCHCOMMON_H
#define CTA_BENCH_BENCHCOMMON_H

#include "exec/ExperimentRunner.h"
#include "obs/MetricSink.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cta::bench {

/// All benches simulate the Table 1 machines at this capacity scale, with
/// matching scaled-down data sets (DESIGN.md documents the regime).
inline constexpr double MachineScale = 1.0 / 32;

inline CacheTopology simMachine(const std::string &Preset) {
  return makePresetByName(Preset).scaledCapacity(MachineScale);
}

/// The mapping knobs every bench starts from: block size auto-selected
/// with the Section 4.1 heuristic against the scaled L1.
inline MappingOptions defaultOpts() {
  return ExperimentConfig::makeDefaultOptions();
}

/// The representative subset used by the sensitivity studies (keeps each
/// parameter sweep to tens of seconds; the main comparison runs all 12).
inline std::vector<std::string> sensitivitySubset() {
  return {"galgel", "cg", "bodytrack", "freqmine", "povray", "h264"};
}

/// Cycles ratio of one run against a Base run. NaN when the base ran for
/// zero cycles (degenerate nest), so tables render "nan" rather than
/// "inf" — and geomean() over a series containing it stays NaN instead of
/// poisoning the aggregate with infinity.
inline double ratioToBase(const RunResult &R, const RunResult &Base) {
  return cycleRatio(R, Base);
}

inline void printHeader(const char *Id, const char *Title) {
  std::printf("== %s: %s ==\n", Id, Title);
}

/// A wall-clock table cell. Under --no-timing (env CTA_NO_TIMING) it
/// renders as "-" so bench stdout is byte-comparable across runs, hosts
/// and build types; every other column is deterministic already.
inline std::string timingCell(const ExecConfig &Config, std::string Cell) {
  return Config.NoTiming ? std::string("-") : std::move(Cell);
}

/// One-line execution report on stderr (stdout stays byte-comparable
/// across --jobs/--cache-dir settings). Renders through the shared
/// obs::formatExecSummary so the runner and BenchCommon can never drift.
inline void printExecSummary(const ExperimentRunner &Runner) {
  std::fprintf(stderr, "%s\n",
               obs::formatExecSummary(Runner.execSummary()).c_str());
}

/// parallelFor over [0, N) with each job under its own MetricSink, a
/// child of the root sink. Afterwards every job's phases are appended to
/// the root in index order, and its counters roll up into the root when
/// the sinks die. The process-level phases of an --emit-json artifact
/// are then the same for every --jobs value (under a shared sink, one
/// job's phase would collect the counter bumps of whatever job ran
/// beside it).
inline void parallelForWithSinks(ThreadPool *Pool, std::size_t N,
                                 const std::function<void(std::size_t)> &Fn) {
  obs::MetricSink &Root = obs::MetricSink::root();
  std::vector<std::unique_ptr<obs::MetricSink>> Sinks;
  for (std::size_t I = 0; I != N; ++I)
    Sinks.push_back(std::make_unique<obs::MetricSink>(&Root));
  parallelFor(Pool, 0, N, [&](std::size_t I) {
    obs::MetricScope Scope(*Sinks[I]);
    Fn(I);
  });
  for (const std::unique_ptr<obs::MetricSink> &Sink : Sinks)
    for (obs::PhaseRecord &Phase : Sink->phases())
      Root.recordPhase(std::move(Phase));
}

/// Standard bench epilogue: the stderr execution summary plus the
/// machine-readable artifact when --emit-json/CTA_EMIT_JSON is set.
inline void finishBench(const ExperimentRunner &Runner) {
  printExecSummary(Runner);
  Runner.emitArtifacts();
}

} // namespace cta::bench

#endif // CTA_BENCH_BENCHCOMMON_H
