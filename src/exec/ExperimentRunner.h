//===- exec/ExperimentRunner.h - Parallel experiment execution -*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment-execution front end every bench binary runs on. A bench
/// declares its (workload x machine x strategy x option-variant) grid —
/// either as a GridSpec that expandGrid() unrolls, or as an explicit
/// RunTask vector for irregular shapes like the Figure 14 cross-machine
/// study — and the ExperimentRunner executes the tasks concurrently on a
/// work-stealing thread pool, each task with its own MachineSim instance.
///
/// Since the serve/ subsystem landed, the runner is a thin collection shim
/// over serve::Service, the submit/collect core the `cta serve` daemon
/// also runs on: Service owns the pool, the fingerprint ladder (warm
/// index -> coalescing -> RunCache -> simulator) and the per-run metric
/// attribution; the runner adds batch-ordered result collection, the
/// artifact list, and the bench-facing summary/emission helpers. One code
/// path executes a task whether it arrived from a bench binary, `cta run`,
/// or a socket request.
///
/// Two guarantees make this a drop-in replacement for the old serial
/// triple loops:
///
///  * Determinism: results are collected by grid index, so the returned
///    vector is identical for any thread count (simulation itself is
///    single-threaded per task and fully deterministic).
///  * Idempotence: with a cache directory configured, each task's
///    fingerprint is looked up in the persistent RunCache first; only
///    fingerprint misses touch the simulator.
///
/// Command-line integration: parseExecArgs() gives every bench binary the
/// exec flags (--jobs=N, --cache-dir=PATH, ...; env fallbacks CTA_JOBS,
/// CTA_CACHE_DIR, ...) without per-bench argument code.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_EXEC_EXPERIMENTRUNNER_H
#define CTA_EXEC_EXPERIMENTRUNNER_H

#include "exec/RunTask.h"
#include "obs/RunArtifact.h"
#include "serve/Service.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace cta {

/// Runner configuration, normally produced by parseExecArgs().
struct ExecConfig {
  /// Worker threads. 0 = one per hardware thread; 1 = run inline on the
  /// calling thread (no pool).
  unsigned Jobs = 0;
  /// Simulator threads per run (--sim-threads=N / CTA_SIM_THREADS).
  /// 1 = sequential engine; 0 = one per hardware thread; N > 1 = the
  /// epoch-parallel engine with at most N workers. Bit-identical results
  /// for every value, so it is deliberately NOT part of the run
  /// fingerprint — cached results are valid across thread counts.
  unsigned SimThreads = 1;
  /// Directory of the persistent RunCache; empty disables caching.
  std::string CacheDir;
  /// Suppress wall-clock columns in bench tables (--no-timing /
  /// CTA_NO_TIMING) so stdout is byte-comparable across runs and hosts.
  bool NoTiming = false;
  /// Where to write the machine-readable BenchArtifact JSON
  /// (--emit-json=PATH / CTA_EMIT_JSON); empty disables emission.
  std::string EmitJsonPath;
  /// Name recorded in emitted artifacts; parseExecArgs() defaults it to
  /// the binary's basename.
  std::string BenchName = "bench";
  /// Adaptive strategies: groups each core retires between remap commit
  /// points (--adapt-interval=N / CTA_ADAPT_INTERVAL). 0 = keep the
  /// MappingOptions default. Part of the run fingerprint (it changes
  /// simulated cycles), unlike SimThreads.
  unsigned AdaptInterval = 0;
};

/// Parses the exec flags --jobs=N, --sim-threads=N, --cache-dir=PATH,
/// --no-timing, --emit-json=PATH and --adapt-interval=N from \p argv;
/// every flag with a value also accepts the separate `--flag value` form.
/// The CTA_JOBS / CTA_SIM_THREADS / CTA_CACHE_DIR / CTA_NO_TIMING /
/// CTA_EMIT_JSON / CTA_ADAPT_INTERVAL environment variables supply
/// defaults. Unrecognized arguments are left alone so benches can layer
/// their own flags. Aborts on malformed values (anything that is not a
/// plain in-range decimal for the numeric settings).
ExecConfig parseExecArgs(int argc, char **argv);

/// How one argv token relates to parseExecArgs' flags, for front ends
/// that filter the exec flags out of their own argument lists.
enum class ExecFlagForm {
  None,        ///< not an exec flag
  Complete,    ///< `--flag=value`, or a flag that takes no value
  ValueFollows ///< `--flag` whose value is the next argv token
};

/// Classifies \p Arg against the same flag table parseExecArgs uses.
ExecFlagForm classifyExecFlag(const char *Arg);

/// Executes RunTasks concurrently with result caching. Thread-safe for
/// concurrent run() calls, though benches use one runner per process.
///
/// Observability: the underlying Service owns a grid-level MetricSink
/// (parented to the process root). Every task executes under its own run
/// sink parented to the grid sink, installed as the worker thread's
/// current sink for the duration of the task — so counters bumped anywhere
/// in the pipeline are attributed to the run that caused them, roll up
/// into the grid sink when the run finishes, and reach the process root
/// when the runner dies. Each completed (or cache-served) task also
/// appends one RunArtifact, in task order, to the artifact list
/// emitArtifacts() renders as JSON.
class ExperimentRunner {
  ExecConfig Config;
  serve::Service Svc;
  mutable std::mutex ArtifactsMutex;
  std::vector<obs::RunArtifact> Artifacts;

public:
  explicit ExperimentRunner(ExecConfig Config = {});

  /// Worker threads actually in use (resolves Jobs == 0).
  unsigned jobs() const { return Svc.jobs(); }

  /// Runs every task; Results[I] corresponds to Tasks[I] regardless of
  /// completion order.
  std::vector<RunResult> run(const std::vector<RunTask> &Tasks);

  /// Convenience: expandGrid + run.
  std::vector<RunResult> run(const GridSpec &Spec) {
    return run(expandGrid(Spec));
  }

  /// Cache lookup -> execute -> store, for one task on the calling thread.
  RunResult runOne(const RunTask &Task);

  const RunCache &cache() const { return Svc.cache(); }

  /// Number of tasks that actually reached the simulator (cache misses).
  /// A fully warm cache leaves this at zero.
  std::uint64_t simulatorInvocations() const {
    return Svc.simulatorInvocations();
  }

  /// Total memory accesses simulated by cache-missing tasks; with the
  /// wall time this gives the accesses/second throughput the perf-smoke
  /// CI job records.
  std::uint64_t simulatedAccesses() const { return Svc.simulatedAccesses(); }

  /// The configuration the runner resolved (for --no-timing etc.).
  const ExecConfig &config() const { return Config; }

  /// The underlying pool, for benches that need raw parallelFor (null when
  /// running inline with Jobs == 1).
  ThreadPool *pool() { return Svc.pool(); }

  /// The grid-level metric sink runs roll up into (tests/inspection).
  obs::MetricSink &gridSink() { return Svc.gridSink(); }

  /// The submit/collect core, for callers that want asynchronous
  /// submission or warm-index introspection (the serve daemon binds to a
  /// Service directly).
  serve::Service &service() { return Svc; }

  /// True once a shutdown signal skipped any of this runner's tasks; the
  /// results of an interrupted run() are partial and must not be
  /// published (cta run exits 130 without emitting artifacts).
  bool interrupted() const { return Svc.interrupted(); }

  /// Structured records of every task run so far, in task order.
  std::vector<obs::RunArtifact> artifacts() const;

  /// Summary counts of this runner's execution, the data behind the
  /// "[exec] ..." stderr line (render with obs::formatExecSummary).
  obs::ExecSummary execSummary() const;

  /// The full per-process artifact: summary + every run + grid/process
  /// counters and phases.
  obs::BenchArtifact gridArtifact() const;

  /// Writes gridArtifact() to Config.EmitJsonPath when set (no-op
  /// otherwise). Aborts on I/O failure: a requested artifact that cannot
  /// be written should fail loudly, not silently produce nothing.
  void emitArtifacts() const;
};

} // namespace cta

#endif // CTA_EXEC_EXPERIMENTRUNNER_H
