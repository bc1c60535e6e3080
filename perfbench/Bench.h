//===- perfbench/Bench.h - Shared pieces of the repository benchmark -----===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the three benchmark workloads (README.md in this
/// directory says why each exists): the command-line options, a portable
/// seeded generator, the result report run.py reads, the
/// in-memory span recorder of the traced runs, and the stage-by-stage
/// replay of the mapping pipeline and simulator through the modules'
/// public functions.
///
//===----------------------------------------------------------------------===//

#ifndef CTABENCH_BENCH_H
#define CTABENCH_BENCH_H

#include "driver/Experiment.h"
#include "exec/RunTask.h"

#include <cstdint>
#include <map>
#include <sched.h>
#include <string>
#include <vector>

namespace cta::serve {
struct JsonValue;
}

namespace ctabench {

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// The `cta` executable (serve-mixed starts its daemon from it).
  std::string CtaExe;
  /// Directory of the Table 2 DSL sources (workloads/dsl).
  std::string DslDir;
  /// Scratch directory for daemon sockets and run caches, relative to the
  /// working directory so socket paths stay short.
  std::string WorkDir;
  /// Where the result document and the span log are written.
  std::string OutPath;
  std::string SpansPath;
};

/// splitmix64: the inputs must be identical for a seed on every standard
/// library, and std:: distributions are implementation-defined.
class Rng {
  std::uint64_t State;

public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (std::size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

/// Monotonic seconds.
double nowSeconds();

/// Nearest-rank quantile of \p V (0 for an empty vector).
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// Host speed. The shared VMs this benchmark runs on change speed for
/// minutes at a time in two ways, which no length of run averages away:
/// the CPUs run slower, and the hypervisor takes them away to run other
/// tenants ("steal"). Every timed metric is wall time times two factors
/// measured beside the work: SpeedProbe::scale for the first and
/// StealShare::kept for the second. It reads as wall time on a host where
/// the probe takes ReferenceSeconds and nothing is stolen. A change to the
/// program moves neither factor, so it moves the metrics in full.
///
/// The speed probe is fixed register- and L1-bound work that shares no
/// code with the program.
class SpeedProbe {
  std::vector<std::uint32_t> Ring;
  std::uint64_t Sink = 0;

public:
  /// The probe's time on the 4-CPU VM the bounds were set on.
  static constexpr double ReferenceSeconds = 240e-6;

  SpeedProbe();
  /// One probe: the least wall seconds of three back-to-back runs of a
  /// dependent walk over a 16 KiB random ring with a splitmix64 step per
  /// hop.
  double sample();
  /// ReferenceSeconds over the median of \p Samples: the factor that
  /// turns wall seconds measured beside those probes into reference
  /// seconds.
  static double scale(const std::vector<double> &Samples);
};

/// The last \p N CPUs this process may run on (all of them when it has
/// fewer).
cpu_set_t lastCpus(unsigned N);

/// Pins the calling thread, and the threads and processes it starts later,
/// to \p Cpus.
void pinTo(const cpu_set_t &Cpus);

/// The share of an interval's CPU time on a set of CPUs that the
/// hypervisor did not steal, from the steal column of /proc/stat. Work
/// pinned to those CPUs ran for about wall time times kept().
class StealShare {
  cpu_set_t Cpus;
  double Wall0, Steal0;

public:
  /// Starts the interval now.
  explicit StealShare(const cpu_set_t &Cpus);
  /// 1 - stolen seconds / (wall seconds x CPUs) since construction, at
  /// least 0.05 (the counter ticks every 10 ms, so a short interval can
  /// read more steal than it had).
  double kept() const;
};

/// Peak resident set of this process, in MiB.
double selfPeakRssMb();

/// What one benchmark invocation measured and checked.
struct Report {
  struct Metric {
    std::string Name;
    std::string Unit;
    double Value = 0.0;
    std::uint64_t Samples = 0;
  };
  std::vector<Metric> Metrics;
  /// Deterministic work counters, compared exactly against expected.json.
  std::vector<std::pair<std::string, std::string>> Counters;
  /// Free-form findings printed with the report (largest layer, ...).
  std::vector<std::pair<std::string, std::string>> Notes;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Failures;

  void metric(const std::string &Name, double Value, const char *Unit,
              std::uint64_t Samples) {
    Metrics.push_back({Name, Unit, Value, Samples});
  }
  void counter(const std::string &Name, std::uint64_t Value) {
    Counters.emplace_back(Name, std::to_string(Value));
  }
  void counter(const std::string &Name, const std::string &Value) {
    Counters.emplace_back(Name, Value);
  }
  void note(const std::string &Name, const std::string &Value) {
    Notes.emplace_back(Name, Value);
  }
  /// Counts one checked operation; a false \p Ok is a failure.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok)
      fail(What);
  }
  void fail(const std::string &What) {
    ++Failed;
    if (Failures.size() < 32)
      Failures.push_back(What);
  }

  std::string toJson(const Options &Opts) const;
};

/// In-memory spans of a traced run. Each span has a layer name, start and
/// end, the span that was open when it began, and the request (run) it
/// belongs to. Layers whose name starts with "request" are containers:
/// their self time is the unattributed part of the request.
class Tracer {
public:
  struct Span {
    const char *Layer;
    std::uint64_t Request;
    std::int32_t Parent;
    double Start;
    double End;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  class Scope {
    Tracer *T;
    std::int32_t Index;

  public:
    Scope(Tracer &Tr, const char *Layer);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
  };

  bool enabled() const { return Enabled; }
  void setRequest(std::uint64_t Id) { Request = Id; }

  /// Per layer: the sum over its spans of duration minus the part covered
  /// by direct children. Container layers are left out.
  std::map<std::string, double> selfSeconds() const;

  /// Writes one JSON object per span, one per line.
  bool writeJsonLines(const std::string &Path) const;

private:
  bool Enabled;
  std::uint64_t Request = 0;
  std::vector<Span> Spans;
  std::vector<std::int32_t> Open;
};

/// The counters the staged replay reads from the program's own metric
/// sink after each run (the program's existing deterministic counters).
struct StageCounters {
  std::uint64_t TagGroups = 0;
  std::uint64_t CoarsenedAway = 0;
  std::uint64_t Merges = 0;
  std::uint64_t BalanceEvictions = 0;
  std::uint64_t Splits = 0;
  std::uint64_t SimRows = 0;
  std::uint64_t TraceHits = 0;
};

/// One run replayed stage by stage: the runOnMachine result rebuilt from
/// the public core/ and sim/ functions, plus the per-nest mappings (the
/// fields sameMapping compares; group lists are dropped).
struct StagedRun {
  cta::RunResult Result;
  std::vector<cta::Mapping> Maps;
};

/// Rebuilds the mapping of nest \p NestIdx the way runMappingPipeline
/// does, one public call per stage, each under a span of its layer
/// (core.tag, core.dependence, core.cluster, core.schedule,
/// core.baseline).
cta::Mapping stagedMapping(const cta::Program &Prog, unsigned NestIdx,
                           const cta::CacheTopology &Machine,
                           cta::Strategy Strat,
                           const cta::MappingOptions &Opts, Tracer &T);

/// runOnMachine through the public functions: staged mapping, sharing
/// report (core.report), trace compile (sim.trace_compile) and engine
/// (sim.execute). Counters the program bumps are added to \p C.
StagedRun stagedRun(const cta::RunTask &Task, unsigned SimThreads, Tracer &T,
                    StageCounters &C);

/// True when two mappings schedule the same iterations identically.
bool sameMapping(const cta::Mapping &A, const cta::Mapping &B);

/// The output oracle for one run: every nest's runMappingPipeline mapping
/// must cover its iteration space exactly, and when \p Reference is set
/// the run is re-simulated with executeMappingReference and its cycles
/// and per-cache counters must equal \p Expected bit for bit.
void oracleCheck(const cta::RunTask &Task, const cta::RunResult &Expected,
                 bool Reference, const std::string &Label, Report &R);

/// A cta-run-artifact-v1 document as the RunResult it was rendered from
/// (everything serializeRunResult stores).
cta::RunResult resultFromArtifact(const cta::serve::JsonValue &Run);

/// Per-layer values of a traced run, by metric name.
using LayerValues = std::map<std::string, double>;

/// Adds the layer self times, the stage counters and the coverage figures
/// (wall, overhead against \p UntracedWall, unattributed share) of a
/// staged replay to \p V. \p Phases holds the program's own phase spans
/// for the same work: the xcheck.* ratios compare the two.
void addStagedLayers(LayerValues &V, const Tracer &T, const StageCounters &C,
                     double TracedWall, double UntracedWall,
                     const std::map<std::string, double> &Phases);

/// Reports every per-layer metric of BENCHMARK.json in a fixed order; a
/// layer the workload does not run reports 0.
void emitLayerMetrics(Report &R, const LayerValues &V, std::uint64_t Samples);

/// Seconds of the phases named \p Name in \p Phases.
double phaseSeconds(const std::vector<cta::obs::PhaseRecord> &Phases,
                    const char *Name);

int runGrid(const Options &Opts, Report &R);
int runServe(const Options &Opts, Report &R);

} // namespace ctabench

#endif // CTABENCH_BENCH_H
