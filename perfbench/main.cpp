//===- perfbench/main.cpp - ctabench entry point --------------------------===//
//
// ctabench --workload W --seed N --seconds S --trace 0|1 --cta PATH
//          --dsl-dir DIR --work-dir DIR --out FILE [--spans FILE]
//
// Runs one workload (sweep-cold, sim-base or serve-mixed) and writes a
// result document to --out; perfbench/run.py builds this binary, runs it,
// checks the exact work counters and prints the metrics. The process exits
// non-zero when any output check failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Json.h"
#include "support/ParseNumber.h"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace ctabench;

double ctabench::nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ctabench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t Rank =
      static_cast<std::size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::clamp<std::size_t>(Rank, 1, V.size()) - 1];
}

double ctabench::selfPeakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

SpeedProbe::SpeedProbe() : Ring(1u << 12) {
  // One cycle through every slot (Sattolo's shuffle), so the walk cannot
  // settle into a short loop.
  for (std::uint32_t I = 0; I != Ring.size(); ++I)
    Ring[I] = I;
  Rng Gen(0x5eed);
  for (std::size_t I = Ring.size() - 1; I > 0; --I)
    std::swap(Ring[I], Ring[Gen.below(I)]);
}

double SpeedProbe::sample() {
  constexpr unsigned Hops = 50000;
  double Best = 1e9;
  for (unsigned Rep = 0; Rep != 3; ++Rep) {
    const double T0 = nowSeconds();
    std::uint32_t At = static_cast<std::uint32_t>(Sink & (Ring.size() - 1));
    std::uint64_t H = Sink;
    for (unsigned K = 0; K != Hops; ++K) {
      At = Ring[At];
      H += 0x9e3779b97f4a7c15ULL ^ At;
      H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ULL;
      H = (H ^ (H >> 27)) * 0x94d049bb133111ebULL;
    }
    Sink = H ^ (H >> 31);
    Best = std::min(Best, nowSeconds() - T0);
  }
  return Best;
}

double SpeedProbe::scale(const std::vector<double> &Samples) {
  return ReferenceSeconds / median(Samples);
}

cpu_set_t ctabench::lastCpus(unsigned N) {
  cpu_set_t All, Last;
  CPU_ZERO(&Last);
  if (sched_getaffinity(0, sizeof(All), &All) != 0)
    return Last;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0 && N != 0; --Cpu)
    if (CPU_ISSET(Cpu, &All)) {
      CPU_SET(Cpu, &Last);
      --N;
    }
  return Last;
}

void ctabench::pinTo(const cpu_set_t &Cpus) {
  if (CPU_COUNT(&Cpus) != 0)
    sched_setaffinity(0, sizeof(Cpus), &Cpus);
}

namespace {

/// Steal seconds since boot, summed over \p Cpus.
double stealSeconds(const cpu_set_t &Cpus) {
  static const double Tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream In("/proc/stat");
  std::string Line;
  double Ticks = 0.0;
  while (std::getline(In, Line)) {
    // "cpuN user nice system idle iowait irq softirq steal ..."; the
    // summary line "cpu  ..." has no number after "cpu".
    if (Line.size() < 4 || Line.compare(0, 3, "cpu") != 0 ||
        !std::isdigit(static_cast<unsigned char>(Line[3])))
      continue;
    int Cpu = -1;
    unsigned long long User, Nice, System, Idle, IoWait, Irq, SoftIrq, Steal;
    if (std::sscanf(Line.c_str(), "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu",
                    &Cpu, &User, &Nice, &System, &Idle, &IoWait, &Irq,
                    &SoftIrq, &Steal) == 9 &&
        Cpu >= 0 && Cpu < CPU_SETSIZE && CPU_ISSET(Cpu, &Cpus))
      Ticks += static_cast<double>(Steal);
  }
  return Ticks * Tick;
}

} // namespace

StealShare::StealShare(const cpu_set_t &Cpus)
    : Cpus(Cpus), Wall0(nowSeconds()), Steal0(stealSeconds(Cpus)) {}

double StealShare::kept() const {
  const double Wall = nowSeconds() - Wall0;
  const int Count = CPU_COUNT(&Cpus);
  if (Wall <= 0.0 || Count == 0)
    return 1.0;
  const double Stolen = stealSeconds(Cpus) - Steal0;
  return std::clamp(1.0 - Stolen / (Wall * Count), 0.05, 1.0);
}

Tracer::Scope::Scope(Tracer &Tr, const char *Layer) : T(&Tr), Index(-1) {
  if (!T->Enabled)
    return;
  Index = static_cast<std::int32_t>(T->Spans.size());
  std::int32_t Parent = T->Open.empty() ? -1 : T->Open.back();
  T->Spans.push_back({Layer, T->Request, Parent, nowSeconds(), 0.0});
  T->Open.push_back(Index);
}

Tracer::Scope::~Scope() {
  if (Index < 0)
    return;
  T->Spans[Index].End = nowSeconds();
  T->Open.pop_back();
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[S.Parent] += S.End - S.Start;
  std::map<std::string, double> Self;
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    if (std::strncmp(Spans[I].Layer, "request", 7) == 0)
      continue;
    Self[Spans[I].Layer] += Spans[I].End - Spans[I].Start - Covered[I];
  }
  return Self;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::ofstream Out(Path);
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    cta::obs::JsonWriter W;
    W.beginObject();
    W.key("id");
    W.value(static_cast<std::uint64_t>(I));
    W.key("layer");
    W.value(S.Layer);
    W.key("request");
    W.value(S.Request);
    W.key("parent");
    W.value(static_cast<std::int64_t>(S.Parent));
    W.key("start");
    W.value(S.Start);
    W.key("end");
    W.value(S.End);
    W.endObject();
    Out << W.str() << '\n';
  }
  return static_cast<bool>(Out);
}

namespace {

struct LayerMetric {
  const char *Name;
  const char *Unit;
};

/// BENCHMARK.json's per_layer list, in its order. Spans of layer L report
/// as "L.s" (self seconds).
constexpr LayerMetric LayerTable[] = {
    {"core.tag.s", "s"},
    {"core.tag.groups", "count"},
    {"core.tag.coarsened_away", "count"},
    {"core.dependence.s", "s"},
    {"core.cluster.s", "s"},
    {"core.cluster.merges", "count"},
    {"core.cluster.balance_evictions", "count"},
    {"core.cluster.splits", "count"},
    {"core.schedule.s", "s"},
    {"core.baseline.s", "s"},
    {"core.report.s", "s"},
    {"sim.trace_compile.s", "s"},
    {"sim.trace_registry.hits", "count"},
    {"sim.execute.s", "s"},
    {"sim.accesses", "count"},
    {"sim.rows", "count"},
    {"frontend.parse.s", "s"},
    {"exec.fingerprint.s", "s"},
    {"exec.runcache.store.s", "s"},
    {"exec.runcache.bytes_written", "bytes"},
    {"serve.frame_rw.s", "s"},
    {"serve.request_parse.s", "s"},
    {"serve.build_task.s", "s"},
    {"serve.warm_lookup.s", "s"},
    {"serve.render.s", "s"},
    {"serve.server_service.p50_us", "us"},
    {"serve.server_queue.p50_us", "us"},
    {"serve.unattributed.p50_us", "us"},
    {"serve.warm_rps", "1/s"},
    {"serve.warm_p99_us", "us"},
    {"serve.tier.warm", "count"},
    {"serve.tier.miss", "count"},
    {"serve.tier.coalesced", "count"},
    {"serve.shed", "count"},
    {"obs.artifact_render.s", "s"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.unattributed_share", "ratio"},
    {"xcheck.tag", "ratio"},
    {"xcheck.dependence", "ratio"},
    {"xcheck.cluster", "ratio"},
    {"xcheck.schedule", "ratio"},
    {"xcheck.baseline", "ratio"},
    {"xcheck.trace_compile", "ratio"},
    {"xcheck.execute", "ratio"},
};

/// xcheck.* metric -> (replay layer, the program's own phase span).
constexpr const char *CrossChecks[][3] = {
    {"xcheck.tag", "core.tag", "pipeline.tag"},
    {"xcheck.dependence", "core.dependence", "pipeline.dependence"},
    {"xcheck.cluster", "core.cluster", "pipeline.cluster"},
    {"xcheck.schedule", "core.schedule", "pipeline.local-schedule"},
    {"xcheck.baseline", "core.baseline", "pipeline.baseline"},
    {"xcheck.trace_compile", "sim.trace_compile", "sim.trace-compile"},
    {"xcheck.execute", "sim.execute", "sim.execute"},
};

double lookup(const std::map<std::string, double> &M, const std::string &K) {
  auto It = M.find(K);
  return It == M.end() ? 0.0 : It->second;
}

} // namespace

void ctabench::addStagedLayers(LayerValues &V, const Tracer &T,
                               const StageCounters &C, double TracedWall,
                               double UntracedWall,
                               const std::map<std::string, double> &Phases) {
  std::map<std::string, double> Self = T.selfSeconds();
  for (const auto &[Layer, Seconds] : Self)
    V[Layer + ".s"] += Seconds;
  V["core.tag.groups"] += static_cast<double>(C.TagGroups);
  V["core.tag.coarsened_away"] += static_cast<double>(C.CoarsenedAway);
  V["core.cluster.merges"] += static_cast<double>(C.Merges);
  V["core.cluster.balance_evictions"] +=
      static_cast<double>(C.BalanceEvictions);
  V["core.cluster.splits"] += static_cast<double>(C.Splits);
  V["sim.rows"] += static_cast<double>(C.SimRows);
  V["sim.trace_registry.hits"] += static_cast<double>(C.TraceHits);
  V["trace.wall_s"] = TracedWall;
  V["trace.overhead_s"] = TracedWall - UntracedWall;
  for (const auto &X : CrossChecks) {
    double Program = lookup(Phases, X[2]);
    V[X[0]] = Program > 0.0 ? lookup(Self, X[1]) / Program : 0.0;
  }
}

void ctabench::emitLayerMetrics(Report &R, const LayerValues &V,
                                std::uint64_t Samples) {
  double Attributed = 0.0;
  for (const auto &[Name, Value] : V)
    if (Name.size() > 2 && Name.compare(Name.size() - 2, 2, ".s") == 0)
      Attributed += Value;
  double Wall = lookup(V, "trace.wall_s");
  std::string Largest;
  double LargestSeconds = -1.0;
  for (const LayerMetric &M : LayerTable) {
    double Value = lookup(V, M.Name);
    if (std::string(M.Name) == "trace.unattributed_share")
      Value = Wall > 0.0 ? (Wall - Attributed) / Wall : 0.0;
    R.metric(M.Name, Value, M.Unit, Samples);
    std::string Name = M.Name;
    if (Name.size() > 2 && Name.compare(Name.size() - 2, 2, ".s") == 0 &&
        Value > LargestSeconds) {
      LargestSeconds = Value;
      Largest = Name.substr(0, Name.size() - 2);
    }
  }
  R.note("largest_self_time_layer", Largest);
}

std::string Report::toJson(const Options &Opts) const {
  cta::obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("ctabench-result-v1");
  W.key("workload");
  W.value(Opts.Workload);
  W.key("seed");
  W.value(Opts.Seed);
  W.key("seconds");
  W.value(Opts.Seconds);
  W.key("trace");
  W.value(Opts.Trace);
  W.key("host");
  W.beginObject();
  W.key("nproc");
  W.value(std::thread::hardware_concurrency());
  W.key("build_type");
  W.value(CTABENCH_BUILD_TYPE);
  W.key("compiler");
  W.value(CTABENCH_COMPILER);
  W.endObject();
  W.key("attempted");
  W.value(Attempted);
  W.key("failed");
  W.value(Failed);
  W.key("failures");
  W.beginArray();
  for (const std::string &F : Failures)
    W.value(F);
  W.endArray();
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.key("value");
    W.value(M.Value);
    W.key("unit");
    W.value(M.Unit);
    W.key("samples");
    W.value(M.Samples);
    W.endObject();
  }
  W.endObject();
  W.key("counters");
  W.beginObject();
  for (const auto &[Name, Value] : Counters) {
    W.key(Name);
    W.value(Value);
  }
  W.endObject();
  W.key("notes");
  W.beginObject();
  for (const auto &[Name, Value] : Notes) {
    W.key(Name);
    W.value(Value);
  }
  W.endObject();
  W.endObject();
  return W.str();
}

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "ctabench: %s\nusage: ctabench --workload "
               "sweep-cold|sim-base|serve-mixed --seed N --seconds S "
               "--trace 0|1 --cta PATH --dsl-dir DIR --work-dir DIR --out "
               "FILE [--spans FILE]\n",
               Msg);
  std::exit(2);
}

std::uint64_t parseCount(const std::string &Flag, const std::string &Text) {
  std::optional<std::uint64_t> V = cta::parseUint64(Text);
  if (!V)
    usage((Flag + " needs a non-negative integer, got '" + Text + "'").c_str());
  return *V;
}

} // namespace

int main(int argc, char **argv) {
  // A daemon that dies mid-request must fail the run, not kill it.
  std::signal(SIGPIPE, SIG_IGN);
  Options Opts;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = argv[++I];
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--seed")
      Opts.Seed = parseCount(Flag, Value);
    else if (Flag == "--seconds")
      Opts.Seconds = static_cast<double>(parseCount(Flag, Value));
    else if (Flag == "--trace")
      Opts.Trace = parseCount(Flag, Value) != 0;
    else if (Flag == "--cta")
      Opts.CtaExe = Value;
    else if (Flag == "--dsl-dir")
      Opts.DslDir = Value;
    else if (Flag == "--work-dir")
      Opts.WorkDir = Value;
    else if (Flag == "--out")
      Opts.OutPath = Value;
    else if (Flag == "--spans")
      Opts.SpansPath = Value;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (Opts.OutPath.empty() || Opts.WorkDir.empty() || Opts.Seconds < 1)
    usage("--out, --work-dir and --seconds >= 1 are required");

  Report R;
  int Rc;
  if (Opts.Workload == "sweep-cold" || Opts.Workload == "sim-base")
    Rc = runGrid(Opts, R);
  else if (Opts.Workload == "serve-mixed")
    Rc = runServe(Opts, R);
  else
    usage(("unknown workload '" + Opts.Workload + "'").c_str());

  std::ofstream Out(Opts.OutPath);
  Out << R.toJson(Opts) << '\n';
  if (!Out) {
    std::fprintf(stderr, "ctabench: cannot write %s\n", Opts.OutPath.c_str());
    return 1;
  }
  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "ctabench: FAILED: %s\n", F.c_str());
  return Rc != 0 || R.Failed != 0 ? 1 : 0;
}
