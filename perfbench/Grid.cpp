//===- perfbench/Grid.cpp - The sweep-cold and sim-base workloads ---------===//
//
// sweep-cold: the Figure 13 grid (12 Table 2 apps x harpertown, nehalem,
// dunnington at 1/32 scale x Base, Base+, TopologyAware = 108 runs) in
// grid order, all cold, in-process through serve::Service with one job
// and one simulator thread, so layer times add up to wall time.
//
// sim-base: the same apps and machines with Base and Base+ only (72 runs)
// and min(2, nproc) simulator threads, so the epoch-parallel engine runs
// and sim/ dominates. Two threads, not four, leave CPUs free for the
// host: with four, this workload's run-to-run spread on a shared 4-CPU
// host was the widest of the three.
//
// A measured pass runs the whole grid against a fresh Service with the
// trace registry emptied, exactly like a cold `fig13_main_comparison
// --jobs=1` invocation. Passes repeat until --seconds have been measured;
// per-pass figures are reported as medians. Between the cold runs, blocks
// of warm re-asks of the runs the pass has finished are answered from the
// Service's warm index: warm_p50_us and the warm_rps and warm_p99_us notes
// (their time is left out of the pass). The process is pinned to as many
// CPUs as the workload keeps busy. The runs are timed in groups of
// WarmEvery with a SpeedProbe sample before each run; a group's times are
// scaled by the median of its samples and by the share of the group's time
// the hypervisor did not steal from those CPUs (Bench.h). The traced run
// replays the grid stage by stage instead (see Replay.cpp).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "serve/Service.h"
#include "sim/AccessTrace.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

using namespace cta;
using namespace ctabench;

namespace {

const char *const MachineNames[] = {"harpertown", "nehalem", "dunnington"};
constexpr double MachineScale = 1.0 / 32;
/// Warm re-asks run in blocks between the cold runs of a pass, one block
/// after every WarmEvery runs, so they sample the whole run and not one
/// moment of it. Each block gives a p99 with twenty samples beyond it;
/// block figures are reported as medians.
constexpr unsigned WarmEvery = 12;
constexpr unsigned WarmBlockSize = 2000;
/// Set-up is repeated and reported as a median: SetupRepeats times before
/// the first pass, then once after every WarmEvery runs of the untraced
/// passes. Its cost changes with the host's state from one second to the
/// next, in a way the speed probe does not follow, so samples spread over
/// the whole run steady the median.
constexpr unsigned SetupRepeats = 5;
/// Runs re-simulated with the reference engine per invocation.
constexpr unsigned ReferenceSamples = 2;

GridSpec gridSpec(bool Sweep) {
  GridSpec Spec;
  Spec.Workloads = workloadNames();
  for (const char *Name : MachineNames)
    Spec.Machines.push_back(makePresetByName(Name).scaledCapacity(MachineScale));
  Spec.Strategies = {Strategy::Base, Strategy::BasePlus};
  if (Sweep)
    Spec.Strategies.push_back(Strategy::TopologyAware);
  Spec.OptionVariants = {ExperimentConfig::makeDefaultOptions()};
  return Spec;
}

/// One pass. Wall, CompileSeconds, SimSeconds and LatencyMs are in
/// reference seconds (Bench.h); RawWall and Phases are as measured.
struct Pass {
  double Wall = 0.0;
  double RawWall = 0.0;
  double CompileSeconds = 0.0;
  double SimSeconds = 0.0;
  std::uint64_t Accesses = 0;
  std::vector<double> LatencyMs;
  std::vector<RunResult> Results; // by task index
  std::map<std::string, double> Phases;
};

std::unique_ptr<serve::Service> freshService(unsigned SimThreads) {
  serve::Service::Config Cfg;
  Cfg.Jobs = 1;
  Cfg.SimThreads = SimThreads;
  return std::make_unique<serve::Service>(Cfg);
}

/// The warm re-asks of the untraced runs.
struct WarmSamples {
  Rng Gen;
  std::vector<double> LatencyUs, BlockRps, BlockP99;
};

/// Re-asks tasks [0, \p Done) of \p Tasks, which \p Svc has answered in
/// this pass: every answer must come from the warm index with the cold
/// result. Times are multiplied by \p Scale.
void warmBlock(serve::Service &Svc, const std::vector<RunTask> &Tasks,
               const std::vector<RunResult> &Results, std::size_t Done,
               double Scale, WarmSamples &W, Report &R) {
  std::vector<double> Block;
  Block.reserve(WarmBlockSize);
  const double Start = nowSeconds();
  for (unsigned I = 0; I != WarmBlockSize; ++I) {
    std::size_t Idx = W.Gen.below(Done);
    const double T0 = nowSeconds();
    serve::TaskOutcome Out = Svc.runOne(Tasks[Idx]);
    Block.push_back((nowSeconds() - T0) * 1e6 * Scale);
    R.check(Out.Artifact.CacheStatus == "warm" &&
                Out.Result.Cycles == Results[Idx].Cycles,
            Tasks[Idx].Label + ": warm re-ask not answered warm with the "
                               "cold result");
  }
  W.BlockRps.push_back(WarmBlockSize / ((nowSeconds() - Start) * Scale));
  W.BlockP99.push_back(quantile(Block, 0.99));
  W.LatencyUs.insert(W.LatencyUs.end(), Block.begin(), Block.end());
}

/// One cold pass over the grid, in grid order, with warm blocks and calls
/// of \p Between after every WarmEvery runs when \p Warm is set (their
/// time is not part of the pass).
Pass runPass(serve::Service &Svc, const std::vector<RunTask> &Tasks,
             const cpu_set_t &Cpus, SpeedProbe &Probe, WarmSamples *Warm,
             const std::function<void()> &Between, Report &R) {
  Pass P;
  P.Results.resize(Tasks.size());
  TraceRegistry::clear();
  std::vector<double> GroupProbes, GroupSeconds;
  StealShare Steal(Cpus);
  for (std::size_t Idx = 0; Idx != Tasks.size(); ++Idx) {
    if (GroupSeconds.empty())
      Steal = StealShare(Cpus);
    GroupProbes.push_back(Probe.sample());
    const double T0 = nowSeconds();
    serve::TaskOutcome Out = Svc.runOne(Tasks[Idx]);
    GroupSeconds.push_back(nowSeconds() - T0);
    R.check(Out.Artifact.CacheStatus == "disabled",
            Tasks[Idx].Label + ": cold run answered from the '" +
                Out.Artifact.CacheStatus + "' tier");
    P.Results[Idx] = std::move(Out.Result);
    if ((Idx + 1) % WarmEvery != 0 && Idx + 1 != Tasks.size())
      continue;
    // The group ends: scale its times by the host speed measured beside
    // them.
    const double Scale = SpeedProbe::scale(GroupProbes) * Steal.kept();
    const std::size_t First = Idx + 1 - GroupSeconds.size();
    for (std::size_t I = 0; I != GroupSeconds.size(); ++I) {
      const RunResult &Res = P.Results[First + I];
      P.RawWall += GroupSeconds[I];
      P.Wall += GroupSeconds[I] * Scale;
      P.LatencyMs.push_back(GroupSeconds[I] * 1e3 * Scale);
      P.CompileSeconds += Res.MappingSeconds * Scale;
      P.SimSeconds += phaseSeconds(Res.Phases, "sim.execute") * Scale;
    }
    GroupProbes.clear();
    GroupSeconds.clear();
    if (Warm) {
      warmBlock(Svc, Tasks, P.Results, Idx + 1, Scale, *Warm, R);
      Between();
    }
  }
  for (const RunResult &Res : P.Results) {
    P.Accesses += Res.Stats.TotalAccesses;
    for (const obs::PhaseRecord &Ph : Res.Phases)
      P.Phases[Ph.Name] += Ph.Seconds;
  }
  return P;
}

std::uint64_t counterSum(const std::vector<RunResult> &Results,
                         const char *Name) {
  std::uint64_t S = 0;
  for (const RunResult &Res : Results) {
    auto It = Res.Counters.find(Name);
    if (It != Res.Counters.end())
      S += It->second;
  }
  return S;
}

std::string fixed(double V, int Digits) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  return Buf;
}

/// The exact work counters of one grid pass, and for sweep-cold the
/// TopologyAware-vs-Base ratios fig13_main_comparison prints.
void gridCounters(const GridSpec &Spec, const std::vector<RunResult> &Results,
                  bool Sweep, Report &R) {
  std::uint64_t Cycles = 0, Accesses = 0;
  for (const RunResult &Res : Results) {
    Cycles += Res.Cycles;
    Accesses += Res.Stats.TotalAccesses;
  }
  R.counter("sim.accesses", Accesses);
  R.counter("sim.cycles", Cycles);
  R.counter("core.cluster.merges", counterSum(Results, "clusterer.merges"));
  R.counter("core.tag.groups", counterSum(Results, "tagger.groups"));
  if (!Sweep)
    return;
  std::vector<double> All;
  double Worst = 0.0;
  for (std::size_t M = 0; M != Spec.Machines.size(); ++M) {
    std::vector<double> Machine;
    for (std::size_t W = 0; W != Spec.Workloads.size(); ++W) {
      double Ratio = cycleRatio(Results[Spec.index(M, W, 0, 2)],
                                Results[Spec.index(M, W, 0, 0)]);
      Machine.push_back(Ratio);
      All.push_back(Ratio);
      Worst = std::max(Worst, Ratio);
    }
    R.counter(std::string("fig13.") + MachineNames[M] + ".ta_geomean",
              fixed(geomean(Machine), 3));
  }
  R.counter("ta_vs_base_geomean", fixed(geomean(All), 9));
  R.counter("ta_worst_vs_base", fixed(Worst, 9));
}

} // namespace

int ctabench::runGrid(const Options &Opts, Report &R) {
  const bool Sweep = Opts.Workload == "sweep-cold";
  const unsigned SimThreads =
      Sweep ? 1u : std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
  // The Service's threads start later and inherit the CPUs.
  const cpu_set_t Cpus = lastCpus(SimThreads);
  pinTo(Cpus);

  // Set-up: the programs and scaled topologies of the grid, each build
  // scaled by a probe taken just before it. The first build is kept; the
  // others are freed outside the timed part.
  SpeedProbe Probe;
  std::vector<double> SetupSeconds;
  GridSpec Spec;
  std::vector<RunTask> Tasks;
  auto setUp = [&] {
    const double Scale = SpeedProbe::scale({Probe.sample()});
    const double T0 = nowSeconds();
    GridSpec NewSpec = gridSpec(Sweep);
    std::vector<RunTask> NewTasks = expandGrid(NewSpec);
    SetupSeconds.push_back((nowSeconds() - T0) * Scale);
    if (Tasks.empty()) {
      Spec = std::move(NewSpec);
      Tasks = std::move(NewTasks);
    }
  };
  for (unsigned I = 0; I != (Opts.Trace ? 1 : SetupRepeats); ++I)
    setUp();

  // The cold passes run in grid order, as fig13_main_comparison does (a
  // shuffled order made the peak RSS depend on the seed); the seed picks
  // the warm re-asks and the reference-engine sample.
  std::vector<std::size_t> Shuffled(Tasks.size());
  for (std::size_t I = 0; I != Shuffled.size(); ++I)
    Shuffled[I] = I;
  Rng(Opts.Seed).shuffle(Shuffled);

  std::unique_ptr<serve::Service> Svc = freshService(SimThreads);
  WarmSamples Warm{Rng(Opts.Seed), {}, {}, {}};
  Pass First =
      runPass(*Svc, Tasks, Cpus, Probe, Opts.Trace ? nullptr : &Warm, setUp, R);
  gridCounters(Spec, First.Results, Sweep, R);

  if (Opts.Trace) {
    Tracer T(true);
    StageCounters C;
    std::vector<StagedRun> Staged(Tasks.size());
    TraceRegistry::clear();
    const double Start = nowSeconds();
    for (std::size_t Idx = 0; Idx != Tasks.size(); ++Idx) {
      T.setRequest(Idx);
      Tracer::Scope Run(T, "request.run");
      std::uint64_t Key;
      {
        Tracer::Scope S(T, "exec.fingerprint");
        Key = serve::Service::fingerprint(Tasks[Idx]);
      }
      Staged[Idx] = stagedRun(Tasks[Idx], SimThreads, T, C);
      Tracer::Scope S(T, "obs.artifact_render");
      serve::makeRunArtifact(Tasks[Idx], Key, "disabled", Staged[Idx].Result);
    }
    const double TracedWall = nowSeconds() - Start;

    // The decomposition must measure the same program: same simulated
    // outcome as the untraced pass, same mapping as runMappingPipeline.
    std::uint64_t Accesses = 0;
    for (std::size_t Idx = 0; Idx != Tasks.size(); ++Idx) {
      const RunTask &Task = Tasks[Idx];
      const RunResult &Got = Staged[Idx].Result;
      Accesses += Got.Stats.TotalAccesses;
      R.check(Got.Cycles == First.Results[Idx].Cycles &&
                  Got.Stats.TotalAccesses ==
                      First.Results[Idx].Stats.TotalAccesses,
              Task.Label + ": staged replay simulated a different outcome");
      for (unsigned N = 0; N != Task.Prog.Nests.size(); ++N) {
        PipelineResult Pipe = runMappingPipeline(Task.Prog, N, Task.Machine,
                                                 Task.Strat, Task.Opts);
        R.check(sameMapping(Staged[Idx].Maps[N], Pipe.Map),
                Task.Label + ": staged mapping differs from "
                             "runMappingPipeline's");
        R.check(Pipe.Map.coversExactly(
                    Task.Prog.Nests[N].enumerate(Task.Opts.MaxIterations)
                        .size()),
                Task.Label + ": mapping does not cover its iterations");
      }
    }
    LayerValues V;
    addStagedLayers(V, T, C, TracedWall, First.RawWall, First.Phases);
    V["sim.accesses"] = static_cast<double>(Accesses);
    emitLayerMetrics(R, V, Tasks.size());
    if (!Opts.SpansPath.empty() && !T.writeJsonLines(Opts.SpansPath))
      R.fail("cannot write the span log " + Opts.SpansPath);
  } else {
    std::vector<Pass> Passes;
    Passes.push_back(First);
    double Measured = Passes.back().RawWall;
    while (Measured < Opts.Seconds) {
      Svc = freshService(SimThreads);
      Passes.push_back(runPass(*Svc, Tasks, Cpus, Probe, &Warm, setUp, R));
      Measured += Passes.back().RawWall;
      for (std::size_t Idx = 0; Idx != Tasks.size(); ++Idx)
        R.check(Passes.back().Results[Idx].Cycles ==
                    Passes.front().Results[Idx].Cycles,
                Tasks[Idx].Label + ": cycles differ between passes");
    }
    const double PeakRss = selfPeakRssMb();

    std::vector<double> RunsPerS, RawRunsPerS, Compile, SimRate;
    for (const Pass &P : Passes) {
      RunsPerS.push_back(static_cast<double>(Tasks.size()) / P.Wall);
      RawRunsPerS.push_back(static_cast<double>(Tasks.size()) / P.RawWall);
      Compile.push_back(P.CompileSeconds);
      SimRate.push_back(static_cast<double>(P.Accesses) / 1e6 / P.SimSeconds);
    }
    // Each run's median latency over the passes, geomean over the runs:
    // runs differ widely in cost, and a plain median of all latencies
    // jumps between the runs either side of it.
    std::vector<double> TaskMs;
    for (std::size_t Idx = 0; Idx != Tasks.size(); ++Idx) {
      std::vector<double> Ms;
      for (const Pass &P : Passes)
        Ms.push_back(P.LatencyMs[Idx]);
      TaskMs.push_back(median(Ms));
    }
    R.metric("setup_s", median(SetupSeconds), "s", SetupSeconds.size());
    R.metric("runs_per_s", median(RunsPerS), "1/s", Passes.size());
    R.metric("compile_s", median(Compile), "s", Passes.size());
    R.metric("sim_maccess_per_s", median(SimRate), "M/s", Passes.size());
    R.metric("cold_p50_ms", geomean(TaskMs), "ms",
             Passes.size() * Tasks.size());
    R.metric("warm_p50_us", median(Warm.LatencyUs), "us",
             Warm.LatencyUs.size());
    R.metric("peak_rss_mb", PeakRss, "MB", 1);
    R.note("passes", std::to_string(Passes.size()));
    R.note("wall_runs_per_s", std::to_string(median(RawRunsPerS)));
    R.note("warm_rps", std::to_string(median(Warm.BlockRps)));
    R.note("warm_p99_us", std::to_string(median(Warm.BlockP99)));
  }

  // Output oracle: every mapping covers its iterations exactly (checked
  // above for the traced run); the first ReferenceSamples tasks of the
  // seeded order are re-simulated with the reference engine.
  for (std::size_t Idx = 0; Idx != Tasks.size(); ++Idx) {
    bool Reference = std::find(Shuffled.begin(),
                               Shuffled.begin() + ReferenceSamples,
                               Idx) != Shuffled.begin() + ReferenceSamples;
    if (Reference || !Opts.Trace)
      oracleCheck(Tasks[Idx], First.Results[Idx], Reference,
                  Tasks[Idx].Label, R);
  }
  return 0;
}
