//===- tools/cta/cta.cpp - Workload DSL command-line driver ---------------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cta` binary: maps and simulates textual workloads without
/// recompiling the repo. Three subcommands:
///
///   cta run <workload> --machine <preset|file.topo> [options]
///       Parse a .cta file (or name a compiled-in Table 2 workload),
///       run it through the mapping pipeline + simulator, and report
///       cycles, cache behaviour and the mapping summary. --emit-json
///       writes the cta-bench-artifact-v1 document; --emit-code prints
///       the generated C-like nest code.
///
///   cta trace <workload> --machine <preset|file.topo> [options]
///       Like `cta run`, but with event tracing attached: prints the
///       textual trace report (per-core Gantt, reuse-distance summaries
///       per cache level, sharing-flow matrices, top miss blocks) for
///       each machine. --emit-trace additionally writes the Perfetto-
///       loadable Chrome trace-event JSON.
///
///   cta check [--topo] <file>...
///       Parse-and-validate only. Diagnostics go to stderr in the
///       file:line:col caret format; exit status 1 when any file fails.
///       With --topo the files are machine descriptions (topo/Parse)
///       instead of workloads.
///
///   cta serve --socket <path> [options]
///       Long-running mapping daemon on a Unix-domain socket: length-
///       prefixed JSON requests, warm answers from the in-memory result
///       index, admission control + batching for cold simulator work.
///       SIGINT/SIGTERM drains inflight requests and exits cleanly.
///
///   cta client --socket <path> [options]
///       Load-testing client for a running daemon: N concurrent
///       connections, a warm:cold request mix, latency percentiles, and
///       a cta-serve-bench-v1 report for scripts/compare_bench.py.
///
///   cta top --socket <path> [options]
///       Live dashboard for a running daemon: polls cta-serve-stats-v1
///       frames and renders tier throughput/latency percentiles, cache
///       hit ratio and adaptive remap activity.
///
///   cta list
///       The compiled-in workload suite, machine presets and strategies.
///
//===----------------------------------------------------------------------===//

#include "driver/Experiment.h"
#include "exec/ExperimentRunner.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "obs/RunArtifact.h"
#include "poly/CodeGen.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Shutdown.h"
#include "serve/Top.h"
#include "sim/TraceExport.h"
#include "sim/TraceLog.h"
#include "sim/TraceReport.h"
#include "support/Diag.h"
#include "support/Hashing.h"
#include "topo/Parse.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace cta;

namespace {

const char *UsageText =
    "usage:\n"
    "  cta run <file.cta|workload> --machine <preset|file.topo> [options]\n"
    "  cta trace <file.cta|workload> --machine <preset|file.topo> [options]\n"
    "  cta check [--topo] <file>...\n"
    "  cta serve --socket <path> [--jobs N] [--sim-threads N] [--cache-dir P]\n"
    "            [--max-inflight N] [--max-batch N] [--batch-window-ms N]\n"
    "            [--metrics-port N] [--log-json P]\n"
    "  cta client --socket <path> [--workload W] [--machine M]\n"
    "             [--strategy S] [--scale F] [--concurrency N]\n"
    "             [--requests N] [--mix WARM:COLD] [--emit-json P]\n"
    "             [--dump-response P] [--client NAME]\n"
    "  cta top --socket <path> [--interval-ms N] [--count N] [--once]\n"
    "  cta list\n"
    "\n"
    "run/trace options:\n"
    "  --machine M      machine preset (see `cta list`) or .topo file;\n"
    "                   repeatable — the workload runs on each machine\n"
    "  --runs-on M      execute the mapping on a different machine than it\n"
    "                   was compiled for (cross-machine porting)\n"
    "  --strategy S     base | base+ | local | topology-aware | combined |\n"
    "                   adaptive-greedy (default topology-aware)\n"
    "  --adapt-interval N   groups each core retires between adaptive remap\n"
    "                   commit points (default 4; adaptive-greedy only)\n"
    "  --scale F        cache-capacity scale factor (default 0.03125, the\n"
    "                   1/32 regime every bench uses; 1 = full size)\n"
    "  --alpha X        horizontal-reuse weight (combined strategy)\n"
    "  --beta X         vertical-reuse weight (combined strategy)\n"
    "  --block-size N   data block size in bytes (0 = auto-select)\n"
    "  --emit-code      print the generated C-like loop nests\n"
    "  --emit-json P    write the cta-bench-artifact-v1 JSON to P\n"
    "  --emit-trace P   write the Perfetto-loadable cta-trace-v1 Chrome\n"
    "                   trace-event JSON to P (needs exactly one --machine;\n"
    "                   on `cta run` this turns event tracing on)\n"
    "  --sim-threads N  engine threads per run: 1 = sequential (default),\n"
    "                   0 = hardware threads, N > 1 = epoch-parallel\n"
    "                   engine; results are bit-identical for every value\n"
    "                   (see `cta list` for which runs can parallelize)\n"
    "  --jobs N, --cache-dir P, --no-timing   (exec/ flags, as in benches)\n";

[[noreturn]] void usageError(const std::string &Msg) {
  std::fprintf(stderr, "cta: error: %s\n%s", Msg.c_str(), UsageText);
  std::exit(1);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

const std::vector<std::string> &presetNames() {
  static const std::vector<std::string> Names = {
      "harpertown", "nehalem", "dunnington", "arch-i", "arch-ii"};
  return Names;
}

bool isPresetName(const std::string &Name) {
  const auto &Names = presetNames();
  return std::find(Names.begin(), Names.end(), Name) != Names.end();
}

/// Resolves --machine/--runs-on: preset names first, file paths second.
CacheTopology resolveMachine(const std::string &Spec, double Scale) {
  if (isPresetName(Spec))
    return makePresetByName(Spec).scaledCapacity(Scale);
  std::string Text;
  if (!readFile(Spec, Text))
    usageError("'" + Spec +
               "' is neither a machine preset nor a readable .topo file");
  std::string Err;
  std::optional<CacheTopology> Topo = parseTopology(Spec, Text, &Err);
  if (!Topo) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    std::exit(1);
  }
  return Topo->scaledCapacity(Scale);
}

bool isBuiltinWorkload(const std::string &Name) {
  for (const std::string &W : workloadNames())
    if (W == Name)
      return true;
  return false;
}

/// A parsed workload plus the provenance the cache key needs.
struct WorkloadInput {
  Program Prog;
  std::uint64_t SourceHash = 0; // 0 for compiled-in workloads
  std::string Origin;           // file path or "builtin"
};

/// Loads \p Spec as a .cta file, or as a compiled-in workload name when no
/// such file exists. Exits with a diagnostic on parse/validation errors.
WorkloadInput loadWorkload(const std::string &Spec) {
  std::string Source;
  if (readFile(Spec, Source)) {
    frontend::ParseOutcome Outcome = frontend::parseProgramText(Source, Spec);
    if (!Outcome.ok()) {
      std::fprintf(stderr, "%s\n", Outcome.Diagnostic.c_str());
      std::exit(1);
    }
    HashBuilder H;
    H.add(Source);
    return {std::move(*Outcome.Prog), H.hash(), Spec};
  }
  if (isBuiltinWorkload(Spec))
    return {makeWorkload(Spec), 0, "builtin"};
  usageError("'" + Spec +
             "' is neither a readable .cta file nor a compiled-in workload "
             "(see `cta list`)");
}

//===----------------------------------------------------------------------===//
// cta list
//===----------------------------------------------------------------------===//

int runList() {
  std::printf("workloads (Table 2; usable as `cta run <name>`):\n");
  for (const WorkloadMeta &W : workloadSuite())
    std::printf("  %-10s %-9s %s\n", W.Name, W.Origin,
                W.HasDependences ? "loop-carried dependences" : "parallel");
  std::printf("\nmachine presets (usable as `--machine <name>`):\n");
  for (const std::string &Name : presetNames()) {
    CacheTopology Topo = makePresetByName(Name);
    std::printf("  %-11s %2u cores, %u cache levels, %.1f MB on-chip\n",
                Name.c_str(), Topo.numCores(), Topo.deepestLevel(),
                static_cast<double>(Topo.totalCacheBytes()) /
                    (1024.0 * 1024.0));
  }
  std::printf("\nstrategies (usable as `--strategy <name>`):\n");
  for (Strategy S : {Strategy::Base, Strategy::BasePlus, Strategy::Local,
                     Strategy::TopologyAware, Strategy::Combined,
                     Strategy::AdaptiveGreedy})
    std::printf("  %-14s %s\n", strategyName(S), strategyDescription(S));
  std::printf(
      "\nsimulator engines (selected with `--sim-threads N`):\n"
      "  sequential     the default (--sim-threads=1): one event heap\n"
      "                 interleaves all cores; works for every schedule\n"
      "  epoch-parallel --sim-threads=0|N>1: per-core private-cache epochs\n"
      "                 run concurrently, shared-level probes replay in\n"
      "                 deterministic (cycle, core) order at round merges;\n"
      "                 bit-identical cycles and statistics to sequential\n"
      "\n"
      "  eligible: barrier-synchronized and free-running schedules — every\n"
      "  static strategy above on every multi-core machine/topology. Runs\n"
      "  fall back to the sequential engine automatically when the schedule\n"
      "  uses point-to-point dependence synchronization (workloads marked\n"
      "  \"loop-carried dependences\" under some strategies), when event\n"
      "  tracing is on (`cta trace` / --emit-trace need the global event\n"
      "  order), when the machine has a single core, when any core declares\n"
      "  a speed/disabled attribute (heterogeneous timing breaks the epoch\n"
      "  partition), or when the strategy is adaptive-greedy: it remaps\n"
      "  iteration groups at round boundaries from each core's observed\n"
      "  load, which needs the sequential engine's global event order\n"
      "  (exactly like tracing). Adaptive runs stay deterministic —\n"
      "  byte-identical artifacts at every --jobs count.\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// cta check
//===----------------------------------------------------------------------===//

int runCheck(const std::vector<std::string> &Args) {
  bool TopoMode = false;
  std::vector<std::string> Files;
  for (const std::string &Arg : Args) {
    if (Arg == "--topo")
      TopoMode = true;
    else if (Arg.rfind("--", 0) == 0)
      usageError("unknown `cta check` flag '" + Arg + "'");
    else
      Files.push_back(Arg);
  }
  if (Files.empty())
    usageError("`cta check` needs at least one file");

  int Failures = 0;
  for (const std::string &File : Files) {
    std::string Text;
    if (!readFile(File, Text)) {
      std::fprintf(stderr, "%s:1:1: error: cannot read file\n", File.c_str());
      ++Failures;
      continue;
    }
    if (TopoMode) {
      std::string Err;
      if (!parseTopology(File, Text, &Err)) {
        std::fprintf(stderr, "%s\n", Err.c_str());
        ++Failures;
        continue;
      }
    } else {
      frontend::ParseOutcome Outcome = frontend::parseProgramText(Text, File);
      if (!Outcome.ok()) {
        std::fprintf(stderr, "%s\n", Outcome.Diagnostic.c_str());
        ++Failures;
        continue;
      }
    }
    std::printf("%s: OK\n", File.c_str());
  }
  return Failures == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// cta run
//===----------------------------------------------------------------------===//

/// True when \p Arg is one of parseExecArgs' flags; \p I is advanced past
/// the separate-value form so the main scanner does not mistake the value
/// for a positional argument.
bool isExecFlag(int argc, char **argv, int &I) {
  switch (classifyExecFlag(argv[I])) {
  case ExecFlagForm::None:
    return false;
  case ExecFlagForm::Complete:
    return true;
  case ExecFlagForm::ValueFollows:
    if (I + 1 >= argc)
      usageError(std::string(argv[I]) + " needs a value");
    ++I;
    return true;
  }
  return false;
}

double parseDoubleOrDie(const char *Flag, const std::string &Value) {
  try {
    std::size_t End = 0;
    double V = std::stod(Value, &End);
    if (End != Value.size())
      throw std::invalid_argument(Value);
    return V;
  } catch (...) {
    usageError(std::string(Flag) + " needs a number, got '" + Value + "'");
  }
}

std::uint64_t parseUintOrDie(const char *Flag, const std::string &Value) {
  try {
    std::size_t End = 0;
    unsigned long long V = std::stoull(Value, &End);
    if (End != Value.size())
      throw std::invalid_argument(Value);
    return V;
  } catch (...) {
    usageError(std::string(Flag) + " needs a non-negative integer, got '" +
               Value + "'");
  }
}

/// Rejects a bad flag value with a caret diagnostic that points into the
/// command line itself: the full argv (joined with single spaces) is the
/// "source", and the caret underlines \p Value where it follows \p Flag
/// (either `--flag=value` or `--flag value`). Used for unwritable
/// --emit-trace / --log-json paths and unbindable --metrics-port values —
/// failures the flag parser cannot see because they only surface when the
/// file or socket is actually opened.
[[noreturn]] void flagValueError(int argc, char **argv, const char *Flag,
                                 const std::string &Value,
                                 const std::string &Message) {
  std::string Source;
  std::size_t Offset = std::string::npos;
  const std::string Eq = std::string(Flag) + "=";
  for (int I = 0; I < argc; ++I) {
    if (I)
      Source += ' ';
    const char *Arg = argv[I];
    std::size_t TokenStart = Source.size();
    Source += Arg;
    if (Offset != std::string::npos)
      continue;
    if (std::strncmp(Arg, Eq.c_str(), Eq.size()) == 0 &&
        Value == Arg + Eq.size())
      Offset = TokenStart + Eq.size();
    else if (I > 0 && std::strcmp(argv[I - 1], Flag) == 0 && Value == Arg)
      Offset = TokenStart;
  }
  if (Offset == std::string::npos)
    Offset = 0; // value came from nowhere findable; point at the start
  unsigned CaretLen = Value.empty() ? 1 : static_cast<unsigned>(Value.size());
  std::fprintf(stderr, "%s\n",
               renderDiag("<command-line>", locForOffset(Source, Offset),
                          Message, Source, CaretLen)
                   .c_str());
  std::exit(1);
}

[[noreturn]] void emitTracePathError(int argc, char **argv,
                                     const std::string &Path,
                                     const std::string &Reason) {
  flagValueError(argc, argv, "--emit-trace", Path,
                 "cannot write trace file '" + Path + "': " + Reason);
}

int runRun(int argc, char **argv, const std::vector<std::string> &Args,
           bool TraceMode) {
  std::string WorkloadSpec;
  std::vector<std::string> MachineSpecs;
  std::string RunsOnSpec;
  Strategy Strat = Strategy::TopologyAware;
  double Scale = 1.0 / 32;
  MappingOptions Opts = ExperimentConfig::makeDefaultOptions();
  bool EmitCode = false;
  std::string EmitTracePath;
  const char *Cmd = TraceMode ? "cta trace" : "cta run";

  for (std::size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    auto value = [&](const char *Flag) -> const std::string & {
      if (I + 1 >= Args.size())
        usageError(std::string(Flag) + " needs a value");
      return Args[++I];
    };
    if (Arg == "--machine") {
      MachineSpecs.push_back(value("--machine"));
    } else if (Arg == "--runs-on") {
      RunsOnSpec = value("--runs-on");
    } else if (Arg == "--strategy") {
      const std::string &Name = value("--strategy");
      std::optional<Strategy> S = serve::parseStrategyName(Name);
      if (!S)
        usageError("unknown strategy '" + Name + "'");
      Strat = *S;
    } else if (Arg == "--scale") {
      Scale = parseDoubleOrDie("--scale", value("--scale"));
      if (!(Scale > 0.0))
        usageError("--scale must be positive");
    } else if (Arg == "--alpha") {
      Opts.Alpha = parseDoubleOrDie("--alpha", value("--alpha"));
    } else if (Arg == "--beta") {
      Opts.Beta = parseDoubleOrDie("--beta", value("--beta"));
    } else if (Arg == "--block-size") {
      Opts.BlockSizeBytes = parseUintOrDie("--block-size",
                                           value("--block-size"));
    } else if (Arg == "--emit-code") {
      EmitCode = true;
    } else if (Arg == "--emit-trace") {
      EmitTracePath = value("--emit-trace");
    } else if (Arg.rfind("--emit-trace=", 0) == 0) {
      EmitTracePath = Arg.substr(std::strlen("--emit-trace="));
    } else if (Arg.rfind("--", 0) == 0) {
      usageError("unknown `" + std::string(Cmd) + "` flag '" + Arg + "'");
    } else if (WorkloadSpec.empty()) {
      WorkloadSpec = Arg;
    } else {
      usageError("unexpected argument '" + Arg + "'");
    }
  }
  if (WorkloadSpec.empty())
    usageError("`" + std::string(Cmd) +
               "` needs a workload (.cta file or suite name)");
  if (MachineSpecs.empty())
    usageError("`" + std::string(Cmd) + "` needs --machine");
  if (!EmitTracePath.empty()) {
    if (MachineSpecs.size() != 1)
      usageError("--emit-trace needs exactly one --machine");
    // Probe writability now, before potentially minutes of simulation.
    // Append mode leaves an existing file's contents alone if the run is
    // later interrupted.
    std::ofstream Probe(EmitTracePath, std::ios::app);
    if (!Probe)
      emitTracePathError(argc, argv, EmitTracePath, std::strerror(errno));
  }

  WorkloadInput Input = loadWorkload(WorkloadSpec);
  ExecConfig Config = parseExecArgs(argc, argv);
  Config.BenchName = "cta";
  if (Config.AdaptInterval != 0)
    Opts.AdaptInterval = Config.AdaptInterval;

  // Same signal path as the daemon: SIGINT/SIGTERM let in-flight
  // simulations finish (the RunCache never sees a partial entry), skip
  // everything not yet started, and exit 130 without artifacts.
  serve::installShutdownSignalHandlers();

  std::optional<CacheTopology> RunsOn;
  if (!RunsOnSpec.empty())
    RunsOn = resolveMachine(RunsOnSpec, Scale);

  const bool Traced = TraceMode || !EmitTracePath.empty();
  std::vector<RunTask> Tasks;
  std::vector<std::shared_ptr<TraceLog>> Logs;
  for (const std::string &Spec : MachineSpecs) {
    RunTask Task = makeRunTask(Input.Prog, resolveMachine(Spec, Scale), Strat,
                               Opts,
                               Input.Prog.Name + "/" + Spec + "/" +
                                   strategyName(Strat));
    Task.RunsOn = RunsOn;
    Task.SourceHash = Input.SourceHash;
    if (Traced) {
      Task.TraceSink = std::make_shared<TraceLog>();
      Logs.push_back(Task.TraceSink);
    }
    Tasks.push_back(std::move(Task));
  }

  ExperimentRunner Runner(Config);
  std::vector<RunResult> Results = Runner.run(Tasks);
  if (Runner.interrupted()) {
    std::fprintf(stderr,
                 "%s: interrupted; completed runs are cached, no artifacts "
                 "written\n",
                 Cmd);
    return 130;
  }

  std::printf("workload %s (%s): %zu arrays, %zu nests\n",
              Input.Prog.Name.c_str(), Input.Origin.c_str(),
              Input.Prog.Arrays.size(), Input.Prog.Nests.size());
  for (std::size_t I = 0; I != Results.size(); ++I) {
    const RunResult &R = Results[I];
    const CacheTopology &Machine = Tasks[I].Machine;
    std::printf("\n%s on %s (%u cores, scale %g), strategy %s",
                Input.Prog.Name.c_str(), MachineSpecs[I].c_str(),
                Machine.numCores(), Scale, strategyName(Strat));
    if (RunsOn)
      std::printf(", executed on %s", RunsOnSpec.c_str());
    std::printf(":\n");
    std::printf("  cycles      %" PRIu64 "\n", R.Cycles);
    std::printf("  block size  %" PRIu64 " B\n", R.BlockSizeBytes);
    std::printf("  rounds      %u\n", R.NumRounds);
    std::printf("  imbalance   %.2f%%\n", R.Imbalance * 100.0);
    std::printf("  caches      %s\n", R.Stats.str().c_str());
    if (!Config.NoTiming)
      std::printf("  mapping     %.3fs\n", R.MappingSeconds);
    if (TraceMode) {
      std::printf("  static      %s\n", R.Sharing.compactStr().c_str());
      std::printf("\n%s", renderTraceReport(*Logs[I], &Input.Prog).c_str());
    }
  }

  if (!EmitTracePath.empty()) {
    TraceExportMeta Meta;
    Meta.Workload = Input.Prog.Name;
    // The log observes the machine that actually executed (--runs-on).
    Meta.Machine = RunsOn ? RunsOnSpec : MachineSpecs[0];
    Meta.Strategy = strategyName(Strat);
    std::string Json = renderChromeTrace(*Logs[0], Results[0].Phases, Meta);
    std::ofstream Out(EmitTracePath, std::ios::trunc | std::ios::binary);
    if (!Out)
      emitTracePathError(argc, argv, EmitTracePath, std::strerror(errno));
    Out << Json;
    Out.flush();
    if (!Out)
      emitTracePathError(argc, argv, EmitTracePath, "write failed");
    std::fprintf(stderr,
                 "wrote %s (%" PRIu64 " events, %" PRIu64 " dropped)\n",
                 EmitTracePath.c_str(), Logs[0]->totalEvents(),
                 Logs[0]->droppedEvents());
  }

  if (EmitCode) {
    std::printf("\ngenerated code:\n");
    for (const LoopNest &Nest : Input.Prog.Nests) {
      std::printf("// nest \"%s\"\n%s", Nest.name().c_str(),
                  CodeGen(Nest, Input.Prog.Arrays).emitFullNest().c_str());
    }
  }

  std::fprintf(stderr, "%s\n",
               obs::formatExecSummary(Runner.execSummary()).c_str());
  Runner.emitArtifacts();
  return 0;
}

//===----------------------------------------------------------------------===//
// cta serve / cta client
//===----------------------------------------------------------------------===//

int runServe(int argc, char **argv, const std::vector<std::string> &Args) {
  serve::ServerOptions Opts = serve::parseServeArgs(Args);
  serve::installShutdownSignalHandlers();
  serve::Server Daemon(std::move(Opts));
  std::string Err;
  if (!Daemon.listen(&Err)) {
    // Telemetry-flag failures point back into the command line: the flag
    // parser accepted the value, but opening the file/port did not.
    const serve::ServerOptions &O = Daemon.options();
    if (!O.LogJsonPath.empty() &&
        Err.find("event log") != std::string::npos)
      flagValueError(argc, argv, "--log-json", O.LogJsonPath, Err);
    if (O.MetricsEnabled && Err.find("metrics") != std::string::npos)
      flagValueError(argc, argv, "--metrics-port",
                     std::to_string(O.MetricsPort), Err);
    std::fprintf(stderr, "cta serve: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr, "cta serve: listening on %s (jobs=%u)\n",
               Daemon.options().SocketPath.c_str(), Daemon.service().jobs());
  // Scripts parse this line to find a kernel-assigned (--metrics-port=0)
  // port, so keep its shape stable.
  if (unsigned Port = Daemon.metricsPort())
    std::fprintf(stderr, "cta serve: metrics on http://127.0.0.1:%u/metrics\n",
                 Port);
  Daemon.run();
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", UsageText);
    return 1;
  }
  std::string Cmd = argv[1];
  if (Cmd == "help" || Cmd == "--help" || Cmd == "-h") {
    std::printf("%s", UsageText);
    return 0;
  }
  // Subcommand arguments, with parseExecArgs' flags filtered out so the
  // subcommand parsers only see their own (run re-parses argv for them).
  std::vector<std::string> Args;
  for (int I = 2; I < argc; ++I) {
    if ((Cmd == "run" || Cmd == "trace") && isExecFlag(argc, argv, I))
      continue;
    Args.push_back(argv[I]);
  }

  if (Cmd == "list")
    return runList();
  if (Cmd == "check")
    return runCheck(Args);
  if (Cmd == "run")
    return runRun(argc, argv, Args, /*TraceMode=*/false);
  if (Cmd == "trace")
    return runRun(argc, argv, Args, /*TraceMode=*/true);
  if (Cmd == "serve")
    return runServe(argc, argv, Args);
  if (Cmd == "client")
    return serve::runClient(serve::parseClientArgs(Args));
  if (Cmd == "top")
    return serve::runTop(serve::parseTopArgs(Args));
  usageError("unknown subcommand '" + Cmd + "'");
}
