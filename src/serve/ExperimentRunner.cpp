//===- serve/ExperimentRunner.cpp - Bench-facing shim over the Service ----===//
//
// Lives in serve/ (not exec/) because the runner is now a collection layer
// over serve::Service; the public header stays at exec/ExperimentRunner.h
// so bench binaries and tests keep their includes.
//
//===----------------------------------------------------------------------===//

#include "exec/ExperimentRunner.h"

#include "support/ErrorHandling.h"
#include "support/ParseNumber.h"

#include <climits>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace cta;

static unsigned parseCount(const char *What, const char *Value) {
  return static_cast<unsigned>(parseUint64OrDie(What, Value, /*Max=*/UINT_MAX));
}

namespace {

/// One exec flag: `--name=V` / `--name V` on the command line, or the
/// environment variable \p Env as its default. Flags without a value
/// (--no-timing) are set by their bare name or by \p Env being present.
struct ExecFlag {
  const char *Name;
  const char *Env;
  bool TakesValue;
  /// Stores \p Value into \p C; \p What (the flag or variable name)
  /// labels malformed-value errors.
  void (*Apply)(ExecConfig &C, const char *What, const char *Value);
};

/// The single list of flags parseExecArgs understands, in environment
/// evaluation order. classifyExecFlag reads it too, so front ends that
/// filter exec flags out of their own argv never disagree with the parser.
const ExecFlag ExecFlags[] = {
    {"--jobs", "CTA_JOBS", true,
     [](ExecConfig &C, const char *W, const char *V) {
       C.Jobs = parseCount(W, V);
     }},
    {"--sim-threads", "CTA_SIM_THREADS", true,
     [](ExecConfig &C, const char *W, const char *V) {
       C.SimThreads = parseCount(W, V);
     }},
    {"--adapt-interval", "CTA_ADAPT_INTERVAL", true,
     [](ExecConfig &C, const char *W, const char *V) {
       C.AdaptInterval = parseCount(W, V);
     }},
    {"--cache-dir", "CTA_CACHE_DIR", true,
     [](ExecConfig &C, const char *, const char *V) { C.CacheDir = V; }},
    {"--no-timing", "CTA_NO_TIMING", false,
     [](ExecConfig &C, const char *, const char *) { C.NoTiming = true; }},
    {"--emit-json", "CTA_EMIT_JSON", true,
     [](ExecConfig &C, const char *, const char *V) { C.EmitJsonPath = V; }},
};

/// The flag \p Arg names, with \p Inline pointing at its `=value` part
/// (null for the bare name); null when \p Arg is not an exec flag.
const ExecFlag *matchExecFlag(const char *Arg, const char *&Inline) {
  for (const ExecFlag &F : ExecFlags) {
    const std::size_t Len = std::strlen(F.Name);
    if (std::strncmp(Arg, F.Name, Len) != 0)
      continue;
    if (Arg[Len] == '\0') {
      Inline = nullptr;
      return &F;
    }
    if (F.TakesValue && Arg[Len] == '=') {
      Inline = Arg + Len + 1;
      return &F;
    }
  }
  return nullptr;
}

} // namespace

ExecFlagForm cta::classifyExecFlag(const char *Arg) {
  const char *Inline = nullptr;
  const ExecFlag *F = matchExecFlag(Arg, Inline);
  if (!F)
    return ExecFlagForm::None;
  return F->TakesValue && !Inline ? ExecFlagForm::ValueFollows
                                  : ExecFlagForm::Complete;
}

ExecConfig cta::parseExecArgs(int argc, char **argv) {
  ExecConfig Config;
  for (const ExecFlag &F : ExecFlags)
    if (const char *Env = std::getenv(F.Env))
      F.Apply(Config, F.Env, Env);
  if (argc > 0 && argv[0] && *argv[0]) {
    const char *Base = std::strrchr(argv[0], '/');
    Config.BenchName = Base ? Base + 1 : argv[0];
  }

  for (int I = 1; I < argc; ++I) {
    const char *Value = nullptr;
    const ExecFlag *F = matchExecFlag(argv[I], Value);
    if (!F)
      continue;
    if (F->TakesValue && !Value) {
      if (I + 1 >= argc)
        reportFatalError((std::string(F->Name) + " needs a value").c_str());
      Value = argv[++I];
    }
    F->Apply(Config, F->Name, Value);
  }
  return Config;
}

static serve::Service::Config toServiceConfig(const ExecConfig &C) {
  serve::Service::Config SC;
  SC.Jobs = C.Jobs;
  SC.CacheDir = C.CacheDir;
  SC.SkipOnShutdown = true;
  SC.SimThreads = C.SimThreads;
  return SC;
}

ExperimentRunner::ExperimentRunner(ExecConfig ConfigIn)
    : Config(std::move(ConfigIn)), Svc(toServiceConfig(Config)) {
  // Keep config() consistent with what the service resolved (Jobs == 0).
  Config.Jobs = Svc.jobs();
}

RunResult ExperimentRunner::runOne(const RunTask &Task) {
  serve::TaskOutcome Out = Svc.runOne(Task);
  {
    std::lock_guard<std::mutex> Lock(ArtifactsMutex);
    Artifacts.push_back(std::move(Out.Artifact));
  }
  return std::move(Out.Result);
}

std::vector<RunResult>
ExperimentRunner::run(const std::vector<RunTask> &Tasks) {
  std::vector<serve::TaskOutcome> Outcomes = Svc.runBatch(Tasks);
  std::vector<RunResult> Results;
  Results.reserve(Outcomes.size());
  {
    std::lock_guard<std::mutex> Lock(ArtifactsMutex);
    for (serve::TaskOutcome &Out : Outcomes) {
      Artifacts.push_back(std::move(Out.Artifact));
      Results.push_back(std::move(Out.Result));
    }
  }
  return Results;
}

std::vector<obs::RunArtifact> ExperimentRunner::artifacts() const {
  std::lock_guard<std::mutex> Lock(ArtifactsMutex);
  return Artifacts;
}

obs::ExecSummary ExperimentRunner::execSummary() const {
  obs::ExecSummary S;
  S.Jobs = Svc.jobs();
  S.SimulatorInvocations = Svc.simulatorInvocations();
  S.SimulatedAccesses = Svc.simulatedAccesses();
  S.CacheHits = Svc.cache().hits();
  S.CacheMisses = Svc.cache().misses();
  S.CacheStores = Svc.cache().stores();
  S.CacheEnabled = Svc.cache().enabled();
  S.CacheDir = Svc.cache().directory();
  return S;
}

obs::BenchArtifact ExperimentRunner::gridArtifact() const {
  obs::BenchArtifact B;
  B.Bench = Config.BenchName;
  B.Jobs = Svc.jobs();
  B.CacheEnabled = Svc.cache().enabled();
  B.CacheDir = Svc.cache().directory();
  B.CacheHits = Svc.cache().hits();
  B.CacheMisses = Svc.cache().misses();
  B.CacheStores = Svc.cache().stores();
  B.SimulatorInvocations = Svc.simulatorInvocations();
  B.SimulatedAccesses = Svc.simulatedAccesses();
  B.Runs = artifacts();
  // Process counters: everything already at the root (trace-registry
  // traffic, non-runner work) plus this runner's grid rollup, which only
  // reaches the root when the runner is destroyed.
  B.ProcessCounters = obs::MetricSink::root().snapshot();
  for (const auto &[Name, Value] : Svc.gridSink().snapshot())
    B.ProcessCounters[Name] += Value;
  B.ProcessPhases = obs::MetricSink::root().phases();
  return B;
}

void ExperimentRunner::emitArtifacts() const {
  if (Config.EmitJsonPath.empty())
    return;
  std::string Err;
  if (!gridArtifact().writeFile(Config.EmitJsonPath, &Err))
    reportFatalError(("cannot write --emit-json artifact to '" +
                      Config.EmitJsonPath + "': " + Err)
                         .c_str());
}
