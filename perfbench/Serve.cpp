//===- perfbench/Serve.cpp - The serve-mixed workload ---------------------===//
//
// A fresh `cta serve --jobs 1` daemon with an empty cache directory, driven
// closed-loop by this process over one warm and one cold connection. On
// four or more CPUs the daemon and this process run on separate halves.
//
//  * Warm: cycle over the 12 Table 2 apps on dunnington, sent as inline
//    DSL text from workloads/dsl and primed during set-up, so every answer
//    exercises framing, request parsing, the frontend parse,
//    fingerprinting, the warm lookup and rendering.
//  * Cold: a seeded list of combined-strategy requests on nehalem, each
//    with an alpha derived from the seed and unique within the run. Whole
//    cycles over the 12 apps run until --seconds have passed; the warm
//    connection runs exactly as long. A cold answer that is not "miss"
//    is a failure: `cta client` derives cold alphas from a ticket counter,
//    so a second run against one daemon is answered warm (README.md).
//
// The warm metrics come from the daemon's own service time of each warm
// answer (request read to answer rendered). On a shared VM the client's
// round trip is ruled by waits for a CPU: in some runs its p99 rose 40x
// while the service-time p99 held within 10%. The client's figures are
// kept as notes.
//
// Times are scaled to reference seconds (Bench.h) with SpeedProbe samples
// taken on the daemon's CPUs and the steal on those CPUs: per cold cycle
// (a sample before each request), per block of WarmBlockSize warm
// requests (a sample before the block) and per set-up.
//
// The traced run drives the same load, then replays the public Protocol,
// frontend, exec, core, sim and obs calls on the same payloads in-process
// (over a socketpair for the frames) under spans.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exec/RunCache.h"
#include "frontend/Parser.h"
#include "obs/Json.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Service.h"
#include "sim/AccessTrace.h"
#include "support/Hashing.h"
#include "workloads/Suite.h"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sched.h>
#include <spawn.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace cta;
using namespace ctabench;
namespace fs = std::filesystem;

namespace {

/// One pool worker: with two, a cold request ran on both, and the daemon's
/// warm reader waited for a CPU.
constexpr unsigned DaemonJobs = 1;
constexpr unsigned SetupRepeats = 3;
/// Warm requests per block: a block gives a p99 with twenty samples
/// beyond it, and block figures are reported as medians.
constexpr unsigned WarmBlockSize = 2000;
/// Warm payload replays per app in the traced run.
constexpr unsigned WarmReplays = 50;
constexpr unsigned WarmOracleSamples = 2;
constexpr unsigned ColdOracleSamples = 2;

/// The CPUs of this process split in two halves: the daemon runs on one,
/// this process's load threads on the other, so the daemon's warm reader
/// and cold worker never queue behind the generator or the probes. Below
/// four CPUs nothing is pinned and both halves are every CPU.
struct CpuSplit {
  cpu_set_t All, Client, Daemon;
  bool On = false;

  CpuSplit() {
    CPU_ZERO(&All);
    sched_getaffinity(0, sizeof(All), &All);
    Client = Daemon = All;
    const int Count = CPU_COUNT(&All);
    if (Count < 4)
      return;
    CPU_ZERO(&Client);
    CPU_ZERO(&Daemon);
    for (int Cpu = 0, Seen = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &All))
        CPU_SET(Cpu, Seen++ < Count / 2 ? &Client : &Daemon);
    On = true;
  }

  /// A sample of \p P taken on the daemon's CPUs, whose speed the serve
  /// times depend on, from a thread pinned to the client half.
  double probeDaemonCpus(SpeedProbe &P) const {
    if (!On)
      return P.sample();
    pinTo(Daemon);
    const double Seconds = P.sample();
    pinTo(Client);
    return Seconds;
  }
};

int connectUnix(const std::string &Path) {
  int Fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    close(Fd);
    return -1;
  }
  // A wedged daemon must fail the run, not hang it.
  timeval Timeout{60, 0};
  setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  return Fd;
}

/// One client connection.
class Connection {
  int Fd;

public:
  explicit Connection(const std::string &Path) : Fd(connectUnix(Path)) {}
  ~Connection() {
    if (Fd >= 0)
      close(Fd);
  }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  bool roundTrip(const std::string &Request, std::string &Response) {
    std::string Err;
    return Fd >= 0 && serve::writeFrame(Fd, Request, &Err) &&
           serve::readFrame(Fd, Response, &Err) == serve::FrameStatus::Ok;
  }
};

/// A `cta serve` child process.
class Daemon {
  pid_t Pid = -1;
  std::string Socket;

public:
  Daemon() = default;
  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  const std::string &socket() const { return Socket; }

  /// Starts the daemon in \p Dir, on the daemon half of \p Cpus, and waits
  /// until its socket accepts.
  bool start(const std::string &CtaExe, const std::string &Dir,
             const CpuSplit &Cpus, std::string &Err) {
    fs::create_directories(Dir);
    Socket = Dir + "/s.sock";
    std::string Log = Dir + "/serve.log";
    std::vector<std::string> Args = {CtaExe,      "serve",
                                     "--socket",  Socket,
                                     "--jobs",    std::to_string(DaemonJobs),
                                     "--cache-dir", Dir + "/cache"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_addopen(&Actions, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&Actions, 1, 2);
    // The child inherits the spawning thread's CPUs.
    if (Cpus.On)
      pinTo(Cpus.Daemon);
    int Rc = posix_spawn(&Pid, CtaExe.c_str(), &Actions, nullptr, Argv.data(),
                         environ);
    if (Cpus.On)
      pinTo(Cpus.Client);
    posix_spawn_file_actions_destroy(&Actions);
    if (Rc != 0) {
      Pid = -1;
      Err = "cannot start " + CtaExe + ": " + std::strerror(Rc);
      return false;
    }
    const double Deadline = nowSeconds() + 60.0;
    while (nowSeconds() < Deadline) {
      int Fd = connectUnix(Socket);
      if (Fd >= 0) {
        close(Fd);
        return true;
      }
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "daemon exited before its socket was ready (see " + Log + ")";
        return false;
      }
      usleep(2000);
    }
    Err = "daemon socket not ready after 60 s";
    return false;
  }

  /// VmHWM of the daemon, in MiB.
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
  }

  /// SIGTERM and wait for the drain; true when it exits with status 0.
  bool stop() {
    if (Pid <= 0)
      return false;
    kill(Pid, SIGTERM);
    int Status = 0;
    const double Deadline = nowSeconds() + 30.0;
    while (waitpid(Pid, &Status, WNOHANG) == 0) {
      if (nowSeconds() > Deadline) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &Status, 0);
        Pid = -1;
        return false;
      }
      usleep(2000);
    }
    Pid = -1;
    return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

std::string warmRequest(const std::string &App, const std::string &Dsl) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value(serve::RequestSchema);
  W.key("id");
  W.value("w-" + App);
  W.key("client");
  W.value("warm");
  W.key("dsl");
  W.value(Dsl);
  W.key("dsl_name");
  W.value(App + ".cta");
  W.key("machine");
  W.value("dunnington");
  W.endObject();
  return W.str();
}

std::string coldRequest(std::uint64_t Ticket, const std::string &App,
                        double Alpha) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value(serve::RequestSchema);
  W.key("id");
  W.value("c" + std::to_string(Ticket));
  W.key("client");
  W.value("cold");
  W.key("workload");
  W.value(App);
  W.key("machine");
  W.value("nehalem");
  W.key("strategy");
  W.value("combined");
  W.key("alpha");
  W.value(Alpha);
  W.endObject();
  return W.str();
}

/// A parsed ok response: the waiter's tier, the server's timings and the
/// run artifact.
struct Answer {
  std::string Status, Tier;
  double QueueSeconds = 0.0, ServiceSeconds = 0.0;
  serve::JsonValue Run;
};

std::optional<Answer> parseAnswer(const std::string &Payload) {
  std::optional<serve::JsonValue> Doc = serve::parseJson(Payload);
  if (!Doc || !Doc->isObject())
    return std::nullopt;
  Answer A;
  const serve::JsonValue *V;
  if ((V = Doc->get("status")))
    A.Status = V->asString();
  if ((V = Doc->get("cache_status")))
    A.Tier = V->asString();
  if ((V = Doc->get("queue_seconds")))
    A.QueueSeconds = V->asNumber();
  if ((V = Doc->get("service_seconds")))
    A.ServiceSeconds = V->asNumber();
  if ((V = Doc->get("run")))
    A.Run = *V;
  return A;
}

/// Parses the `"run":{...}}` tail of a response as an answer.
std::optional<Answer> parseRunTail(const std::string &Tail) {
  return parseAnswer("{" + Tail);
}

std::uint64_t runCounter(const serve::JsonValue &Run, const char *Name) {
  const serve::JsonValue *C = Run.get("counters");
  const serve::JsonValue *V = C ? C->get(Name) : nullptr;
  return V ? static_cast<std::uint64_t>(V->asNumber()) : 0;
}

void addRunPhases(const serve::JsonValue &Run,
                  std::map<std::string, double> &Phases) {
  if (const serve::JsonValue *Ph = Run.get("phases"))
    for (const serve::JsonValue &P : Ph->Arr) {
      const serve::JsonValue *N = P.get("name"), *S = P.get("seconds");
      if (N && S)
        Phases[N->asString()] += S->asNumber();
    }
}

/// The value after `"Key":` in a rendered response (the warm hot loop
/// avoids a full parse so the generator stays cheap).
double numberAfter(const std::string &Payload, const char *Key) {
  std::size_t At = Payload.find(Key);
  return At == std::string::npos
             ? -1.0
             : std::strtod(Payload.c_str() + At + std::strlen(Key), nullptr);
}

struct App {
  std::string Name;
  std::string Dsl;
  std::string WarmPayload;
  /// The priming answer and the byte-exact "run" object warm answers carry.
  serve::JsonValue Primed;
  std::string WarmRun;
};

struct SetupOutcome {
  double Seconds = 0.0;
  bool Ok = false;
};

/// Starts \p D and primes the warm apps over DaemonJobs connections.
SetupOutcome setUp(const Options &Opts, Daemon &D, const std::string &Dir,
                   const CpuSplit &Cpus, std::vector<App> &Apps, bool Record,
                   Report &R) {
  SetupOutcome S;
  const double Start = nowSeconds();
  std::string Err;
  if (!D.start(Opts.CtaExe, Dir, Cpus, Err)) {
    R.fail(Err);
    return S;
  }
  // Connection C primes apps C, C + DaemonJobs, ... in suite order: a
  // fixed split, so the same priming runs overlap on every run and the
  // daemon's peak RSS does not depend on which connection won a race.
  std::vector<std::string> Primed(Apps.size());
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != DaemonJobs; ++C)
    Threads.emplace_back([&, C] {
      Connection Conn(D.socket());
      for (std::size_t I = C; I < Apps.size(); I += DaemonJobs)
        if (!Conn.roundTrip(Apps[I].WarmPayload, Primed[I]))
          Primed[I].clear();
    });
  for (std::thread &T : Threads)
    T.join();
  // One warm ask per app: its run object is what every warm answer of the
  // load must repeat byte for byte.
  Connection Conn(D.socket());
  std::vector<std::string> WarmRuns(Apps.size());
  for (std::size_t I = 0; I != Apps.size(); ++I) {
    std::string Resp;
    if (Conn.roundTrip(Apps[I].WarmPayload, Resp) &&
        Resp.find("\"run\":") != std::string::npos)
      WarmRuns[I] = Resp.substr(Resp.find("\"run\":"));
  }
  S.Seconds = nowSeconds() - Start;

  S.Ok = true;
  for (std::size_t I = 0; I != Apps.size(); ++I) {
    std::optional<Answer> A = parseAnswer(Primed[I]);
    bool Ok = A && A->Status == "ok" && A->Tier == "miss" && !WarmRuns[I].empty();
    R.check(Ok, Apps[I].Name + ": priming request not answered ok/miss");
    if (!Ok) {
      S.Ok = false;
      continue;
    }
    // Measured fields (mapping_seconds, phase times) differ between
    // daemons; the deterministic record and the work counters may not.
    std::optional<Answer> Warm = parseRunTail(WarmRuns[I]);
    const serve::JsonValue &Ref = Record ? A->Run : Apps[I].Primed;
    const serve::JsonValue *F1 = A->Run.get("fingerprint");
    const serve::JsonValue *F2 = Ref.get("fingerprint");
    const std::string Bytes = deterministicBytes(resultFromArtifact(Ref));
    R.check(F1 && F2 && F1->Str == F2->Str && Warm &&
                deterministicBytes(resultFromArtifact(A->Run)) == Bytes &&
                deterministicBytes(resultFromArtifact(Warm->Run)) == Bytes &&
                runCounter(A->Run, "tagger.groups") ==
                    runCounter(Ref, "tagger.groups") &&
                runCounter(A->Run, "clusterer.merges") ==
                    runCounter(Ref, "clusterer.merges"),
            Apps[I].Name + ": priming or warm answer differs from the first "
                           "daemon's");
    if (Record)
      Apps[I].Primed = A->Run;
    Apps[I].WarmRun = WarmRuns[I];
  }
  return S;
}

struct ColdRecord {
  std::string App;
  std::string Payload;
  std::string Response;
  double LatencyMs = 0.0;
  unsigned Cycle = 0;
  /// The SpeedProbe sample taken just before the request.
  double Probe = 0.0;
};

struct WarmTally {
  /// Client latencies and the daemon's service times as measured, and the
  /// service times scaled block by block.
  std::vector<double> LatencyUs, ServiceUs, ScaledServiceUs;
  /// Per block: answers per second of scaled service time, the scaled
  /// service p99, and answers per second of wall time at the client.
  std::vector<double> BlockRps, BlockP99, ClientBlockRps;
  std::uint64_t Warm = 0, Miss = 0, Coalesced = 0, Shed = 0;
  std::vector<std::string> Failures;
  std::uint64_t Checked = 0;
};

/// Re-executes a sampled request in-process and compares it with the
/// daemon's answer: deterministicBytes of the rebuilt result, the
/// fingerprint, exact coverage and (when \p Reference) the reference
/// engine.
void checkAnswer(const std::string &Payload, const serve::JsonValue &Run,
                 bool Reference, const std::string &Label, Report &R) {
  serve::RequestError Err;
  std::optional<serve::ServeRequest> Req =
      serve::parseServeRequest(Payload, Err);
  std::optional<RunTask> Task =
      Req ? serve::buildRunTask(*Req, Err) : std::nullopt;
  if (!Task) {
    R.fail(Label + ": request does not rebuild in-process: " + Err.Message);
    return;
  }
  RunResult Local =
      runOnMachine(Task->Prog, Task->Machine, Task->Strat, Task->Opts);
  // runOnMachine leaves counters and phases to the Service; compare the
  // rest.
  RunResult Served = resultFromArtifact(Run);
  Served.Counters.clear();
  Served.Phases.clear();
  const serve::JsonValue *Fp = Run.get("fingerprint");
  R.check(deterministicBytes(Served) == deterministicBytes(Local) && Fp &&
              Fp->Str == toHexDigest(serve::Service::fingerprint(*Task)),
          Label + ": daemon answer differs from in-process runOnMachine");
  oracleCheck(*Task, Served, Reference, Label, R);
}

/// The in-process replay of the traced run. With a disabled tracer it
/// measures the same calls without spans (the overhead baseline).
double replay(std::vector<App> &Apps, const std::vector<ColdRecord> &Cold,
              const std::string &CacheDir, Tracer &T, StageCounters &C,
              double &JsonSeconds, double &ParseSeconds,
              std::uint64_t &BytesWritten, Report &R) {
  int Pair[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Pair) != 0) {
    R.fail("socketpair failed");
    return 0.0;
  }
  serve::Service::Config Cfg;
  Cfg.Jobs = 1;
  Cfg.CacheDir = CacheDir;
  serve::Service Svc(Cfg);
  // Seed the warm index from RunCache entries of the primed results.
  RunCache Seed(CacheDir);
  for (App &A : Apps) {
    serve::RequestError Err;
    std::optional<RunTask> Task =
        serve::buildRunTask(*serve::parseServeRequest(A.WarmPayload, Err), Err);
    Seed.store(serve::Service::fingerprint(*Task), resultFromArtifact(A.Primed));
    R.check(Svc.runOne(*Task).Artifact.CacheStatus == "hit",
            A.Name + ": replay service did not load the primed entry");
    // The daemon compiled these traces while priming; the cold requests
    // of the same programs find them in its registry.
    for (unsigned N = 0; N != Task->Prog.Nests.size(); ++N)
      TraceRegistry::getOrCompile(Task->Prog, N, Task->Opts.MaxIterations);
  }

  std::string Got;
  std::string Err;
  auto frames = [&](const std::string &Payload) {
    Tracer::Scope S(T, "serve.frame_rw");
    serve::writeFrame(Pair[0], Payload, &Err);
    serve::readFrame(Pair[1], Got, &Err);
  };
  const double Start = nowSeconds();
  std::uint64_t Request = 0;
  for (unsigned Rep = 0; Rep != WarmReplays; ++Rep)
    for (App &A : Apps) {
      T.setRequest(Request++);
      Tracer::Scope Top(T, "request.warm");
      frames(A.WarmPayload);
      std::optional<serve::ServeRequest> Req;
      serve::RequestError RErr;
      {
        Tracer::Scope S(T, "serve.request_parse");
        std::optional<serve::JsonValue> Doc = serve::parseJson(Got);
        Req = serve::parseServeRequest(*Doc, RErr);
      }
      std::optional<RunTask> Task;
      {
        Tracer::Scope S(T, "serve.build_task");
        Task = serve::buildRunTask(*Req, RErr);
      }
      {
        // buildRunTask parses the DSL inside; the same parse timed alone
        // is subtracted from serve.build_task.s.
        Tracer::Scope S(T, "frontend.parse");
        const double T0 = nowSeconds();
        frontend::ParseOutcome P =
            frontend::parseProgramText(Req->Dsl, Req->DslName);
        ParseSeconds += nowSeconds() - T0;
      }
      std::uint64_t Key;
      {
        Tracer::Scope S(T, "exec.fingerprint");
        Key = serve::Service::fingerprint(*Task);
      }
      obs::RunArtifact Art;
      {
        Tracer::Scope S(T, "serve.warm_lookup");
        std::shared_ptr<const serve::TaskOutcome> W = Svc.lookupWarm(Key);
        if (W) {
          Art = W->Artifact;
          Art.CacheStatus = "warm";
          Art.Label = Task->Label;
        }
      }
      {
        // renderOkResponse writes the artifact inside; the same write
        // timed alone is subtracted from serve.render.s.
        Tracer::Scope S(T, "obs.artifact_render");
        const double T0 = nowSeconds();
        obs::JsonWriter W;
        Art.writeJson(W);
        JsonSeconds += nowSeconds() - T0;
      }
      std::string Resp;
      {
        Tracer::Scope S(T, "serve.render");
        Resp = serve::renderOkResponse(Req->Id, "warm", 0.0, 0.0, Art);
      }
      frames(Resp);
    }

  RunCache Store(CacheDir);
  struct ColdReplay {
    RunTask Task;
    StagedRun Run;
    std::uint64_t Key;
  };
  std::vector<ColdReplay> Checks;
  for (const ColdRecord &Rec : Cold) {
    T.setRequest(Request++);
    Tracer::Scope Top(T, "request.cold");
    frames(Rec.Payload);
    std::optional<serve::ServeRequest> Req;
    serve::RequestError RErr;
    {
      Tracer::Scope S(T, "serve.request_parse");
      std::optional<serve::JsonValue> Doc = serve::parseJson(Got);
      Req = serve::parseServeRequest(*Doc, RErr);
    }
    std::optional<RunTask> Task;
    {
      Tracer::Scope S(T, "serve.build_task");
      Task = serve::buildRunTask(*Req, RErr);
    }
    std::uint64_t Key;
    {
      Tracer::Scope S(T, "exec.fingerprint");
      Key = serve::Service::fingerprint(*Task);
    }
    StagedRun Staged = stagedRun(*Task, 1, T, C);
    {
      Tracer::Scope S(T, "exec.runcache.store");
      Store.store(Key, Staged.Result);
    }
    obs::RunArtifact Art;
    {
      Tracer::Scope S(T, "obs.artifact_render");
      Art = serve::makeRunArtifact(*Task, Key, "miss", Staged.Result);
      obs::JsonWriter W;
      const double T0 = nowSeconds();
      Art.writeJson(W);
      JsonSeconds += nowSeconds() - T0;
    }
    std::string Resp;
    {
      Tracer::Scope S(T, "serve.render");
      Resp = serve::renderOkResponse(Req->Id, "miss", 0.0, 0.0, Art);
    }
    frames(Resp);

    Checks.push_back({std::move(*Task), std::move(Staged), Key});
  }
  const double Wall = nowSeconds() - Start;

  // Checks, outside the timed replay: the staged run must reproduce the
  // daemon's answer and runMappingPipeline's mappings.
  for (std::size_t I = 0; T.enabled() && I != Checks.size(); ++I) {
    const auto &[Task, Staged, Key] = Checks[I];
    std::optional<Answer> Served = parseAnswer(Cold[I].Response);
    R.check(Served && Staged.Result.Cycles ==
                          static_cast<std::uint64_t>(
                              Served->Run.get("cycles")->asNumber()),
            Task.Label + ": staged replay differs from the daemon's answer");
    for (unsigned N = 0; N != Task.Prog.Nests.size(); ++N) {
      PipelineResult Pipe = runMappingPipeline(Task.Prog, N, Task.Machine,
                                               Task.Strat, Task.Opts);
      R.check(sameMapping(Staged.Maps[N], Pipe.Map) &&
                  Pipe.Map.coversExactly(
                      Task.Prog.Nests[N].enumerate(Task.Opts.MaxIterations)
                          .size()),
              Task.Label + ": staged mapping differs from "
                           "runMappingPipeline's or misses iterations");
    }
    std::error_code EC;
    BytesWritten +=
        fs::file_size(fs::path(CacheDir) / (toHexDigest(Key) + ".run"), EC);
  }
  close(Pair[0]);
  close(Pair[1]);
  return Wall;
}

} // namespace

int ctabench::runServe(const Options &Opts, Report &R) {
  std::vector<App> Apps;
  for (const std::string &Name : workloadNames()) {
    App A;
    A.Name = Name;
    A.Dsl = readFile(Opts.DslDir + "/" + Name + ".cta");
    if (A.Dsl.empty()) {
      R.fail("missing DSL source " + Opts.DslDir + "/" + Name + ".cta");
      return 1;
    }
    A.WarmPayload = warmRequest(Name, A.Dsl);
    Apps.push_back(std::move(A));
  }
  // One warm and one cold connection: each closed-loop connection keeps
  // about one CPU busy (client and daemon in turn), so half of a 4-CPU
  // host stays free for the daemon's other threads and the host. With
  // three or four connections every CPU was busy and the run-to-run
  // spread of every serve metric exceeded its bound.
  // Threads started from here on inherit the client half of the CPUs.
  const CpuSplit Cpus;
  if (Cpus.On)
    pinTo(Cpus.Client);
  SpeedProbe Probe;

  // Set-up: daemon start to socket ready plus warm priming, on a fresh
  // daemon and cache directory each time; the last daemon serves the load.
  std::vector<double> SetupSeconds;
  Daemon D;
  const unsigned Repeats = Opts.Trace ? 1 : SetupRepeats;
  for (unsigned I = 0; I != Repeats; ++I) {
    Daemon Spare;
    Daemon &Target = I + 1 == Repeats ? D : Spare;
    const double Speed = SpeedProbe::scale({Cpus.probeDaemonCpus(Probe)});
    const StealShare Steal(Cpus.Daemon);
    SetupOutcome S = setUp(Opts, Target, Opts.WorkDir + "/d" + std::to_string(I),
                           Cpus, Apps, I == 0, R);
    if (!S.Ok)
      return 1;
    SetupSeconds.push_back(S.Seconds * Speed * Steal.kept());
    if (&Target == &Spare)
      R.check(Spare.stop(), "set-up daemon did not drain cleanly");
  }

  std::uint64_t Cycles = 0, Accesses = 0, Merges = 0, Groups = 0;
  for (const App &A : Apps) {
    Cycles += static_cast<std::uint64_t>(A.Primed.get("cycles")->asNumber());
    Accesses +=
        static_cast<std::uint64_t>(A.Primed.get("total_accesses")->asNumber());
    Merges += runCounter(A.Primed, "clusterer.merges");
    Groups += runCounter(A.Primed, "tagger.groups");
  }
  R.counter("sim.accesses", Accesses);
  R.counter("sim.cycles", Cycles);
  R.counter("core.cluster.merges", Merges);
  R.counter("core.tag.groups", Groups);

  // The load.
  Rng Gen(Opts.Seed);
  std::atomic<bool> ColdDone{false};
  std::vector<ColdRecord> Cold;
  /// Per cold cycle, the share of the daemon's CPU time not stolen.
  std::vector<double> CycleKept;
  WarmTally Tally;
  SpeedProbe WarmProbe;
  const double LoadStart = nowSeconds();
  std::thread ColdThread([&] {
    Connection Conn(D.socket());
    std::vector<std::size_t> Order(Apps.size());
    for (unsigned Cycle = 0; nowSeconds() - LoadStart < Opts.Seconds;
         ++Cycle) {
      for (std::size_t I = 0; I != Order.size(); ++I)
        Order[I] = I;
      Gen.shuffle(Order);
      const StealShare Steal(Cpus.Daemon);
      for (std::size_t I : Order) {
        // Unique within the run (the request index), different for every
        // seed (the draw), and close enough to the default 0.5 that every
        // seed schedules alike: a wide alpha range made the cold cost, and
        // so every serve metric, depend on the seed.
        const double Alpha = 0.5 + 1e-6 * (Cold.size() + Gen.unit());
        ColdRecord Rec;
        Rec.App = Apps[I].Name;
        Rec.Payload = coldRequest(Cold.size(), Rec.App, Alpha);
        Rec.Cycle = Cycle;
        Rec.Probe = Cpus.probeDaemonCpus(Probe);
        const double T0 = nowSeconds();
        if (!Conn.roundTrip(Rec.Payload, Rec.Response))
          Rec.Response.clear();
        Rec.LatencyMs = (nowSeconds() - T0) * 1e3;
        Cold.push_back(std::move(Rec));
      }
      CycleKept.push_back(Steal.kept());
    }
    ColdDone = true;
  });
  std::thread WarmThread([&] {
    Connection Conn(D.socket());
    std::string Resp;
    std::vector<double> Block;
    double Speed = 1.0, BlockStart = 0.0;
    StealShare Steal(Cpus.Daemon);
    for (std::size_t I = 0; !ColdDone.load(std::memory_order_relaxed); ++I) {
      if (I % WarmBlockSize == 0) {
        Speed = SpeedProbe::scale({Cpus.probeDaemonCpus(WarmProbe)});
        Steal = StealShare(Cpus.Daemon);
        BlockStart = nowSeconds();
        Block.clear();
      }
      const App &A = Apps[I % Apps.size()];
      const double T0 = nowSeconds();
      bool Sent = Conn.roundTrip(A.WarmPayload, Resp);
      const double Us = (nowSeconds() - T0) * 1e6;
      ++Tally.Checked;
      std::size_t RunAt = Resp.find("\"run\":");
      bool Ok = Sent && Resp.find("\"status\":\"ok\"") != std::string::npos &&
                RunAt != std::string::npos &&
                Resp.compare(RunAt, std::string::npos, A.WarmRun) == 0;
      if (Resp.find("\"kind\":\"overloaded\"") != std::string::npos)
        ++Tally.Shed;
      if (Resp.find("\"cache_status\":\"warm\"") != std::string::npos)
        ++Tally.Warm;
      else if (Resp.find("\"cache_status\":\"coalesced\"") !=
               std::string::npos)
        ++Tally.Coalesced;
      else if (Resp.find("\"cache_status\":\"miss\"") != std::string::npos)
        ++Tally.Miss;
      if (Ok) {
        const double ServiceUs =
            numberAfter(Resp, "\"service_seconds\":") * 1e6;
        Tally.LatencyUs.push_back(Us);
        Tally.ServiceUs.push_back(ServiceUs);
        Block.push_back(ServiceUs);
      } else if (Tally.Failures.size() < 8) {
        Tally.Failures.push_back(A.Name + ": warm answer is not the primed "
                                          "result");
      }
      // A block that ends gives one figure of each kind; the partial
      // block cut off by the end of the load gives none.
      if ((I + 1) % WarmBlockSize == 0 && !Block.empty()) {
        const double Scale = Speed * Steal.kept();
        double ServiceSum = 0.0;
        for (double &V : Block) {
          V *= Scale;
          ServiceSum += V;
          Tally.ScaledServiceUs.push_back(V);
        }
        Tally.BlockRps.push_back(Block.size() / (ServiceSum * 1e-6));
        Tally.BlockP99.push_back(quantile(Block, 0.99));
        Tally.ClientBlockRps.push_back(WarmBlockSize /
                                       (nowSeconds() - BlockStart));
      }
    }
  });
  ColdThread.join();
  WarmThread.join();
  if (Cpus.On)
    pinTo(Cpus.All);
  const double PeakRss = D.peakRssMb();
  R.check(D.stop(), "daemon did not drain cleanly on SIGTERM");

  // Tally the load.
  const std::vector<double> &WarmUs = Tally.LatencyUs;
  std::vector<double> QueueUs;
  std::size_t ColdAnswered = 0;
  R.Attempted += Tally.Checked;
  R.Failed += Tally.Checked - WarmUs.size();
  for (const std::string &F : Tally.Failures)
    if (R.Failures.size() < 32)
      R.Failures.push_back(F);
  std::uint64_t Warm = Tally.Warm, Miss = Tally.Miss,
                Coalesced = Tally.Coalesced, Shed = Tally.Shed;
  // Each cold cycle's times are scaled by the probes taken before its
  // requests.
  std::map<unsigned, std::vector<double>> CycleProbes;
  for (const ColdRecord &Rec : Cold)
    CycleProbes[Rec.Cycle].push_back(Rec.Probe);
  std::map<unsigned, double> CycleScale;
  for (const auto &[Cycle, Probes] : CycleProbes)
    CycleScale[Cycle] = SpeedProbe::scale(Probes) * CycleKept[Cycle];
  double ColdSeconds = 0.0;
  std::map<std::string, std::vector<double>> AppColdMs;
  std::map<unsigned, double> CycleCompile;
  std::map<std::string, double> FirstCyclePhases;
  std::vector<ColdRecord> FirstCycle;
  double SimSeconds = 0.0;
  std::uint64_t SimAccesses = 0;
  std::vector<std::optional<Answer>> ColdAnswers;
  for (const ColdRecord &Rec : Cold) {
    std::optional<Answer> A = parseAnswer(Rec.Response);
    R.check(A && A->Status == "ok" && A->Tier == "miss",
            Rec.App + ": cold request not answered ok/miss (" +
                (A ? A->Tier : std::string("no answer")) + ")");
    ColdAnswers.push_back(A);
    if (!A || A->Status != "ok")
      continue;
    if (A->Tier == "miss")
      ++Miss;
    else if (A->Tier == "coalesced")
      ++Coalesced;
    else if (A->Tier == "warm")
      ++Warm;
    const double Scale = CycleScale[Rec.Cycle];
    AppColdMs[Rec.App].push_back(Rec.LatencyMs * Scale);
    ++ColdAnswered;
    ColdSeconds += Rec.LatencyMs * 1e-3 * Scale;
    QueueUs.push_back(A->QueueSeconds * 1e6);
    CycleCompile[Rec.Cycle] +=
        A->Run.get("mapping_seconds")->asNumber() * Scale;
    std::map<std::string, double> Phases;
    addRunPhases(A->Run, Phases);
    SimSeconds += Phases["sim.execute"] * Scale;
    SimAccesses +=
        static_cast<std::uint64_t>(A->Run.get("total_accesses")->asNumber());
    if (Rec.Cycle == 0) {
      addRunPhases(A->Run, FirstCyclePhases);
      FirstCycle.push_back(Rec);
    }
  }
  // Every cycle is whole (the clock is read between cycles), so each
  // holds every app once.
  std::vector<double> Compile;
  for (const auto &[Cycle, Seconds] : CycleCompile)
    Compile.push_back(Seconds);
  // Each app's median cold latency, geomean over the apps: the apps differ
  // in cost by 20x, and a plain median of all latencies jumped between
  // the apps either side of it from run to run.
  std::vector<double> AppMs;
  for (const auto &[Name, Ms] : AppColdMs)
    AppMs.push_back(median(Ms));

  if (!Opts.Trace) {
    R.metric("setup_s", median(SetupSeconds), "s", SetupSeconds.size());
    R.metric("runs_per_s", ColdAnswered / ColdSeconds, "1/s", ColdAnswered);
    R.metric("compile_s", median(Compile), "s", Compile.size());
    R.metric("sim_maccess_per_s",
             SimSeconds > 0 ? SimAccesses / 1e6 / SimSeconds : 0.0, "M/s",
             ColdAnswered);
    R.metric("cold_p50_ms", AppMs.empty() ? 0.0 : geomean(AppMs), "ms",
             ColdAnswered);
    R.metric("warm_p50_us", median(Tally.ScaledServiceUs), "us",
             WarmUs.size());
    R.metric("peak_rss_mb", PeakRss, "MB", 1);
  } else {
    Tracer T(true), Untraced(false);
    StageCounters C, Ignored;
    double JsonSeconds = 0.0, ParseSeconds = 0.0, Unused = 0.0;
    std::uint64_t Bytes = 0, UnusedBytes = 0;
    const double TracedWall =
        replay(Apps, FirstCycle, Opts.WorkDir + "/replay", T, C, JsonSeconds,
               ParseSeconds, Bytes, R);
    const double UntracedWall =
        replay(Apps, FirstCycle, Opts.WorkDir + "/replay-untraced", Untraced,
               Ignored, Unused, Unused, UnusedBytes, R);
    LayerValues V;
    addStagedLayers(V, T, C, TracedWall, UntracedWall, FirstCyclePhases);
    V["serve.build_task.s"] =
        std::max(0.0, V["serve.build_task.s"] - ParseSeconds);
    V["serve.render.s"] = std::max(0.0, V["serve.render.s"] - JsonSeconds);
    V["exec.runcache.bytes_written"] = static_cast<double>(Bytes);
    std::uint64_t Accesses = 0;
    for (const ColdRecord &Rec : FirstCycle)
      if (std::optional<Answer> A = parseAnswer(Rec.Response))
        Accesses += static_cast<std::uint64_t>(
            A->Run.get("total_accesses")->asNumber());
    V["sim.accesses"] = static_cast<double>(Accesses);
    const double ServiceP50 = median(Tally.ServiceUs);
    V["serve.server_service.p50_us"] = ServiceP50;
    V["serve.server_queue.p50_us"] = median(QueueUs);
    V["serve.unattributed.p50_us"] = median(WarmUs) - ServiceP50;
    V["serve.warm_rps"] = median(Tally.BlockRps);
    V["serve.warm_p99_us"] = median(Tally.BlockP99);
    V["serve.tier.warm"] = static_cast<double>(Warm);
    V["serve.tier.miss"] = static_cast<double>(Miss);
    V["serve.tier.coalesced"] = static_cast<double>(Coalesced);
    V["serve.shed"] = static_cast<double>(Shed);
    emitLayerMetrics(R, V, WarmReplays * Apps.size() + FirstCycle.size());
    if (!Opts.SpansPath.empty() && !T.writeJsonLines(Opts.SpansPath))
      R.fail("cannot write the span log " + Opts.SpansPath);
  }
  R.note("cold_requests", std::to_string(ColdAnswered));
  // What the client saw, unscaled: the daemon's service time plus
  // framing, the socket and waits for a CPU.
  R.note("client_warm_rps", std::to_string(median(Tally.ClientBlockRps)));
  R.note("client_warm_p50_us", std::to_string(median(WarmUs)));
  R.note("client_warm_p99_us", std::to_string(quantile(WarmUs, 0.99)));
  R.note("warm_rps", std::to_string(median(Tally.BlockRps)));
  R.note("warm_p99_us", std::to_string(median(Tally.BlockP99)));
  R.note("warm_requests", std::to_string(WarmUs.size()));

  // Output oracle on a seeded sample of answers.
  std::vector<std::size_t> WarmPick(Apps.size());
  for (std::size_t I = 0; I != WarmPick.size(); ++I)
    WarmPick[I] = I;
  Gen.shuffle(WarmPick);
  for (unsigned I = 0; I != WarmOracleSamples; ++I) {
    const App &A = Apps[WarmPick[I]];
    std::optional<Answer> Warm = parseRunTail(A.WarmRun);
    if (!Warm) {
      R.fail(A.Name + ": warm answer does not parse");
      continue;
    }
    checkAnswer(A.WarmPayload, Warm->Run, false, "warm " + A.Name, R);
  }
  for (unsigned I = 0; I != ColdOracleSamples && !Cold.empty(); ++I) {
    std::size_t Pick = Gen.below(Cold.size());
    if (ColdAnswers[Pick])
      checkAnswer(Cold[Pick].Payload, ColdAnswers[Pick]->Run, I == 0,
                  "cold " + Cold[Pick].App, R);
  }
  return 0;
}
