//===- serve/Service.cpp - Submit/collect experiment service core ---------===//

#include "serve/Service.h"

#include "exec/Fingerprint.h"
#include "serve/Shutdown.h"

using namespace cta;
using namespace cta::serve;

obs::RunArtifact cta::serve::makeRunArtifact(const RunTask &Task,
                                             std::uint64_t Key,
                                             const char *CacheStatus,
                                             const RunResult &R) {
  obs::RunArtifact A;
  A.Label = Task.Label;
  A.Fingerprint = toHexDigest(Key);
  A.CacheStatus = CacheStatus;
  A.Cycles = R.Cycles;
  A.MappingSeconds = R.MappingSeconds;
  A.BlockSizeBytes = R.BlockSizeBytes;
  A.Imbalance = R.Imbalance;
  A.NumRounds = R.NumRounds;
  A.MemoryAccesses = R.Stats.MemoryAccesses;
  A.TotalAccesses = R.Stats.TotalAccesses;
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    const SimStats::LevelStats &S = R.Stats.Levels[L];
    if (S.Lookups == 0 && S.Hits == 0)
      continue;
    obs::ArtifactLevelStats Level;
    Level.Level = L;
    Level.Lookups = S.Lookups;
    Level.Hits = S.Hits;
    for (const CacheNodeStats &C : R.PerCache)
      if (C.Level == L)
        Level.Evictions += C.Evictions;
    A.Levels.push_back(Level);
  }
  for (const CacheNodeStats &C : R.PerCache) {
    obs::ArtifactCacheStats Node;
    Node.NodeId = C.NodeId;
    Node.Level = C.Level;
    Node.Lookups = C.Lookups;
    Node.Hits = C.Hits;
    Node.Evictions = C.Evictions;
    A.Caches.push_back(Node);
  }
  A.TotalSharing = R.Sharing.TotalSharing;
  for (const LevelSharing &L : R.Sharing.Levels) {
    obs::ArtifactSharing S;
    S.Level = L.Level;
    S.WithinDomain = L.WithinDomain;
    S.AcrossDomains = L.AcrossDomains;
    A.Sharing.push_back(S);
  }
  A.Phases = R.Phases;
  A.Counters = R.Counters;
  return A;
}

const char *Service::tierName(Tier T) {
  switch (T) {
  case Tier::Warm:
    return "warm";
  case Tier::Coalesced:
    return "coalesced";
  case Tier::Hit:
    return "hit";
  case Tier::Miss:
    return "miss";
  case Tier::Disabled:
    return "disabled";
  case Tier::Bypass:
    return "bypass";
  }
  return "unknown";
}

/// The promise a submission registers and every coalescing waiter shares.
struct Service::Inflight {
  std::promise<std::shared_ptr<const TaskOutcome>> Promise;
  std::shared_future<std::shared_ptr<const TaskOutcome>> Future;

  Inflight() : Future(Promise.get_future().share()) {}
};

Service::Service(Config C)
    : Cfg(std::move(C)), Cache(Cfg.CacheDir),
      GridSink(&obs::MetricSink::root()) {
  if (Cfg.Jobs == 0)
    Cfg.Jobs = ThreadPool::defaultThreadCount();
  if (Cfg.Jobs > 1)
    Pool = std::make_unique<ThreadPool>(Cfg.Jobs);
}

Service::~Service() { drain(); }

std::size_t Service::warmIndexSize() const {
  std::lock_guard<std::mutex> Lock(IndexMutex);
  return WarmIndex.size();
}

std::shared_ptr<const TaskOutcome>
Service::lookupWarm(std::uint64_t Key) const {
  std::lock_guard<std::mutex> Lock(IndexMutex);
  auto It = WarmIndex.find(Key);
  return It == WarmIndex.end() ? nullptr : It->second;
}

std::uint64_t Service::fingerprint(const RunTask &Task) {
  return runFingerprint(Task.Prog, Task.Machine,
                        Task.RunsOn ? &*Task.RunsOn : nullptr, Task.Strat,
                        Task.Opts, Task.SourceHash,
                        /*Traced=*/Task.TraceSink != nullptr);
}

RunResult Service::execute(const RunTask &Task) {
  SimInvocations.fetch_add(1, std::memory_order_relaxed);

  // Everything this task does — pipeline counters, sim phase spans — is
  // attributed to a run-private sink for the duration of the task, then
  // copied into the result and rolled up into the grid sink. The scope is
  // installed on the *executing* thread, so attribution is correct no
  // matter which pool worker picks the task up.
  RunResult R;
  {
    obs::MetricSink RunSink(&GridSink);
    obs::MetricScope Scope(RunSink);
    // The engine gets this service's pool: its parallelFor waiters help
    // drain pool work, so an engine running *on* a pool worker cannot
    // deadlock the service.
    SimExec Exec;
    Exec.Threads = Cfg.SimThreads;
    Exec.Pool = Pool.get();
    R = Task.RunsOn ? runCrossMachine(Task.Prog, Task.Machine, *Task.RunsOn,
                                      Task.Strat, Task.Opts,
                                      Task.TraceSink.get(), Exec)
                    : runOnMachine(Task.Prog, Task.Machine, Task.Strat,
                                   Task.Opts, Task.TraceSink.get(), Exec);
    R.Counters = RunSink.snapshot();
    R.Phases = RunSink.phases();
  }
  SimAccesses.fetch_add(R.Stats.TotalAccesses, std::memory_order_relaxed);
  return R;
}

void Service::finish(std::uint64_t Key,
                     const std::shared_ptr<Inflight> &State,
                     std::shared_ptr<const TaskOutcome> Out, bool Index) {
  {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    if (Index)
      WarmIndex[Key] = Out;
    InflightMap.erase(Key);
  }
  State->Promise.set_value(std::move(Out));
  if (Outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Take the mutex so a drain() between its predicate check and its
    // wait() cannot miss this notification.
    std::lock_guard<std::mutex> Lock(DrainMutex);
    DrainCV.notify_all();
  }
}

void Service::scheduleExecute(RunTask Task, std::uint64_t Key,
                              std::shared_ptr<Inflight> State, bool Bypass) {
  auto Work = [this, Task = std::move(Task), Key, State = std::move(State),
               Bypass] {
    auto Out = std::make_shared<TaskOutcome>();
    // Cooperative shutdown, checked when the task is dequeued: work that
    // had not started is skipped, so an interrupted process never reports
    // half-simulated results.
    if (Cfg.SkipOnShutdown && shutdownRequested()) {
      Interrupted.store(true, std::memory_order_relaxed);
      Out->Artifact = makeRunArtifact(Task, Key, "skipped", Out->Result);
      finish(Key, State, std::move(Out), /*Index=*/false);
      return;
    }
    Out->Result = execute(Task);
    if (Bypass) {
      Out->Artifact = makeRunArtifact(Task, Key, "bypass", Out->Result);
      finish(Key, State, std::move(Out), /*Index=*/false);
      return;
    }
    Cache.store(Key, Out->Result);
    Out->Artifact = makeRunArtifact(
        Task, Key, Cache.enabled() ? "miss" : "disabled", Out->Result);
    finish(Key, State, std::move(Out), /*Index=*/true);
  };
  if (Pool)
    Pool->submit(std::move(Work));
  else
    Work();
}

Service::Submission Service::submit(const RunTask &Task) {
  const std::uint64_t Key = fingerprint(Task);
  const bool Traced = Task.TraceSink != nullptr;

  if (Traced) {
    // Traced runs bypass every tier in both directions: the caller wants
    // the event stream, which only the simulator can produce and neither
    // the warm index nor the disk cache persists. They are also never
    // coalesced — two traced submissions want two event streams.
    auto State = std::make_shared<Inflight>();
    Outstanding.fetch_add(1, std::memory_order_relaxed);
    Submission Sub{State->Future, Key, Tier::Bypass};
    scheduleExecute(Task, Key, std::move(State), /*Bypass=*/true);
    return Sub;
  }

  std::shared_ptr<Inflight> State;
  {
    std::lock_guard<std::mutex> Lock(IndexMutex);
    if (auto It = WarmIndex.find(Key); It != WarmIndex.end()) {
      std::promise<std::shared_ptr<const TaskOutcome>> Ready;
      Ready.set_value(It->second);
      return Submission{Ready.get_future().share(), Key, Tier::Warm};
    }
    if (auto It = InflightMap.find(Key); It != InflightMap.end())
      return Submission{It->second->Future, Key, Tier::Coalesced};
    State = std::make_shared<Inflight>();
    InflightMap.emplace(Key, State);
  }
  Outstanding.fetch_add(1, std::memory_order_relaxed);

  // Disk lookup happens on the submitting thread: entries are small, and
  // answering warm-rerun traffic without a trip through the pool keeps the
  // fast path fast.
  if (std::optional<RunResult> Cached = Cache.lookup(Key)) {
    auto Out = std::make_shared<TaskOutcome>();
    Out->Result = std::move(*Cached);
    Out->Artifact = makeRunArtifact(Task, Key, "hit", Out->Result);
    Submission Sub{State->Future, Key, Tier::Hit};
    finish(Key, State, std::move(Out), /*Index=*/true);
    return Sub;
  }

  Submission Sub{State->Future, Key,
                 Cache.enabled() ? Tier::Miss : Tier::Disabled};
  scheduleExecute(Task, Key, std::move(State), /*Bypass=*/false);
  return Sub;
}

TaskOutcome Service::collect(const Submission &Sub,
                             const RunTask &Task) const {
  std::shared_ptr<const TaskOutcome> Shared = Sub.Future.get();
  TaskOutcome Out = *Shared;
  // "skipped" is an executor-side fact every waiter must see; otherwise
  // the waiter's view of how *its* submission resolved wins, under the
  // waiter's own label (a coalesced waiter may have submitted the same
  // fingerprint with a different label).
  if (Out.Artifact.CacheStatus != "skipped")
    Out.Artifact.CacheStatus = tierName(Sub.How);
  Out.Artifact.Label = Task.Label;
  return Out;
}

TaskOutcome Service::runOne(const RunTask &Task) {
  return collect(submit(Task), Task);
}

std::vector<TaskOutcome>
Service::runBatch(const std::vector<RunTask> &Tasks) {
  std::vector<Submission> Subs;
  Subs.reserve(Tasks.size());
  for (const RunTask &T : Tasks)
    Subs.push_back(submit(T));
  std::vector<TaskOutcome> Outcomes;
  Outcomes.reserve(Tasks.size());
  for (std::size_t I = 0; I != Tasks.size(); ++I)
    Outcomes.push_back(collect(Subs[I], Tasks[I]));
  return Outcomes;
}

void Service::drain() {
  std::unique_lock<std::mutex> Lock(DrainMutex);
  DrainCV.wait(Lock, [this] {
    return Outstanding.load(std::memory_order_acquire) == 0;
  });
}
