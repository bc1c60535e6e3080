//===- tests/telemetry_test.cpp - Fleet telemetry plane tests -------------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
// Covers the telemetry plane bottom-up: LogHistogram bucket math against a
// sorted reference, snapshot monotonicity under concurrent writer threads
// (the thread-sanitizer CI job runs this binary), the cta-serve-stats-v1
// and Prometheus renderings byte-for-byte, event-log line formatting and
// field elision, and — end to end against a live daemon — that stats
// frames are polls (not requests) and that one trace_id/span_id pair ties
// a cold request's admitted, dispatched and completed events together.
//
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"
#include "obs/Telemetry.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Shutdown.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

using namespace cta;
using namespace cta::obs;

namespace {

//===----------------------------------------------------------------------===//
// LogHistogram
//===----------------------------------------------------------------------===//

/// The documented bucket rule, written independently of the
/// implementation: smallest I with Value <= 2^I, clamped to overflow.
std::size_t referenceBucket(std::uint64_t Value) {
  for (std::size_t I = 0; I + 1 < LogHistogram::NumBuckets; ++I)
    if (Value <= (std::uint64_t{1} << I))
      return I;
  return LogHistogram::NumBuckets - 1;
}

TEST(LogHistogramTest, BucketExactnessVsSortedReference) {
  // Edge values around every boundary, plus ordinary latencies and an
  // overflow-bucket giant.
  std::vector<std::uint64_t> Values = {0,    1,    2,    3,   4,    5,
                                       7,    8,    9,    15,  16,   17,
                                       100,  1023, 1024, 1025, 123456,
                                       std::uint64_t{1} << 40};
  LogHistogram H;
  std::vector<std::uint64_t> Expected(LogHistogram::NumBuckets, 0);
  std::uint64_t Sum = 0;
  for (std::uint64_t V : Values) {
    H.record(V);
    ++Expected[referenceBucket(V)];
    Sum += V;
  }

  HistogramSnapshot S = H.snapshot("units", 1.0);
  ASSERT_EQ(S.Buckets.size(), LogHistogram::NumBuckets);
  for (std::size_t I = 0; I != LogHistogram::NumBuckets; ++I)
    EXPECT_EQ(S.Buckets[I], Expected[I]) << "bucket " << I;
  EXPECT_EQ(S.Count, Values.size());
  EXPECT_EQ(S.RawSum, Sum);
  EXPECT_EQ(S.sum(), static_cast<double>(Sum));

  // Percentiles are factor-of-two upper estimates of the sorted
  // reference: true <= estimate < 2 * max(true, 1).
  std::vector<std::uint64_t> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  // Values past the last finite bound (2^30) land in the +Inf overflow
  // bucket, where the estimate is rightly infinite.
  const double LastFinite = S.upperBound(LogHistogram::NumBuckets - 2);
  for (double P : {0.5, 0.9, 0.99, 1.0}) {
    const std::size_t Rank = std::min(
        Sorted.size() - 1,
        static_cast<std::size_t>(P * static_cast<double>(Sorted.size())));
    const double True = static_cast<double>(Sorted[Rank]);
    const double Est = S.percentile(P);
    EXPECT_GE(Est, True) << "p" << P;
    if (True > LastFinite)
      EXPECT_TRUE(std::isinf(Est)) << "p" << P;
    else
      EXPECT_LT(Est, 2.0 * std::max(True, 1.0)) << "p" << P;
  }

  // The scale multiplier applies to bounds and sums, not counts.
  HistogramSnapshot Micros = H.snapshot("seconds", 1e-6);
  EXPECT_EQ(Micros.Count, S.Count);
  EXPECT_DOUBLE_EQ(Micros.upperBound(3), 8e-6);
  EXPECT_DOUBLE_EQ(Micros.sum(), static_cast<double>(Sum) * 1e-6);
}

TEST(LogHistogramTest, SnapshotMonotonicUnderConcurrentWriters) {
  constexpr unsigned NumThreads = 8;
  constexpr std::uint64_t PerThread = 20000;
  LogHistogram H;
  std::atomic<bool> Go{false};
  std::vector<std::thread> Writers;
  for (unsigned T = 0; T != NumThreads; ++T)
    Writers.emplace_back([&H, &Go, T] {
      while (!Go.load())
        std::this_thread::yield();
      for (std::uint64_t I = 0; I != PerThread; ++I)
        H.record((I * (T + 1)) % 4096);
    });

  // Hammer snapshots while writers run: every field of every successive
  // pair must be monotonic (each counter only ever increases).
  Go.store(true);
  HistogramSnapshot Prev = H.snapshot("units", 1.0);
  for (int Round = 0; Round != 200; ++Round) {
    HistogramSnapshot Cur = H.snapshot("units", 1.0);
    EXPECT_GE(Cur.Count, Prev.Count);
    EXPECT_GE(Cur.RawSum, Prev.RawSum);
    for (std::size_t I = 0; I != LogHistogram::NumBuckets; ++I)
      EXPECT_GE(Cur.Buckets[I], Prev.Buckets[I]) << "bucket " << I;
    Prev = Cur;
  }
  for (std::thread &W : Writers)
    W.join();

  // Quiesced: totals are exact and the bucket sum reconciles with Count.
  HistogramSnapshot Final = H.snapshot("units", 1.0);
  EXPECT_EQ(Final.Count, NumThreads * PerThread);
  std::uint64_t BucketSum = 0;
  for (std::uint64_t B : Final.Buckets)
    BucketSum += B;
  EXPECT_EQ(BucketSum, Final.Count);
}

//===----------------------------------------------------------------------===//
// Snapshot renderings
//===----------------------------------------------------------------------===//

TelemetrySnapshot goldenSnapshot() {
  TelemetrySnapshot S;
  S.UptimeSeconds = 1.5;
  S.RssKb = 2048;
  S.Counters = {{"serve.ok", 3}, {"serve.requests", 5}};
  S.Gauges = {{"serve.inflight", 2.0}};
  LogHistogram H;
  H.record(1);
  H.record(1);
  H.record(3);
  H.record(100);
  S.Histograms["serve.queue_depth"] = H.snapshot("requests", 1.0);
  return S;
}

TEST(TelemetrySnapshotTest, StatsFrameBytesAreTheSchema) {
  // The byte-schema golden: scripts/check_artifact_schema.py and cta top
  // both parse this exact shape, so any drift must be a conscious schema
  // bump, not an accident.
  EXPECT_EQ(
      goldenSnapshot().toJson(),
      "{\"schema\":\"cta-serve-stats-v1\",\"uptime_seconds\":1.5,"
      "\"rss_kb\":2048,"
      "\"counters\":{\"serve.ok\":3,\"serve.requests\":5},"
      "\"gauges\":{\"serve.inflight\":2},"
      "\"histograms\":{\"serve.queue_depth\":{\"unit\":\"requests\","
      "\"scale\":1,\"count\":4,\"sum\":105,"
      "\"buckets\":[{\"le\":1,\"count\":2},{\"le\":4,\"count\":1},"
      "{\"le\":128,\"count\":1}]}}}");
}

TEST(TelemetrySnapshotTest, PrometheusRenderingIsCumulative) {
  EXPECT_EQ(goldenSnapshot().renderPrometheus(),
            "# TYPE cta_uptime_seconds gauge\n"
            "cta_uptime_seconds 1.5\n"
            "# TYPE cta_rss_kb gauge\n"
            "cta_rss_kb 2048\n"
            "# TYPE cta_serve_ok_total counter\n"
            "cta_serve_ok_total 3\n"
            "# TYPE cta_serve_requests_total counter\n"
            "cta_serve_requests_total 5\n"
            "# TYPE cta_serve_inflight gauge\n"
            "cta_serve_inflight 2\n"
            "# TYPE cta_serve_queue_depth histogram\n"
            "cta_serve_queue_depth_bucket{le=\"1\"} 2\n"
            "cta_serve_queue_depth_bucket{le=\"4\"} 3\n"
            "cta_serve_queue_depth_bucket{le=\"128\"} 4\n"
            "cta_serve_queue_depth_bucket{le=\"+Inf\"} 4\n"
            "cta_serve_queue_depth_sum 105\n"
            "cta_serve_queue_depth_count 4\n");
}

//===----------------------------------------------------------------------===//
// Event log
//===----------------------------------------------------------------------===//

TEST(EventLogTest, FormatLineEmitsSetFieldsAndElidesDefaults) {
  Event E;
  E.Name = "dispatched";
  E.TraceId = 0xabcdef0123456789ull;
  E.SpanId = 0x42;
  E.Id = "r1";
  E.Detail = "miss";
  std::string Line = EventLog::formatLine(E, /*Pid=*/777);

  std::string Err;
  std::optional<serve::JsonValue> Doc = serve::parseJson(Line, &Err);
  ASSERT_TRUE(Doc.has_value()) << Err;
  EXPECT_EQ(Doc->get("schema")->asString(), "cta-serve-event-v1");
  EXPECT_GT(Doc->get("ts")->asNumber(), 0.0);
  EXPECT_EQ(Doc->get("pid")->asNumber(), 777.0);
  EXPECT_EQ(Doc->get("event")->asString(), "dispatched");
  EXPECT_EQ(Doc->get("trace_id")->asString(), "abcdef0123456789");
  EXPECT_EQ(Doc->get("span_id")->asString(), "0000000000000042");
  EXPECT_EQ(Doc->get("id")->asString(), "r1");
  EXPECT_EQ(Doc->get("detail")->asString(), "miss");
  // Unset fields are elided, not emitted as zeros.
  EXPECT_EQ(Doc->get("client"), nullptr);
  EXPECT_EQ(Doc->get("seconds"), nullptr);
}

TEST(EventLogTest, MintedIdsAreNonZeroAndDistinct) {
  std::uint64_t A = mintTelemetryId(), B = mintTelemetryId();
  EXPECT_NE(A, 0u);
  EXPECT_NE(B, 0u);
  EXPECT_NE(A, B);
  EXPECT_EQ(telemetryIdHex(0x42).size(), 16u);
}

TEST(EventLogTest, OpenFailureNamesThePath) {
  std::string Err;
  EXPECT_EQ(EventLog::open("/nonexistent-dir/events.jsonl", &Err), nullptr);
  EXPECT_NE(Err.find("/nonexistent-dir/events.jsonl"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Live daemon: stats frames and request trace ids
//===----------------------------------------------------------------------===//

class DaemonTest : public ::testing::Test {
protected:
  std::string Dir;
  std::unique_ptr<serve::Server> Daemon;
  std::thread Runner;

  void SetUp() override {
    Dir = (std::filesystem::temp_directory_path() /
           ("cta-telemetry-test-" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()))
              .string();
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }

  void startDaemon(bool WithEventLog) {
    serve::installShutdownSignalHandlers();
    serve::resetShutdownForTest();
    serve::ServerOptions Opts;
    Opts.SocketPath = Dir + "/daemon.sock";
    Opts.Jobs = 2;
    Opts.CacheDir = Dir + "/cache";
    if (WithEventLog)
      Opts.LogJsonPath = Dir + "/events.jsonl";
    Daemon = std::make_unique<serve::Server>(Opts);
    std::string Err;
    ASSERT_TRUE(Daemon->listen(&Err)) << Err;
    Runner = std::thread([this] { Daemon->run(); });
  }

  void stopDaemon() {
    if (!Daemon)
      return;
    Daemon->stop();
    Runner.join();
    Daemon.reset();
  }

  void TearDown() override {
    stopDaemon();
    serve::resetShutdownForTest();
    std::filesystem::remove_all(Dir);
  }

  int connect() {
    sockaddr_un Addr = {};
    Addr.sun_family = AF_UNIX;
    const std::string Path = Daemon->options().SocketPath;
    if (Path.size() >= sizeof(Addr.sun_path))
      return -1;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    if (::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                  sizeof(Addr)) != 0) {
      ::close(Fd);
      return -1;
    }
    return Fd;
  }

  serve::JsonValue sendRecv(int Fd, const std::string &Request) {
    std::string Err;
    EXPECT_TRUE(serve::writeFrame(Fd, Request, &Err)) << Err;
    std::string Payload;
    EXPECT_EQ(serve::readFrame(Fd, Payload, &Err), serve::FrameStatus::Ok)
        << Err;
    std::optional<serve::JsonValue> Doc = serve::parseJson(Payload, &Err);
    EXPECT_TRUE(Doc.has_value()) << Err;
    return Doc ? *Doc : serve::JsonValue{};
  }

  static std::string minimalRequest(const std::string &Extra = "") {
    return "{\"schema\":\"cta-serve-req-v1\",\"workload\":\"cg\","
           "\"machine\":\"dunnington\"" +
           Extra + "}";
  }

  std::uint64_t counterOf(const serve::JsonValue &Stats,
                          const std::string &Name) {
    const serve::JsonValue *C = Stats.get("counters");
    const serve::JsonValue *V = C ? C->get(Name) : nullptr;
    return V ? static_cast<std::uint64_t>(V->asNumber()) : 0;
  }
};

TEST_F(DaemonTest, StatsFramesArePollsNotRequests) {
  startDaemon(/*WithEventLog=*/false);
  int Fd = connect();
  ASSERT_GE(Fd, 0);

  serve::JsonValue First = sendRecv(Fd, "{\"schema\":\"cta-serve-stats-v1\"}");
  EXPECT_EQ(First.get("schema")->asString(), "cta-serve-stats-v1");
  EXPECT_EQ(counterOf(First, "serve.requests"), 0u);

  // One cold then one warm request.
  EXPECT_EQ(sendRecv(Fd, minimalRequest(",\"id\":\"r1\""))
                .get("status")
                ->asString(),
            "ok");
  EXPECT_EQ(sendRecv(Fd, minimalRequest(",\"id\":\"r2\""))
                .get("cache_status")
                ->asString(),
            "warm");

  serve::JsonValue Second =
      sendRecv(Fd, "{\"schema\":\"cta-serve-stats-v1\"}");
  EXPECT_EQ(counterOf(Second, "serve.requests"), 2u);
  EXPECT_EQ(counterOf(Second, "serve.ok"), 2u);
  EXPECT_EQ(counterOf(Second, "serve.tier.warm"), 1u);
  EXPECT_EQ(counterOf(Second, "serve.tier.miss"), 1u);
  EXPECT_EQ(counterOf(Second, "serve.stats_requests"), 2u);
  EXPECT_GE(Second.get("uptime_seconds")->asNumber(),
            First.get("uptime_seconds")->asNumber());

  // Every counter in the first snapshot is monotone into the second.
  const serve::JsonValue *FirstCounters = First.get("counters");
  ASSERT_NE(FirstCounters, nullptr);
  for (const auto &[Name, V] : FirstCounters->Obj)
    EXPECT_GE(counterOf(Second, Name), static_cast<std::uint64_t>(V.Num))
        << Name;

  // The warm and miss answers both recorded a latency sample.
  const serve::JsonValue *Hists = Second.get("histograms");
  ASSERT_NE(Hists, nullptr);
  ASSERT_NE(Hists->get("serve.latency.warm"), nullptr);
  EXPECT_EQ(Hists->get("serve.latency.warm")->get("count")->asNumber(), 1.0);
  ASSERT_NE(Hists->get("serve.latency.miss"), nullptr);
  EXPECT_EQ(Hists->get("serve.latency.miss")->get("count")->asNumber(), 1.0);
  ::close(Fd);

  // Stats polls never count as requests in the lifetime summary either.
  EXPECT_EQ(Daemon->stats().Requests, 2u);
  EXPECT_EQ(Daemon->stats().Ok, 2u);
  stopDaemon();
}

TEST_F(DaemonTest, ServerLatencySplitAgreesWithClientWall) {
  startDaemon(/*WithEventLog=*/false);
  int Fd = connect();
  ASSERT_GE(Fd, 0);

  const auto T0 = std::chrono::steady_clock::now();
  serve::JsonValue Cold = sendRecv(Fd, minimalRequest(",\"id\":\"r1\""));
  const double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  ASSERT_EQ(Cold.get("status")->asString(), "ok");

  // The server's queue/service attribution must be internally consistent
  // and fit inside the client-observed wall time: both halves non-negative
  // and their sum no larger than what the client measured around the
  // round trip (the server's span is a strict subset of the client's).
  const double Queue = Cold.get("queue_seconds")->asNumber(-1);
  const double Service = Cold.get("service_seconds")->asNumber(-1);
  EXPECT_GE(Queue, 0.0);
  EXPECT_GT(Service, 0.0); // a cold miss really simulated something
  EXPECT_LE(Queue + Service, Wall);
  ::close(Fd);
}

TEST_F(DaemonTest, TraceIdsJoinTheRequestLifecycle) {
  startDaemon(/*WithEventLog=*/true);
  int Fd = connect();
  ASSERT_GE(Fd, 0);
  serve::JsonValue Cold = sendRecv(Fd, minimalRequest(",\"id\":\"r1\""));
  ASSERT_EQ(Cold.get("status")->asString(), "ok");
  EXPECT_EQ(Cold.get("cache_status")->asString(), "miss");
  ::close(Fd);
  stopDaemon(); // drains and flushes the event log

  std::ifstream In(Dir + "/events.jsonl");
  ASSERT_TRUE(In.is_open());
  std::map<std::string, std::pair<std::string, std::string>> Ids;
  std::map<std::string, int> Names;
  for (std::string Line; std::getline(In, Line);) {
    std::string Err;
    std::optional<serve::JsonValue> Doc = serve::parseJson(Line, &Err);
    ASSERT_TRUE(Doc.has_value()) << Err << " in: " << Line;
    EXPECT_EQ(Doc->get("schema")->asString(), "cta-serve-event-v1");
    const std::string Name = Doc->get("event")->asString();
    ++Names[Name];
    ASSERT_NE(Doc->get("id"), nullptr) << Line;
    EXPECT_EQ(Doc->get("id")->asString(), "r1");
    ASSERT_NE(Doc->get("trace_id"), nullptr) << Line;
    ASSERT_NE(Doc->get("span_id"), nullptr) << Line;
    Ids[Name] = {Doc->get("trace_id")->asString(),
                 Doc->get("span_id")->asString()};
    if (Name == "completed") {
      EXPECT_GE(Doc->get("seconds")->asNumber(-1), 0.0);
    }
  }

  // One cold request, one lifecycle: admitted -> dispatched -> completed,
  // every line carrying the same trace and span ids.
  EXPECT_EQ(Names, (std::map<std::string, int>{
                       {"admitted", 1}, {"dispatched", 1}, {"completed", 1}}));
  ASSERT_EQ(Ids.size(), 3u);
  EXPECT_FALSE(Ids["admitted"].first.empty());
  EXPECT_EQ(Ids["dispatched"], Ids["admitted"]);
  EXPECT_EQ(Ids["completed"], Ids["admitted"]);
}

} // namespace
