//===- obs/EventLog.cpp - Request-scoped structured event log -------------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//

#include "obs/EventLog.h"

#include "obs/Json.h"
#include "support/Hashing.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <unistd.h>

namespace cta::obs {

EventLog::~EventLog() {
  if (File)
    std::fclose(File);
}

std::unique_ptr<EventLog> EventLog::open(const std::string &Path,
                                         std::string *Err) {
  std::FILE *File = std::fopen(Path.c_str(), "a");
  if (!File) {
    if (Err)
      *Err = "cannot write event log '" + Path + "': " + std::strerror(errno);
    return nullptr;
  }
  return std::unique_ptr<EventLog>(new EventLog(File, Path));
}

std::string EventLog::formatLine(const Event &E, std::int64_t Pid) {
  const double Ts =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("cta-serve-event-v1");
  W.key("ts");
  W.value(Ts);
  W.key("pid");
  W.value(Pid);
  W.key("event");
  W.value(E.Name);
  if (E.TraceId) {
    W.key("trace_id");
    W.value(telemetryIdHex(E.TraceId));
  }
  if (E.SpanId) {
    W.key("span_id");
    W.value(telemetryIdHex(E.SpanId));
  }
  if (!E.Id.empty()) {
    W.key("id");
    W.value(E.Id);
  }
  if (!E.Client.empty()) {
    W.key("client");
    W.value(E.Client);
  }
  if (!E.Detail.empty()) {
    W.key("detail");
    W.value(E.Detail);
  }
  if (E.Seconds >= 0.0) {
    W.key("seconds");
    W.value(E.Seconds);
  }
  W.endObject();
  return W.str();
}

void EventLog::log(const Event &E) {
  const std::string Line =
      formatLine(E, static_cast<std::int64_t>(::getpid()));
  std::lock_guard<std::mutex> Lock(Mutex);
  std::fwrite(Line.data(), 1, Line.size(), File);
  std::fputc('\n', File);
  std::fflush(File);
}

std::uint64_t mintTelemetryId() {
  // A per-process nonce (address-space layout + startup clock) hashed
  // with a sequence number: collision-free within a process, collision-
  // unlikely across a fleet, and never zero (zero means "no id").
  static const std::uint64_t Nonce = [] {
    HashBuilder H;
    H.add(std::uint64_t(
        std::chrono::steady_clock::now().time_since_epoch().count()));
    H.add(std::uint64_t(::getpid()));
    static int Anchor;
    H.add(reinterpret_cast<std::uintptr_t>(&Anchor));
    return H.hash();
  }();
  static std::atomic<std::uint64_t> Sequence{0};
  HashBuilder H;
  H.add(Nonce);
  H.add(Sequence.fetch_add(1, std::memory_order_relaxed));
  std::uint64_t Id = H.hash();
  return Id ? Id : 1;
}

std::string telemetryIdHex(std::uint64_t Id) { return toHexDigest(Id); }

} // namespace cta::obs
