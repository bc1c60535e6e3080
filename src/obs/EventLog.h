//===- obs/EventLog.h - Request-scoped structured event log ----*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's structured event log: one JSON line (cta-serve-event-v1)
/// per request lifecycle transition — admitted, coalesced, shed,
/// dispatched, completed — so a single slow request is explainable after
/// the fact without attaching a debugger to a live daemon.
///
/// Every request that enters admission gets a trace_id and a span_id;
/// all lines for one request carry the same pair, so they can be joined
/// back into the request's timeline.
///
/// Timestamps are wall-clock epoch seconds (system_clock), comparable
/// with other processes' logs, unlike the process-monotonic base run
/// artifacts use. The log is strictly opt-in (--log-json=FILE); a null
/// EventLog* costs one branch per call site.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_OBS_EVENTLOG_H
#define CTA_OBS_EVENTLOG_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

namespace cta::obs {

/// One lifecycle transition. Fields that do not apply stay at their
/// defaults and are elided from the JSON line.
struct Event {
  /// "admitted", "coalesced", "shed", "dispatched" or "completed".
  std::string Name;
  std::uint64_t TraceId = 0;
  std::uint64_t SpanId = 0;
  /// Request id / client name as the request stated them.
  std::string Id;
  std::string Client;
  /// Free-form qualifier: the serve tier ("warm", "miss"...) or why a
  /// request was shed.
  std::string Detail;
  double Seconds = -1.0; ///< Span duration; < 0 = not a closing event.
};

/// Thread-safe append-only JSON-lines writer. Lines are flushed per
/// append so a crashed daemon still leaves a complete prefix.
class EventLog {
public:
  ~EventLog();

  EventLog(const EventLog &) = delete;
  EventLog &operator=(const EventLog &) = delete;

  /// Opens \p Path for appending. Returns null and fills \p Err when the
  /// path is not writable.
  static std::unique_ptr<EventLog> open(const std::string &Path,
                                        std::string *Err = nullptr);

  /// Appends one event as a cta-serve-event-v1 line.
  void log(const Event &E);

  const std::string &path() const { return Path; }

  /// Renders \p E as its JSON line (no trailing newline) — the exact
  /// bytes log() appends. \p Pid stamps the producing process.
  static std::string formatLine(const Event &E, std::int64_t Pid);

private:
  EventLog(std::FILE *File, std::string Path)
      : File(File), Path(std::move(Path)) {}

  std::mutex Mutex;
  std::FILE *File = nullptr;
  std::string Path;
};

/// Mints a fresh id for a new trace or span: unique across processes with
/// overwhelming probability (process nonce + pid + sequence hashed), never
/// zero. Not deterministic — ids exist only in the opt-in event log and
/// stats plane, never in run artifacts.
std::uint64_t mintTelemetryId();

/// Lowercase 16-hex rendering shared by every id field.
std::string telemetryIdHex(std::uint64_t Id);

} // namespace cta::obs

#endif // CTA_OBS_EVENTLOG_H
