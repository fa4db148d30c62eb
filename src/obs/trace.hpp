// Phase tracing: RAII spans recorded into per-thread buffers and dumped
// as Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// The disabled path is the common one and must cost nothing: when no
// TraceRecorder is installed, ScopedSpan's constructor is a single
// relaxed atomic load and its destructor a null check — no clock reads,
// no allocation.  When a recorder is installed, each span costs two
// steady_clock reads and one push_back into this thread's buffer.
//
// Span names and categories must be string literals (or otherwise
// outlive the recorder): events store the pointers, not copies.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pandarus::obs {

// --- Timestamp unit contract ----------------------------------------------
//
// Two clock domains cross the obs layer, and they never mix implicitly:
//
//  * simulated time — util::SimTime milliseconds since campaign start.
//    obs::EventLog `ts` fields and the campaign's sampling ticks live
//    here.
//  * wall time — microseconds on the steady clock since the process
//    trace epoch (TraceRecorder::now_us()).  TraceRecorder events live
//    here because Chrome trace JSON `ts`/`dur` are microseconds by spec.
//
// Simulated-time spans rendered into a trace (flow lanes) are scaled
// ms -> us through to_micros so one simulated millisecond occupies one
// visual microsecond; wall-clock gauges derived from now_us() go back
// through to_millis.  All conversions use these helpers — a bare
// `* 1000` or `/ 1000` on a timestamp is a contract violation.
[[nodiscard]] inline constexpr std::int64_t to_micros(
    std::int64_t millis) noexcept {
  return millis * 1000;
}
[[nodiscard]] inline constexpr std::int64_t to_millis(
    std::int64_t micros) noexcept {
  return micros / 1000;
}
static_assert(to_micros(1) == 1000 && to_millis(to_micros(7)) == 7,
              "obs timestamp contract: 1 ms == 1000 us, lossless round-trip");

struct TraceEvent {
  /// Sentinel `tid`: use the recording thread's per-buffer track.
  static constexpr std::int64_t kThreadTid = -1;

  const char* name;
  const char* category;
  std::int64_t start_us;  ///< microseconds since process trace epoch
  std::int64_t dur_us;
  std::int64_t arg;  ///< kNoArg, or emitted as args:{"v": arg}
  // Flow-lane extensions; the defaults reproduce the classic wall-clock
  // "X" span on the recording thread's track, so record() callers are
  // unaffected.
  char ph = 'X';  ///< 'X' span, 's'/'f' flow arrow ends, 'M' process name
  std::int32_t pid = 1;            ///< see TraceRecorder::k*Pid
  std::int64_t tid = kThreadTid;   ///< explicit track id (flow/transfer lanes)
  std::uint64_t flow_id = 0;       ///< Chrome trace "id" binding 's' to 'f'
};

/// Collects spans from any thread; one buffer per (recorder, thread).
/// Install at most one recorder at a time; it must outlive every span
/// that observed it as installed, and snapshots (to_chrome_json) are
/// only safe once recording threads have quiesced.
class TraceRecorder {
 public:
  static constexpr std::int64_t kNoArg = INT64_MIN;
  /// Trace "process" lanes: wall-clock spans keep pid 1 (unchanged
  /// output); simulated-time flow and transfer lanes render under their
  /// own pids so the two clock domains never share a timeline.
  static constexpr std::int32_t kWallPid = 1;
  static constexpr std::int32_t kFlowPid = 2;
  static constexpr std::int32_t kTransferPid = 3;

  /// `max_events_per_thread` bounds each thread buffer; overflowing
  /// events are counted as dropped (and warned once via util::log_line).
  explicit TraceRecorder(std::size_t max_events_per_thread = 1 << 20);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Makes this the process-wide recorder new spans report to.
  void install() noexcept;
  /// Stops recording (no-op if another recorder was installed since).
  void uninstall() noexcept;
  [[nodiscard]] static TraceRecorder* installed() noexcept {
    return g_installed.load(std::memory_order_acquire);
  }

  void record(const char* name, const char* category, std::int64_t start_us,
              std::int64_t dur_us, std::int64_t arg = kNoArg);
  /// Fully-specified variant for flow lanes / flow arrows ('s'/'f'
  /// phases, explicit pid/tid, Chrome "id"); same buffering and
  /// overflow accounting as record().
  void record_event(const TraceEvent& event);

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome trace-event JSON ({"traceEvents": [...]}, "X" phase events).
  [[nodiscard]] std::string to_chrome_json() const;
  /// Writes to_chrome_json() to `path`; false (with a warning logged)
  /// on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  /// Microseconds on the steady clock since the process trace epoch.
  [[nodiscard]] static std::int64_t now_us() noexcept;

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  Buffer& local_buffer();

  static std::atomic<TraceRecorder*> g_installed;

  const std::uint64_t id_;  ///< process-unique, never reused
  const std::size_t max_events_per_thread_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> warned_dropped_{false};
};

/// RAII span: captures the installed recorder at construction and
/// reports (name, category, start, duration) at destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "pandarus",
                      std::int64_t arg = TraceRecorder::kNoArg) noexcept
      : recorder_(TraceRecorder::installed()),
        name_(name),
        category_(category),
        arg_(arg) {
    if (recorder_ != nullptr) start_us_ = TraceRecorder::now_us();
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->record(name_, category_, start_us_,
                        TraceRecorder::now_us() - start_us_, arg_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* name_;
  const char* category_;
  std::int64_t arg_;
  std::int64_t start_us_ = 0;
};

}  // namespace pandarus::obs
