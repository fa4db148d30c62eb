// Structured event log: the durable, per-entity record stream the paper
// itself analyzes (its whole method runs off job/transfer records
// harvested into OpenSearch and reassembled offline).
//
// Events are typed NDJSON lines — one JSON object per line with `ts`
// (simulated milliseconds), `kind`, `entity`, and kind-specific fields —
// built with the Event builder and appended to per-thread staging
// buffers.  A full staging buffer drains under the log's mutex into one
// central sink (many producers, one consumer at serialization time),
// and the whole stream is bounded by `max_events`; overflow is counted,
// never blocking.
//
// File sinks (EventSinks: an NDJSON file, a colstore file, or both) are
// fixed at construction and written on that same drain: a line goes to
// every open file the moment it joins the published prefix, on the
// draining thread and under the mutex that already orders lines.  This
// is the only write path; close() appends the log_stats line, drains
// what is left, and flushes, fsyncs and closes the files.
//
// The disabled path follows the same cost discipline as ScopedSpan:
// when no EventLog is installed, an emit site is one relaxed-ish atomic
// load (EventLog::installed()) and nothing else — no clock reads, no
// string building.  Guard every emit site with
//
//   if (obs::EventLog* log = obs::EventLog::installed()) {
//     log->emit(obs::Event("transfer_submit", now, id)
//                   .field("src", src)
//                   .field("bytes", bytes));
//   }
//
// Events carry simulated time only, so two runs of the same seeded
// campaign produce byte-identical NDJSON whether or not a TraceRecorder
// (wall-clock tracing) is also installed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pandarus::obs {

namespace detail {
/// JSON string escaping exactly as the Event builder renders it; shared
/// with the colstore re-renderer so both sinks produce identical bytes.
void append_json_escaped(std::string& out, std::string_view s);
/// Finite, round-trippable double rendering (%.17g; non-finite → 0).
void append_json_double(std::string& out, double v);
}  // namespace detail

/// Durability level for the file sinks (the PANDARUS_EVENTS_FSYNC
/// knob).  kOff is the default and issues no fsync; kFlush fsyncs after
/// every drain that reaches the files; kInterval fsyncs at most once per
/// `interval_ms` of wall time.  Both fsync once more at close().
enum class FsyncPolicy { kOff, kFlush, kInterval };

struct FsyncConfig {
  FsyncPolicy policy = FsyncPolicy::kOff;
  int interval_ms = 0;  ///< kInterval only
};

/// Parses "off" | "flush" | "interval:<ms>" (case-sensitive); false on
/// a malformed spec, leaving `out` unchanged.
bool parse_fsync_policy(std::string_view spec, FsyncConfig& out);

/// The files an EventLog writes its stream to (PANDARUS_EVENTS and
/// PANDARUS_EVENTS_COL).  Given at construction, so each file holds the
/// stream from its first line.
struct EventSinks {
  std::string ndjson_path;    ///< empty: no NDJSON file
  std::string colstore_path;  ///< empty: no colstore file
  FsyncConfig fsync;
  /// Crash-injection hook (PANDARUS_EVENTS_WRITE_DELAY_US): the NDJSON
  /// file is written in 4 KiB blocks with this pause after each, so the
  /// file sits torn mid-line long enough for a SIGKILL to land there.
  /// Zero or less disables.
  int write_delay_us = 0;
};

/// Mirrors the installed log's durability counters (events written /
/// dropped / bytes, io_errors, fsyncs, watermark) into
/// `pandarus_events_*` registry gauges so /metrics scrapes and metric
/// dumps carry them; no-op without an installed log.  Gauges never
/// touch the event stream, so this is determinism-neutral.
void export_event_log_metrics();

/// Builder for one event line.  The constructor writes the common
/// prefix (`ts`, `kind`, `entity`); field() appends one key/value pair
/// per call.  Strings are JSON-escaped; doubles are rendered finite and
/// round-trippable (like the metrics exporters).
class Event {
 public:
  Event(std::string_view kind, std::int64_t ts, std::int64_t entity);
  Event(std::string_view kind, std::int64_t ts, std::string_view entity);

  Event&& field(std::string_view key, std::int64_t v) &&;
  Event&& field(std::string_view key, std::uint64_t v) &&;
  Event&& field(std::string_view key, std::int32_t v) &&;
  Event&& field(std::string_view key, std::uint32_t v) &&;
  Event&& field(std::string_view key, double v) &&;
  Event&& field(std::string_view key, bool v) &&;
  Event&& field(std::string_view key, std::string_view v) &&;
  Event&& field(std::string_view key, const char* v) &&;

 private:
  friend class EventLog;
  void append_key(std::string_view key);
  std::string line_;  ///< open JSON object; emit() appends the '}'
};

class ColWriter;

/// Collects events from any thread; install at most one log at a time.
/// The log must outlive every thread that observed it as installed, and
/// to_ndjson() is only safe once emitters have quiesced (same contract
/// as TraceRecorder).
class EventLog {
 public:
  static constexpr std::size_t kDefaultMaxEvents = std::size_t{1} << 22;

  /// `max_events` bounds the whole stream across all threads; events
  /// past the bound are counted as dropped (warned once).
  explicit EventLog(std::size_t max_events = kDefaultMaxEvents);
  /// Same, writing the stream to `sinks` as it is published.  A path
  /// that cannot be opened counts as an io_error (warned) and the log
  /// runs without that file.
  explicit EventLog(const EventSinks& sinks,
                    std::size_t max_events = kDefaultMaxEvents);
  /// Closes the files without appending log_stats (see close()).
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Makes this the process-wide log emit sites report to.
  void install() noexcept;
  /// Stops recording (no-op if another log was installed since).
  void uninstall() noexcept;
  [[nodiscard]] static EventLog* installed() noexcept {
    return g_installed.load(std::memory_order_acquire);
  }

  /// Finalizes the event's line and appends it to this thread's staging
  /// buffer (draining to the central sink when the buffer fills).
  void emit(Event event);

  /// Sideband emit: the line rides the stream (same ordering, same
  /// sinks) but bypasses the max_events bound and the accepted/bytes
  /// accounting, exactly like the terminal log_stats line.  Used for
  /// derived annotations (HealthEngine `alert` events) so a run with
  /// them armed keeps every self-describing counter — including the
  /// log_stats line itself — byte-identical to a run without.
  void emit_sideband(Event event);

  /// Finalizes the stream: appends one terminal `log_stats` event
  /// (events written, dropped, bytes — describing the stream *before*
  /// this line) so silent max_events truncation is visible in replay
  /// and reports.  The stats line bypasses the max_events bound.
  /// Also drains every staging buffer into the central sink (emitters
  /// have quiesced by contract), so the publication watermark reaches
  /// the end of the stream, then flushes, fsyncs (per policy) and
  /// closes the sink files.  Idempotent; call once emitters have
  /// quiesced.
  void close();
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  // --- snapshot isolation ---------------------------------------------------
  // Concurrent readers (obs::serve) must never touch staging buffers —
  // those are owned by their emitting threads.  Instead they read the
  // *published prefix*: the set of lines whose sequence numbers form a
  // contiguous range [0, watermark()) inside the central sink.  Owning
  // threads move their staged lines into the sink by filling a batch
  // (kDrainBatch) or by calling publish() at a quiescent point (the
  // campaign loop publishes at every simulated-day boundary and after
  // the harvest).  A reader holding a watermark therefore sees a
  // consistent, gap-free prefix of the stream without ever blocking an
  // emitter for more than the sink mutex.

  /// Drains the calling thread's staging buffer into the central sink
  /// and returns the new publication watermark W.  On return the NDJSON
  /// file holds exactly lines [0, W) and the colstore file every chunk
  /// completed within them.  Cheap when the buffer is empty; call from
  /// the emitting thread only.
  std::uint64_t publish();

  /// One past the highest sequence number of the contiguous published
  /// prefix.  Every line with seq < watermark() is in the central sink
  /// and immutable; snapshot readers key their memoization off this.
  [[nodiscard]] std::uint64_t watermark() const;

  /// Appends the published lines with seq in [from_seq, watermark())
  /// to `out` as NDJSON in sequence order and returns the watermark
  /// used as the exclusive bound.  Safe concurrently with emitters —
  /// only the central sink is read — and costs only the returned
  /// slice.  Pass the returned value back as `from_seq` to stream the
  /// log incrementally.
  std::uint64_t snapshot_ndjson(std::string& out,
                                std::uint64_t from_seq = 0) const;

  /// Sink I/O failures: an unopenable path, or a failed write, flush,
  /// fsync or close.  A file stops being written at its first failure,
  /// so it stays a prefix recovery can salvage.  Surfaced in the
  /// terminal log_stats line and by /healthz, so a full disk is visible
  /// instead of silently truncating.
  [[nodiscard]] std::uint64_t io_errors() const noexcept {
    return io_errors_.load(std::memory_order_relaxed);
  }
  /// Successful fsync calls issued under the active FsyncPolicy.
  [[nodiscard]] std::uint64_t fsyncs() const noexcept {
    return fsyncs_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Events accepted into the stream so far (excludes dropped).
  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// NDJSON bytes the accepted events serialize to (incl. newlines).
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// The full stream as NDJSON, lines ordered by emission sequence
  /// (deterministic for single-threaded emitters), '\n' after each line.
  [[nodiscard]] std::string to_ndjson() const;

 private:
  struct Line {
    std::uint64_t seq = 0;
    std::string text;
  };
  struct Buffer {
    std::vector<Line> staged;
  };
  /// Staging buffers drain in batches of this many lines.
  static constexpr std::size_t kDrainBatch = 1024;

  Buffer& local_buffer();
  /// Finalizes `event`'s line and stages it on this thread's buffer,
  /// draining a full batch; returns the line's length without '\n'.
  std::size_t stage(Event event);
  /// Publishes every line staged in `buffer` and writes the newly
  /// published lines to the sinks; mutex_ held.
  void drain_locked(Buffer& buffer);
  /// Appends line `seq` to drained_, or holds it in ahead_ until the
  /// gap below it closes; mutex_ held.
  void publish_locked(std::uint64_t seq, std::string text);
  /// Appends drained_[from, end) to `out`, '\n' after each; mutex_ held.
  void append_published_locked(std::string& out, std::size_t from) const;
  /// Writes drained_[from, end) to every open sink file, then flushes
  /// and fsyncs per policy; mutex_ held.
  void write_sinks_locked(std::size_t from);
  /// Flushes, fsyncs (any policy but kOff) and closes both files;
  /// mutex_ held.
  void close_sinks_locked();
  /// True when this write pass should fsync under the policy.
  bool fsync_due();
  /// fsyncs `f`, counting the outcome in fsyncs_; false on failure.
  bool fsync_file(std::FILE* f);
  /// Counts one sink I/O failure and warns; the caller stops the sink.
  void sink_failed(const std::string& path, const std::string& what);

  static std::atomic<EventLog*> g_installed;

  const std::uint64_t id_;  ///< process-unique, never reused
  const std::size_t max_events_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> io_errors_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<bool> warned_dropped_{false};
  std::atomic<bool> closed_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;

  // Central sink (guarded by mutex_).  drained_ holds exactly the
  // published lines in sequence order — seqs are dense, so index ==
  // seq and the watermark is drained_.size().  A drained line above a
  // gap (another thread still stages a lower seq) waits in ahead_ until
  // the gap closes.
  std::vector<std::string> drained_;
  std::map<std::uint64_t, std::string> ahead_;

  // Sink files (guarded by mutex_).  Null when not configured, and set
  // null at a file's first I/O failure so it is never written again.
  const EventSinks sinks_;
  std::FILE* ndjson_file_ = nullptr;
  std::unique_ptr<ColWriter> col_writer_;
  std::chrono::steady_clock::time_point last_fsync_{};
};

}  // namespace pandarus::obs
