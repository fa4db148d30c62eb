// Structured event log: the durable, per-entity record stream the paper
// itself analyzes (its whole method runs off job/transfer records
// harvested into OpenSearch and reassembled offline).
//
// Events are typed NDJSON lines — one JSON object per line with `ts`
// (simulated milliseconds), `kind`, `entity`, and kind-specific fields —
// built with the Event builder and appended, under the log's mutex, to
// one staging batch that drains into the published stream when it fills
// or at publish().  Lines join the stream in the order they took the
// mutex.  `max_events` can bound the stream (overflow is counted, never
// blocking); by default it is unbounded.
//
// As it renders a line, the builder also records each field's type —
// exactly as util::json::parse would type the rendered bytes — and where
// its key and string value sit in the line (an EventRecord, inline in
// the Event: no heap allocation).  The colstore sink encodes from that
// record and never parses JSON.
//
// File sinks (EventSinks: an NDJSON file, a colstore file, or both) are
// fixed at construction and written on that same drain: a line goes to
// every open file the moment it joins the published prefix, on the
// draining thread and under the mutex that already orders lines.  This
// is the only write path; close() appends the log_stats line, drains
// what is left, and flushes, fsyncs and closes the files.
//
// Memory stays bounded on a log with a file sink: once the sinks have
// written a line and every registered EventLog::Reader has read past
// it, the line is freed.  A log without a file sink keeps every line,
// so to_ndjson() can return the whole stream; on a log that has freed
// lines to_ndjson() throws instead of returning a suffix.
//
// A campaign reports to the log in its obs::Session (obs/session.hpp).
// The disabled path costs one pointer load from the scheduler's session
// and nothing else — no clock reads, no string building.  Guard every
// emit site with
//
//   if (obs::EventLog* log = scheduler_.session().events) {
//     log->emit(obs::Event("transfer_submit", now, id)
//                   .field("src", src)
//                   .field("bytes", bytes));
//   }
//
// Events carry simulated time only, so two runs of the same seeded
// campaign produce byte-identical NDJSON whether or not a TraceRecorder
// (wall-clock tracing) is also installed.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
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
  /// Crash-injection hook (examples/crash_harness): the NDJSON file is
  /// written in 4 KiB blocks with this pause after each, so the file
  /// sits torn mid-line long enough for a SIGKILL to land there.  Zero
  /// or less disables.
  int write_delay_us = 0;
};

class EventLog;

/// Mirrors `log`'s durability counters (events written / dropped /
/// bytes, io_errors, fsyncs, watermark, resident lines) into
/// `pandarus_events_*` registry gauges so /metrics scrapes and metric
/// dumps carry them; no-op when `log` is null.  Gauges never touch the
/// event stream, so this is determinism-neutral.
void export_event_log_metrics(const EventLog* log);

/// A value's type as util::json::parse reads it back from its rendered
/// bytes — and so the colstore column it lands in.
enum class FieldType : std::uint8_t {
  kInt = 0,
  kDouble = 1,
  kBool = 2,
  kString = 3,
  kNull = 4,
};

/// One `"key":value` member of an event, typed exactly as
/// util::json::parse types its rendered bytes.  The key, and a string
/// value, are byte spans of the text the record was taken from.  No
/// default member initializers: an EventRecord's unused slots stay
/// untouched, so building an Event never zeroes them.
struct FieldRecord {
  std::uint32_t key_pos;
  std::uint32_t key_len;
  /// kInt: the value; kDouble: its IEEE-754 bits; kBool: 0 or 1;
  /// kString: the span, pos << 32 | len.
  std::uint64_t value;
  FieldType type;
  bool key_escaped;    ///< the key span holds JSON-escaped bytes
  bool value_escaped;  ///< so does the string value span

  /// A kString value's span, as stored in `value`.
  static constexpr std::uint64_t pack_span(std::uint64_t pos,
                                           std::uint64_t len) noexcept {
    return pos << 32 | len;
  }
};

/// What the colstore encoder needs from one event: the three core
/// values and the fields in line order.  The Event builder fills it as
/// it renders the line; ColWriter::append_ndjson_line builds the same
/// FieldRecords from a parsed line.
struct EventRecord {
  static constexpr std::size_t kInlineFields = 32;

  EventRecord() noexcept : ts{}, kind{}, entity{} {}  // fields[] unwritten
  /// Copies the core values and the used fields only.
  EventRecord(const EventRecord& other) noexcept;
  EventRecord& operator=(const EventRecord& other) noexcept;

  FieldRecord ts;
  FieldRecord kind;
  FieldRecord entity;
  std::uint32_t field_count = 0;
  /// False when the event outgrew the record (more than kInlineFields
  /// fields, or a line past 4 GiB): the record no longer describes the
  /// line, and the colstore sink encodes that line by parsing it.
  bool complete = true;
  std::array<FieldRecord, kInlineFields> fields;
};

/// Builder for one event line.  The constructor writes the common
/// prefix (`ts`, `kind`, `entity`); field() appends one key/value pair
/// per call.  Strings are JSON-escaped; doubles are rendered finite and
/// round-trippable (like the metrics exporters).  Each call also fills
/// the event's EventRecord.
class Event {
 public:
  Event(std::string_view kind, std::int64_t ts, std::int64_t entity);
  Event(std::string_view kind, std::int64_t ts, std::string_view entity);

  Event&& field(std::string_view key, std::int64_t v) &&;
  /// Above INT64_MAX the rendered digits read back as a double, and the
  /// record types the value so.
  Event&& field(std::string_view key, std::uint64_t v) &&;
  Event&& field(std::string_view key, std::int32_t v) &&;
  Event&& field(std::string_view key, std::uint32_t v) &&;
  /// An integral rendering (`3`, `-0`, or `0` for a non-finite value)
  /// reads back as an int, and the record types the value so.
  Event&& field(std::string_view key, double v) &&;
  Event&& field(std::string_view key, bool v) &&;
  Event&& field(std::string_view key, std::string_view v) &&;
  Event&& field(std::string_view key, const char* v) &&;

 private:
  friend class EventLog;
  /// Appends `,"key":` and returns the record slot for the value, or
  /// null once the record is full (it is then marked incomplete).
  FieldRecord* append_key(std::string_view key);
  /// Appends `s` JSON-escaped and returns its span as a kString record.
  FieldRecord append_string(std::string_view s);
  /// Appends the decimal digits of `v`.
  template <typename Int>
  void append_int(Int v);

  std::string line_;  ///< open JSON object; emit() appends the '}'
  EventRecord record_;
};

class ColWriter;

/// Collects events from any thread.  Every member is safe to call from
/// any thread at any time: emits from two threads are serialised by the
/// log's mutex.  The log must outlive every thread that uses it.
class EventLog {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();
  /// Staging buffers drain in batches of this many lines.
  static constexpr std::size_t kDrainBatch = 1024;

  /// `max_events` bounds the whole stream across all threads; events
  /// past the bound are counted as dropped (warned once).
  explicit EventLog(std::size_t max_events = kUnbounded);
  /// Same, writing the stream to `sinks` as it is published.  A path
  /// that cannot be opened counts as an io_error (warned) and the log
  /// runs without that file.  Lines are freed once written (see Reader).
  explicit EventLog(const EventSinks& sinks,
                    std::size_t max_events = kUnbounded);
  /// Closes the files without appending log_stats (see close()), and
  /// detaches any reader still registered.
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Finalizes the event's line and appends it to the staging batch
  /// (publishing the batch when it fills).
  void emit(Event&& event);

  /// Sideband emit: the line rides the stream (same ordering, same
  /// sinks) but bypasses the max_events bound and the accepted/bytes
  /// accounting, exactly like the terminal log_stats line.  Used for
  /// derived annotations (HealthEngine `alert` events) so a run with
  /// them armed keeps every self-describing counter — including the
  /// log_stats line itself — byte-identical to a run without.
  void emit_sideband(Event&& event);

  /// Finalizes the stream: appends one terminal `log_stats` event
  /// (events written, dropped, bytes — describing the stream *before*
  /// this line) so max_events truncation is visible in replay and
  /// reports.  The stats line bypasses the max_events bound.  Then
  /// publishes the staging batch, so the watermark reaches the end of
  /// the stream, and flushes, fsyncs (per policy) and closes the sink
  /// files.  Idempotent.  Lines emitted after close() reach no file.
  void close();
  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }

  // --- snapshot isolation ---------------------------------------------------
  // Concurrent readers (the live /api cache of obs::serve) read the *published
  // prefix*: lines [0, watermark()) of the stream, already written to
  // the sinks.  Staged lines join it when the batch fills (kDrainBatch)
  // or at publish() (the campaign loop publishes at every simulated-day
  // boundary and after the harvest).  A Reader therefore sees a
  // consistent prefix of the stream without ever blocking an emitter
  // for more than the log's mutex.

  /// A registered cursor over the published stream: it sees every line
  /// published from its registration on.  While it is registered, the
  /// log keeps every line from its position on, so read() never misses
  /// one; reading past lines lets the log free them.  Not thread-safe
  /// itself (one owner reads it); the log must outlive its reads.
  class Reader {
   public:
    explicit Reader(EventLog& log);
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    /// Appends the lines published since the last read (or since
    /// registration) to `out` as NDJSON in stream order and returns the
    /// new position — the watermark at the call.  Safe concurrently with
    /// emitters.
    std::uint64_t read(std::string& out);
    /// Stream index of the next line read() returns.
    [[nodiscard]] std::uint64_t position() const noexcept {
      return position_;
    }

   private:
    friend class EventLog;
    EventLog* log_;
    std::uint64_t position_;  ///< written under log_->mutex_
  };

  /// Publishes the staging batch and returns the new watermark W: every
  /// line emitted before the call, from any thread, is below W.  On
  /// return the NDJSON file holds exactly lines [0, W) and the colstore
  /// file every chunk completed within them.  Cheap when nothing is
  /// staged.
  std::uint64_t publish();

  /// Length of the published prefix.  Every line below watermark() has
  /// been written to the sinks and is immutable; snapshot readers key
  /// their memoization off this.
  [[nodiscard]] std::uint64_t watermark() const;

  /// Sink I/O failures: an unopenable path, or a failed write, flush,
  /// fsync or close.  A file stops being written at its first failure,
  /// so it stays a prefix recovery can salvage.  Surfaced in the
  /// terminal log_stats line and by /healthz, so a full disk is visible
  /// instead of silently truncating.
  [[nodiscard]] std::uint64_t io_errors() const noexcept {
    return io_errors_.load(std::memory_order_relaxed);
  }
  /// The sinks given at construction (scenario::resume_campaign checks
  /// salvaged files against these).
  [[nodiscard]] const EventSinks& sinks() const noexcept { return sinks_; }
  /// Successful fsync calls issued under the active FsyncPolicy.
  [[nodiscard]] std::uint64_t fsyncs() const noexcept {
    return fsyncs_.load(std::memory_order_relaxed);
  }

  /// Lines in the stream so far: published or staged.
  [[nodiscard]] std::size_t event_count() const;
  /// Lines held in memory: published lines a reader still needs (every
  /// published line on a log without a file sink), plus staged lines.
  [[nodiscard]] std::size_t resident_lines() const;
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

  /// The full stream as NDJSON, published lines then staged ones, in
  /// stream order (deterministic for single-threaded emitters), '\n'
  /// after each line.
  /// Throws std::logic_error on a log that has freed lines (a log with a
  /// file sink, once its sinks have written them): read the file back,
  /// or record into a log without a file sink.
  [[nodiscard]] std::string to_ndjson() const;

 private:
  struct Line {
    Line() noexcept {}  // user-provided: emplace_back() must not zero record
    std::string text;
    EventRecord record;
  };

  /// Finalizes `event`'s line and stages it, draining a full batch;
  /// returns the line's length without '\n'.
  std::size_t stage(Event& event);
  /// Publishes every staged line, writes the newly published lines to
  /// the sinks, then frees what no reader needs; mutex_ held.
  void drain_locked();
  /// Writes the lines published since the last call to the NDJSON file,
  /// flushes the colstore, and fsyncs per policy; mutex_ held.
  void flush_sinks_locked();
  /// Appends retained_ lines [from, watermark_) to `out`, '\n' after
  /// each; mutex_ held.
  void append_retained_locked(std::string& out, std::uint64_t from) const;
  /// Frees the retained lines below every reader's position (all of
  /// them when no reader is registered) on a log with a file sink;
  /// mutex_ held.
  void release_locked();
  /// Flushes, fsyncs (any policy but kOff) and closes both files;
  /// mutex_ held.
  void close_sinks_locked();
  /// True when this write pass should fsync under the policy.
  bool fsync_due();
  /// fsyncs `f`, counting the outcome in fsyncs_; false on failure.
  bool fsync_file(std::FILE* f);
  /// Counts one sink I/O failure and warns; the caller stops the sink.
  void sink_failed(const std::string& path, const std::string& what);

  const std::size_t max_events_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> io_errors_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<bool> warned_dropped_{false};
  std::atomic<bool> closed_{false};
  mutable std::mutex mutex_;

  // The stream (guarded by mutex_).  watermark_ counts the published
  // lines; retained_ holds the published lines
  // [watermark_ - retained_.size(), watermark_) still in memory, and
  // staged_ the lines after them, in stream order.
  std::uint64_t watermark_ = 0;
  std::deque<std::string> retained_;
  std::vector<Line> staged_;
  std::vector<Reader*> readers_;
  /// A file sink was configured: lines are freed once written and read.
  const bool frees_lines_;
  /// A colstore sink was configured: staged lines carry their records.
  const bool encodes_records_;
  bool freed_ = false;  ///< some line has been freed

  // Sink files (guarded by mutex_).  Null when not configured, and set
  // null at a file's first I/O failure so it is never written again.
  const EventSinks sinks_;
  std::FILE* ndjson_file_ = nullptr;
  std::string ndjson_pending_;  ///< published lines not yet written
  std::unique_ptr<ColWriter> col_writer_;
  std::chrono::steady_clock::time_point last_fsync_{};
};

}  // namespace pandarus::obs
