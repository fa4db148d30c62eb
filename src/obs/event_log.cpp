#include "obs/event_log.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/colstore.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace pandarus::obs {
namespace {

std::uint64_t next_log_id() noexcept {
  // Ids start at 1 so the thread-local cache's 0 means "no log".
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// With the write-delay hook armed the NDJSON file is written in blocks
/// this size, so one drain spans many kill opportunities.
constexpr std::size_t kWriteBlock = 4096;

/// Writes `text` and flushes it: whole, or with `delay_us` > 0 in
/// kWriteBlock pieces, each flushed and followed by that pause.  False
/// at the first short write or failed flush.
bool write_flushed(std::FILE* f, std::string_view text, int delay_us) {
  const std::size_t block = delay_us > 0 ? kWriteBlock : text.size();
  for (std::size_t off = 0; off < text.size(); off += block) {
    const std::size_t want = std::min(block, text.size() - off);
    if (std::fwrite(text.data() + off, 1, want, f) != want ||
        std::fflush(f) != 0) {
      return false;
    }
    if (delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
  }
  return true;
}

}  // namespace

bool parse_fsync_policy(std::string_view spec, FsyncConfig& out) {
  if (spec == "off") {
    out = FsyncConfig{};
    return true;
  }
  if (spec == "flush") {
    out = FsyncConfig{FsyncPolicy::kFlush, 0};
    return true;
  }
  constexpr std::string_view kPrefix = "interval:";
  if (spec.substr(0, kPrefix.size()) == kPrefix) {
    const std::string_view ms = spec.substr(kPrefix.size());
    int value = 0;
    const auto [ptr, ec] =
        std::from_chars(ms.data(), ms.data() + ms.size(), value);
    if (ec == std::errc() && ptr == ms.data() + ms.size() && value > 0) {
      out = FsyncConfig{FsyncPolicy::kInterval, value};
      return true;
    }
  }
  return false;
}

void export_event_log_metrics() {
  EventLog* log = EventLog::installed();
  if (log == nullptr) return;
  Registry& registry = Registry::global();
  registry
      .gauge("pandarus_events_written",
             "Events accepted into the installed log")
      .set(static_cast<std::int64_t>(log->events_written()));
  registry
      .gauge("pandarus_events_dropped",
             "Events past the max_events bound (silently missing)")
      .set(static_cast<std::int64_t>(log->dropped()));
  registry
      .gauge("pandarus_events_bytes_written",
             "NDJSON bytes the accepted events serialize to")
      .set(static_cast<std::int64_t>(log->bytes_written()));
  registry
      .gauge("pandarus_events_io_errors",
             "Short writes / failed fsyncs seen by any sink path")
      .set(static_cast<std::int64_t>(log->io_errors()));
  registry
      .gauge("pandarus_events_fsyncs",
             "Successful fsyncs issued under the active policy")
      .set(static_cast<std::int64_t>(log->fsyncs()));
  registry
      .gauge("pandarus_events_watermark",
             "Publication watermark of the installed log")
      .set(static_cast<std::int64_t>(log->watermark()));
}

namespace detail {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_json_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace detail

namespace {
using detail::append_json_double;
using detail::append_json_escaped;
}  // namespace

// --- Event ------------------------------------------------------------------

Event::Event(std::string_view kind, std::int64_t ts, std::int64_t entity) {
  line_.reserve(96);
  line_ += "{\"ts\":";
  line_ += std::to_string(ts);
  line_ += ",\"kind\":\"";
  append_json_escaped(line_, kind);
  line_ += "\",\"entity\":";
  line_ += std::to_string(entity);
}

Event::Event(std::string_view kind, std::int64_t ts, std::string_view entity) {
  line_.reserve(96);
  line_ += "{\"ts\":";
  line_ += std::to_string(ts);
  line_ += ",\"kind\":\"";
  append_json_escaped(line_, kind);
  line_ += "\",\"entity\":\"";
  append_json_escaped(line_, entity);
  line_ += '"';
}

void Event::append_key(std::string_view key) {
  line_ += ",\"";
  append_json_escaped(line_, key);
  line_ += "\":";
}

Event&& Event::field(std::string_view key, std::int64_t v) && {
  append_key(key);
  line_ += std::to_string(v);
  return std::move(*this);
}

Event&& Event::field(std::string_view key, std::uint64_t v) && {
  append_key(key);
  line_ += std::to_string(v);
  return std::move(*this);
}

Event&& Event::field(std::string_view key, std::int32_t v) && {
  return std::move(*this).field(key, static_cast<std::int64_t>(v));
}

Event&& Event::field(std::string_view key, std::uint32_t v) && {
  return std::move(*this).field(key, static_cast<std::uint64_t>(v));
}

Event&& Event::field(std::string_view key, double v) && {
  append_key(key);
  append_json_double(line_, v);
  return std::move(*this);
}

Event&& Event::field(std::string_view key, bool v) && {
  append_key(key);
  line_ += v ? "true" : "false";
  return std::move(*this);
}

Event&& Event::field(std::string_view key, std::string_view v) && {
  append_key(key);
  line_ += '"';
  append_json_escaped(line_, v);
  line_ += '"';
  return std::move(*this);
}

Event&& Event::field(std::string_view key, const char* v) && {
  return std::move(*this).field(key, std::string_view(v));
}

// --- EventLog ---------------------------------------------------------------

std::atomic<EventLog*> EventLog::g_installed{nullptr};

EventLog::EventLog(std::size_t max_events)
    : EventLog(EventSinks{}, max_events) {}

EventLog::EventLog(const EventSinks& sinks, std::size_t max_events)
    : id_(next_log_id()), max_events_(max_events), sinks_(sinks) {
  if (!sinks_.ndjson_path.empty()) {
    ndjson_file_ = std::fopen(sinks_.ndjson_path.c_str(), "w");
    if (ndjson_file_ == nullptr) {
      sink_failed(sinks_.ndjson_path, "cannot open for writing");
    }
  }
  if (!sinks_.colstore_path.empty()) {
    ColWriterOptions options;
    options.fsync_on_close = sinks_.fsync.policy != FsyncPolicy::kOff;
    col_writer_ = std::make_unique<ColWriter>(sinks_.colstore_path, options);
    // The file header goes out now: from the first moment a reader or a
    // crash can see the file, it is a valid (empty) colstore.
    if (!col_writer_->flush(false)) {
      sink_failed(sinks_.colstore_path, col_writer_->error());
      col_writer_.reset();
    }
  }
}

EventLog::~EventLog() {
  uninstall();
  std::scoped_lock lock(mutex_);
  close_sinks_locked();
}

void EventLog::install() noexcept {
  g_installed.store(this, std::memory_order_release);
}

void EventLog::uninstall() noexcept {
  EventLog* self = this;
  g_installed.compare_exchange_strong(self, nullptr,
                                      std::memory_order_acq_rel);
}

EventLog::Buffer& EventLog::local_buffer() {
  // Cache keyed on the log's process-unique id: a stale cache from a
  // destroyed log can never collide with a live one.
  static thread_local std::uint64_t t_owner_id = 0;
  static thread_local Buffer* t_buffer = nullptr;
  if (t_owner_id != id_) {
    std::scoped_lock lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    t_buffer = buffers_.back().get();
    t_owner_id = id_;
  }
  return *t_buffer;
}

std::size_t EventLog::stage(Event event) {
  event.line_ += '}';
  const std::size_t size = event.line_.size();
  Buffer& buffer = local_buffer();
  buffer.staged.push_back(
      {next_seq_.fetch_add(1, std::memory_order_relaxed),
       std::move(event.line_)});
  if (buffer.staged.size() >= kDrainBatch) {
    std::scoped_lock lock(mutex_);
    drain_locked(buffer);
  }
  return size;
}

void EventLog::emit(Event event) {
  if (accepted_.fetch_add(1, std::memory_order_relaxed) >= max_events_) {
    accepted_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (!warned_dropped_.exchange(true, std::memory_order_relaxed)) {
      util::log_line(util::LogLevel::kWarning,
                     "obs: event log full, dropping events (raise "
                     "max_events)");
    }
    return;
  }
  bytes_.fetch_add(stage(std::move(event)) + 1, std::memory_order_relaxed);
}

void EventLog::emit_sideband(Event event) { stage(std::move(event)); }

void EventLog::publish_locked(std::uint64_t seq, std::string text) {
  if (seq != drained_.size()) {
    ahead_.emplace(seq, std::move(text));
    return;
  }
  drained_.push_back(std::move(text));
  // This line may have closed the gap below lines held in ahead_.
  for (auto it = ahead_.begin();
       it != ahead_.end() && it->first == drained_.size();
       it = ahead_.erase(it)) {
    drained_.push_back(std::move(it->second));
  }
}

void EventLog::drain_locked(Buffer& buffer) {
  const std::size_t from = drained_.size();
  for (Line& line : buffer.staged) {
    publish_locked(line.seq, std::move(line.text));
  }
  buffer.staged.clear();
  // Lines of other threads held in ahead_ may have joined too; each line
  // reaches the files exactly once, in the drain that publishes it.
  if (drained_.size() > from) write_sinks_locked(from);
}

std::uint64_t EventLog::publish() {
  Buffer& buffer = local_buffer();
  std::scoped_lock lock(mutex_);
  drain_locked(buffer);
  return drained_.size();
}

std::uint64_t EventLog::watermark() const {
  std::scoped_lock lock(mutex_);
  return drained_.size();
}

void EventLog::append_published_locked(std::string& out,
                                       std::size_t from) const {
  const auto first = drained_.begin() + static_cast<std::ptrdiff_t>(from);
  std::size_t total = 0;
  for (auto it = first; it != drained_.end(); ++it) total += it->size() + 1;
  out.reserve(out.size() + total);
  for (auto it = first; it != drained_.end(); ++it) {
    out += *it;
    out += '\n';
  }
}

std::uint64_t EventLog::snapshot_ndjson(std::string& out,
                                        std::uint64_t from_seq) const {
  std::scoped_lock lock(mutex_);
  const std::uint64_t watermark = drained_.size();
  if (from_seq < watermark) append_published_locked(out, from_seq);
  return watermark;
}

void EventLog::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Snapshot first: the stats line describes the stream before itself.
  const std::uint64_t events = events_written();
  const std::uint64_t drops = dropped();
  const std::uint64_t bytes = bytes_written();
  // The terminal line must survive max_events truncation (that is the
  // condition it exists to report), so it bypasses emit()'s bound.
  // io_errors/fsyncs make sink trouble (full disk, failed fsync)
  // visible in replay; both are 0 in the default configuration,
  // keeping byte-identity across runs.
  accepted_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(stage(Event("log_stats", 0, std::int64_t{0})
                             .field("events", events)
                             .field("dropped", drops)
                             .field("bytes", bytes)
                             .field("io_errors", io_errors())
                             .field("fsyncs", fsyncs())) +
                       1,
                   std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  // Emitters have quiesced (close's contract), so every remaining
  // staged line can be drained here — the publication watermark then
  // covers the whole stream, and so do the files.
  for (const auto& buffer : buffers_) drain_locked(*buffer);
  close_sinks_locked();
}

std::size_t EventLog::event_count() const {
  std::scoped_lock lock(mutex_);
  std::size_t n = drained_.size() + ahead_.size();
  for (const auto& buffer : buffers_) n += buffer->staged.size();
  return n;
}

std::string EventLog::to_ndjson() const {
  std::scoped_lock lock(mutex_);
  // Only the unpublished tail — lines held above a gap or still staged
  // — needs ordering.
  std::vector<std::pair<std::uint64_t, const std::string*>> tail;
  for (const auto& [seq, text] : ahead_) tail.emplace_back(seq, &text);
  for (const auto& buffer : buffers_) {
    for (const Line& l : buffer->staged) tail.emplace_back(l.seq, &l.text);
  }
  std::sort(tail.begin(), tail.end());
  std::string out;
  append_published_locked(out, 0);
  for (const auto& [seq, text] : tail) {
    out += *text;
    out += '\n';
  }
  return out;
}

// --- sink files -------------------------------------------------------------

void EventLog::sink_failed(const std::string& path, const std::string& what) {
  io_errors_.fetch_add(1, std::memory_order_relaxed);
  util::log_line(util::LogLevel::kWarning,
                 "obs: event sink " + path + " stopped: " + what);
}

bool EventLog::fsync_due() {
  switch (sinks_.fsync.policy) {
    case FsyncPolicy::kOff:
      return false;
    case FsyncPolicy::kFlush:
      return true;
    case FsyncPolicy::kInterval:
      break;
  }
  const auto now = std::chrono::steady_clock::now();
  if (now - last_fsync_ < std::chrono::milliseconds(sinks_.fsync.interval_ms)) {
    return false;
  }
  last_fsync_ = now;
  return true;
}

bool EventLog::fsync_file(std::FILE* f) {
  if (::fsync(fileno(f)) != 0) return false;
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void EventLog::write_sinks_locked(std::size_t from) {
  if (ndjson_file_ == nullptr && col_writer_ == nullptr) return;
  const bool durable = fsync_due();
  if (ndjson_file_ != nullptr) {
    std::string text;
    append_published_locked(text, from);
    if (!write_flushed(ndjson_file_, text, sinks_.write_delay_us) ||
        (durable && !fsync_file(ndjson_file_))) {
      sink_failed(sinks_.ndjson_path, "write, flush or fsync failed");
      std::fclose(ndjson_file_);
      ndjson_file_ = nullptr;
    }
  }
  if (col_writer_ != nullptr) {
    for (std::size_t i = from; i < drained_.size(); ++i) {
      col_writer_->append_ndjson_line(drained_[i]);
    }
    // flush() pushes out every chunk append() completed above.
    if (col_writer_->flush(durable)) {
      if (durable) fsyncs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      sink_failed(sinks_.colstore_path, col_writer_->error());
      col_writer_.reset();
    }
  }
}

void EventLog::close_sinks_locked() {
  const bool durable = sinks_.fsync.policy != FsyncPolicy::kOff;
  if (ndjson_file_ != nullptr) {
    const bool synced = std::fflush(ndjson_file_) == 0 &&
                        (!durable || fsync_file(ndjson_file_));
    if (std::fclose(ndjson_file_) != 0 || !synced) {
      sink_failed(sinks_.ndjson_path, "flush, fsync or close failed");
    }
    ndjson_file_ = nullptr;
  }
  if (col_writer_ != nullptr) {
    // close() encodes the tail chunk, then flushes, fsyncs when
    // `durable` (fsync_on_close) and closes.
    if (!col_writer_->close()) {
      sink_failed(sinks_.colstore_path, col_writer_->error());
    } else if (durable) {
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
    if (col_writer_->stats().rejected != 0) {
      util::log_line(util::LogLevel::kWarning,
                     "obs: colstore sink rejected " +
                         std::to_string(col_writer_->stats().rejected) +
                         " event line(s)");
    }
    col_writer_.reset();
  }
}

}  // namespace pandarus::obs
