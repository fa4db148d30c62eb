#include "obs/event_log.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace pandarus::obs {
namespace {

std::uint64_t next_log_id() noexcept {
  // Ids start at 1 so the thread-local cache's 0 means "no log".
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The flush thread writes in blocks this size so the crash harness's
/// write-delay hook can stretch a flush across many kill opportunities.
constexpr std::size_t kFlushBlock = 4096;

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
    : id_(next_log_id()), max_events_(max_events) {}

EventLog::~EventLog() {
  stop_periodic_flush();
  uninstall();
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
  event.line_ += '}';
  bytes_.fetch_add(event.line_.size() + 1, std::memory_order_relaxed);
  Buffer& buffer = local_buffer();
  buffer.staged.push_back(
      {next_seq_.fetch_add(1, std::memory_order_relaxed),
       std::move(event.line_)});
  if (buffer.staged.size() >= kDrainBatch) {
    std::scoped_lock lock(mutex_);
    drain_locked(buffer);
  }
}

void EventLog::emit_sideband(Event event) {
  event.line_ += '}';
  Buffer& buffer = local_buffer();
  buffer.staged.push_back(
      {next_seq_.fetch_add(1, std::memory_order_relaxed),
       std::move(event.line_)});
  if (buffer.staged.size() >= kDrainBatch) {
    std::scoped_lock lock(mutex_);
    drain_locked(buffer);
  }
}

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
  for (Line& line : buffer.staged) {
    publish_locked(line.seq, std::move(line.text));
  }
  buffer.staged.clear();
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

std::uint64_t EventLog::snapshot_ndjson(std::string& out,
                                        std::uint64_t from_seq) const {
  std::scoped_lock lock(mutex_);
  const std::uint64_t watermark = drained_.size();
  if (from_seq >= watermark) return watermark;
  const auto first =
      drained_.begin() + static_cast<std::ptrdiff_t>(from_seq);
  std::size_t total = 0;
  for (auto it = first; it != drained_.end(); ++it) total += it->size() + 1;
  out.reserve(out.size() + total);
  for (auto it = first; it != drained_.end(); ++it) {
    out += *it;
    out += '\n';
  }
  return watermark;
}

void EventLog::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  // Snapshot first: the stats line describes the stream before itself.
  const std::uint64_t events = events_written();
  const std::uint64_t drops = dropped();
  const std::uint64_t bytes = bytes_written();
  // The terminal line must survive max_events truncation (that is the
  // condition it exists to report), so it bypasses emit()'s bound and
  // goes straight into the central sink.  io_errors/fsyncs make sink
  // trouble (full disk, failed fsync) visible in replay; both are 0 in
  // the default configuration, keeping byte-identity across runs.
  Event event = Event("log_stats", 0, std::int64_t{0})
                    .field("events", events)
                    .field("dropped", drops)
                    .field("bytes", bytes)
                    .field("io_errors", io_errors())
                    .field("fsyncs", fsyncs());
  event.line_ += '}';
  bytes_.fetch_add(event.line_.size() + 1, std::memory_order_relaxed);
  accepted_.fetch_add(1, std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  publish_locked(next_seq_.fetch_add(1, std::memory_order_relaxed),
                 std::move(event.line_));
  // Emitters have quiesced (close's contract), so every remaining
  // staged line can be drained here — the publication watermark then
  // covers the whole stream and snapshot readers see it all.
  for (const auto& buffer : buffers_) drain_locked(*buffer);
}

std::size_t EventLog::event_count() const {
  std::scoped_lock lock(mutex_);
  std::size_t n = drained_.size() + ahead_.size();
  for (const auto& buffer : buffers_) n += buffer->staged.size();
  return n;
}

std::string EventLog::to_ndjson() const {
  std::size_t total = 0;
  for_each_line([&total](std::string_view line) { total += line.size() + 1; });
  std::string out;
  out.reserve(total);
  for_each_line([&out](std::string_view line) {
    out += line;
    out += '\n';
  });
  return out;
}

void EventLog::for_each_line(
    const std::function<void(std::string_view)>& fn) const {
  std::scoped_lock lock(mutex_);
  for (const std::string& line : drained_) fn(line);
  // Only the unpublished tail — lines held above a gap or still staged
  // — needs ordering.
  std::vector<std::pair<std::uint64_t, const std::string*>> tail;
  for (const auto& [seq, text] : ahead_) tail.emplace_back(seq, &text);
  for (const auto& buffer : buffers_) {
    for (const Line& l : buffer->staged) tail.emplace_back(l.seq, &l.text);
  }
  std::sort(tail.begin(), tail.end());
  for (const auto& [seq, text] : tail) fn(*text);
}

bool EventLog::start_periodic_flush(const std::string& path,
                                    int interval_ms) {
  if (interval_ms <= 0) return false;
  std::scoped_lock lock(flush_mutex_);
  if (flush_thread_.joinable()) return false;  // already running
  flush_file_ = std::fopen(path.c_str(), "w");
  if (flush_file_ == nullptr) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: cannot open event flush file " + path);
    return false;
  }
  flush_stop_ = false;
  flush_cursor_ = 0;
  flush_thread_ = std::thread([this, interval_ms] { flush_loop(interval_ms); });
  return true;
}

void EventLog::flush_once() {
  // flush_mutex_ held (serializes cursor/file against stop).
  std::string chunk;
  flush_cursor_ = snapshot_ndjson(chunk, flush_cursor_);
  if (chunk.empty()) return;
  // Blockwise so the crash harness's write-delay hook can hold the file
  // in a torn state between blocks; a plain run takes the loop in one
  // or a few full-size passes with no extra cost.
  std::size_t off = 0;
  while (off < chunk.size()) {
    const std::size_t want = std::min(chunk.size() - off, kFlushBlock);
    const std::size_t wrote =
        std::fwrite(chunk.data() + off, 1, want, flush_file_);
    if (wrote != want) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      if (!warned_io_error_.exchange(true, std::memory_order_relaxed)) {
        util::log_line(util::LogLevel::kWarning,
                       "obs: short write on event flush file");
      }
      // Skip the unwritable remainder but keep the cursor advanced:
      // the final write_ndjson() rewrites the full stream anyway, and
      // io_errors in log_stats records that this file is suspect.
      break;
    }
    off += wrote;
    if (flush_write_delay_us_ > 0) {
      std::fflush(flush_file_);
      std::this_thread::sleep_for(
          std::chrono::microseconds(flush_write_delay_us_));
    }
  }
  std::fflush(flush_file_);
  sync_flush_file_locked();
}

void EventLog::sync_flush_file_locked() {
  if (flush_file_ == nullptr) return;
  switch (fsync_.policy) {
    case FsyncPolicy::kOff:
      return;
    case FsyncPolicy::kFlush:
      break;
    case FsyncPolicy::kInterval: {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_fsync_ <
          std::chrono::milliseconds(fsync_.interval_ms)) {
        return;
      }
      last_fsync_ = now;
      break;
    }
  }
  if (::fsync(fileno(flush_file_)) == 0) {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  } else {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    if (!warned_io_error_.exchange(true, std::memory_order_relaxed)) {
      util::log_line(util::LogLevel::kWarning,
                     "obs: fsync failed on event flush file");
    }
  }
}

void EventLog::flush_loop(int interval_ms) {
  std::unique_lock lock(flush_mutex_);
  while (!flush_stop_) {
    flush_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                       [this] { return flush_stop_; });
    flush_once();
  }
}

void EventLog::stop_periodic_flush() {
  {
    std::scoped_lock lock(flush_mutex_);
    if (!flush_thread_.joinable()) return;
    flush_stop_ = true;
  }
  flush_cv_.notify_all();
  flush_thread_.join();
  std::scoped_lock lock(flush_mutex_);
  flush_once();  // the thread's last pass may predate close()
  std::fclose(flush_file_);
  flush_file_ = nullptr;
}

bool EventLog::write_ndjson(const std::string& path) const {
  const std::string text = to_ndjson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    util::log_line(util::LogLevel::kWarning,
                   "obs: cannot open event log output file " + path);
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  if (written != text.size()) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    std::fclose(f);
    util::log_line(util::LogLevel::kWarning,
                   "obs: short write to event log output file " + path);
    return false;
  }
  if (fsync_.policy != FsyncPolicy::kOff) {
    std::fflush(f);
    if (::fsync(fileno(f)) == 0) {
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      util::log_line(util::LogLevel::kWarning,
                     "obs: fsync failed on event log output file " + path);
    }
  }
  std::fclose(f);
  return true;
}

}  // namespace pandarus::obs
