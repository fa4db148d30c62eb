#include "obs/event_log.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/colstore.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace pandarus::obs {
namespace {

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

void export_event_log_metrics(const EventLog* log) {
  if (log == nullptr) return;
  Registry& registry = Registry::global();
  registry
      .gauge("pandarus_events_written",
             "Events accepted into the session event log")
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
             "Publication watermark of the session event log")
      .set(static_cast<std::int64_t>(log->watermark()));
  registry
      .gauge("pandarus_events_resident_lines",
             "Event lines held in memory (staged, or not yet read by "
             "every reader)")
      .set(static_cast<std::int64_t>(log->resident_lines()));
}

namespace detail {

void append_json_escaped(std::string& out, std::string_view s) {
  // Bytes that need no escape are appended a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
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

// --- EventRecord / Event -------------------------------------------------

namespace {

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

FieldRecord int_record(std::int64_t v) noexcept {
  return {0, 0, static_cast<std::uint64_t>(v), FieldType::kInt, false, false};
}

}  // namespace

EventRecord::EventRecord(const EventRecord& other) noexcept { *this = other; }

EventRecord& EventRecord::operator=(const EventRecord& other) noexcept {
  ts = other.ts;
  kind = other.kind;
  entity = other.entity;
  field_count = other.field_count;
  complete = other.complete;
  std::copy_n(other.fields.begin(), field_count, fields.begin());
  return *this;
}

template <typename Int>
void Event::append_int(Int v) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  line_.append(buf, result.ptr);
}

FieldRecord Event::append_string(std::string_view s) {
  const std::size_t pos = line_.size();
  append_json_escaped(line_, s);
  const std::size_t len = line_.size() - pos;
  // Every escape lengthens the text, so equal lengths mean none.
  return {0, 0, FieldRecord::pack_span(pos, len), FieldType::kString, false,
          len != s.size()};
}

Event::Event(std::string_view kind, std::int64_t ts, std::int64_t entity) {
  line_.reserve(96);
  line_ += "{\"ts\":";
  append_int(ts);
  line_ += ",\"kind\":\"";
  record_.kind = append_string(kind);
  line_ += "\",\"entity\":";
  append_int(entity);
  record_.ts = int_record(ts);
  record_.entity = int_record(entity);
}

Event::Event(std::string_view kind, std::int64_t ts, std::string_view entity) {
  line_.reserve(96);
  line_ += "{\"ts\":";
  append_int(ts);
  line_ += ",\"kind\":\"";
  record_.kind = append_string(kind);
  line_ += "\",\"entity\":\"";
  record_.entity = append_string(entity);
  line_ += '"';
  record_.ts = int_record(ts);
}

FieldRecord* Event::append_key(std::string_view key) {
  line_ += ",\"";
  const FieldRecord span = append_string(key);
  line_ += "\":";
  if (record_.field_count == EventRecord::kInlineFields) {
    record_.complete = false;
    return nullptr;
  }
  FieldRecord& f = record_.fields[record_.field_count++];
  f.key_pos = static_cast<std::uint32_t>(span.value >> 32);
  f.key_len = static_cast<std::uint32_t>(span.value);
  f.key_escaped = span.value_escaped;
  f.value_escaped = false;
  return &f;
}

Event&& Event::field(std::string_view key, std::int64_t v) && {
  if (FieldRecord* f = append_key(key)) {
    f->type = FieldType::kInt;
    f->value = static_cast<std::uint64_t>(v);
  }
  append_int(v);
  return std::move(*this);
}

Event&& Event::field(std::string_view key, std::uint64_t v) && {
  FieldRecord* f = append_key(key);
  const std::size_t pos = line_.size();
  append_int(v);
  if (f != nullptr) {
    if (v <= static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
      f->type = FieldType::kInt;
      f->value = v;
    } else {
      // Past INT64_MAX util::json::parse reads the digits as a double;
      // strtod of the same digits gives exactly its value.
      f->type = FieldType::kDouble;
      f->value = double_bits(std::strtod(line_.c_str() + pos, nullptr));
    }
  }
  return std::move(*this);
}

Event&& Event::field(std::string_view key, std::int32_t v) && {
  return std::move(*this).field(key, static_cast<std::int64_t>(v));
}

Event&& Event::field(std::string_view key, std::uint32_t v) && {
  return std::move(*this).field(key, static_cast<std::uint64_t>(v));
}

Event&& Event::field(std::string_view key, double v) && {
  FieldRecord* f = append_key(key);
  const std::size_t pos = line_.size();
  append_json_double(line_, v);
  if (f != nullptr) {
    // util::json::parse reads a token without '.' or an exponent as an
    // int: `3`, `-0`, and the `0` a non-finite value renders as.  %.17g
    // writes such a token only below 1e17, so it always fits.  Any
    // other token round-trips to `v` exactly.
    const std::string_view token = std::string_view(line_).substr(pos);
    if (token.find_first_of(".e") == std::string_view::npos) {
      std::int64_t i = 0;
      std::from_chars(token.data(), token.data() + token.size(), i);
      f->type = FieldType::kInt;
      f->value = static_cast<std::uint64_t>(i);
    } else {
      f->type = FieldType::kDouble;
      f->value = double_bits(v);
    }
  }
  return std::move(*this);
}

Event&& Event::field(std::string_view key, bool v) && {
  if (FieldRecord* f = append_key(key)) {
    f->type = FieldType::kBool;
    f->value = v ? 1 : 0;
  }
  line_ += v ? "true" : "false";
  return std::move(*this);
}

Event&& Event::field(std::string_view key, std::string_view v) && {
  FieldRecord* f = append_key(key);
  line_ += '"';
  const FieldRecord span = append_string(v);
  line_ += '"';
  if (f != nullptr) {
    f->type = FieldType::kString;
    f->value = span.value;
    f->value_escaped = span.value_escaped;
  }
  return std::move(*this);
}

Event&& Event::field(std::string_view key, const char* v) && {
  return std::move(*this).field(key, std::string_view(v));
}

// --- EventLog ---------------------------------------------------------------

EventLog::EventLog(std::size_t max_events)
    : EventLog(EventSinks{}, max_events) {}

EventLog::EventLog(const EventSinks& sinks, std::size_t max_events)
    : max_events_(max_events),
      frees_lines_(!sinks.ndjson_path.empty() ||
                   !sinks.colstore_path.empty()),
      encodes_records_(!sinks.colstore_path.empty()),
      sinks_(sinks) {
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
  std::scoped_lock lock(mutex_);
  for (Reader* reader : readers_) reader->log_ = nullptr;
  close_sinks_locked();
}

std::size_t EventLog::stage(Event& event) {
  event.line_ += '}';
  const std::size_t size = event.line_.size();
  // Spans are 32-bit offsets.
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    event.record_.complete = false;
  }
  std::scoped_lock lock(mutex_);
  Line& line = staged_.emplace_back();
  line.text = std::move(event.line_);
  // Only the colstore sink reads records; without one, line.record stays
  // empty and complete (the default).
  if (encodes_records_) line.record = event.record_;
  if (staged_.size() >= kDrainBatch) drain_locked();
  return size;
}

void EventLog::emit(Event&& event) {
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
  bytes_.fetch_add(stage(event) + 1, std::memory_order_relaxed);
}

void EventLog::emit_sideband(Event&& event) { stage(event); }

void EventLog::drain_locked() {
  if (staged_.empty()) return;
  for (Line& line : staged_) {
    if (ndjson_file_ != nullptr) {
      ndjson_pending_ += line.text;
      ndjson_pending_ += '\n';
    }
    if (col_writer_ != nullptr) col_writer_->append(line.text, line.record);
    retained_.push_back(std::move(line.text));
  }
  watermark_ += staged_.size();
  staged_.clear();
  flush_sinks_locked();
  release_locked();
}

std::uint64_t EventLog::publish() {
  std::scoped_lock lock(mutex_);
  drain_locked();
  return watermark_;
}

std::uint64_t EventLog::watermark() const {
  std::scoped_lock lock(mutex_);
  return watermark_;
}

void EventLog::append_retained_locked(std::string& out,
                                      std::uint64_t from) const {
  // Readers pin their lines and to_ndjson() refuses a freed log, so
  // `from` is never below the first retained line.
  const std::uint64_t first = watermark_ - retained_.size();
  const auto begin =
      retained_.begin() + static_cast<std::ptrdiff_t>(from - first);
  std::size_t total = 0;
  for (auto it = begin; it != retained_.end(); ++it) total += it->size() + 1;
  out.reserve(out.size() + total);
  for (auto it = begin; it != retained_.end(); ++it) {
    out += *it;
    out += '\n';
  }
}

void EventLog::release_locked() {
  if (!frees_lines_) return;
  std::uint64_t keep = watermark_;
  for (const Reader* reader : readers_) {
    keep = std::min(keep, reader->position_);
  }
  for (std::uint64_t first = watermark_ - retained_.size(); first < keep;
       ++first) {
    retained_.pop_front();
    freed_ = true;
  }
}

EventLog::Reader::Reader(EventLog& log) : log_(&log) {
  std::scoped_lock lock(log.mutex_);
  position_ = log.watermark_;
  log.readers_.push_back(this);
}

EventLog::Reader::~Reader() {
  if (log_ == nullptr) return;  // the log went first
  std::scoped_lock lock(log_->mutex_);
  std::erase(log_->readers_, this);
  log_->release_locked();
}

std::uint64_t EventLog::Reader::read(std::string& out) {
  if (log_ == nullptr) return position_;
  std::scoped_lock lock(log_->mutex_);
  log_->append_retained_locked(out, position_);
  position_ = log_->watermark_;
  log_->release_locked();
  return position_;
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
  Event stats = Event("log_stats", 0, std::int64_t{0})
                    .field("events", events)
                    .field("dropped", drops)
                    .field("bytes", bytes)
                    .field("io_errors", io_errors())
                    .field("fsyncs", fsyncs());
  accepted_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(stage(stats) + 1, std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  // Publishing the rest makes the watermark, and the files, cover the
  // whole stream.
  drain_locked();
  close_sinks_locked();
}

std::size_t EventLog::event_count() const {
  std::scoped_lock lock(mutex_);
  return watermark_ + staged_.size();
}

std::size_t EventLog::resident_lines() const {
  std::scoped_lock lock(mutex_);
  return retained_.size() + staged_.size();
}

std::string EventLog::to_ndjson() const {
  std::scoped_lock lock(mutex_);
  if (freed_) {
    throw std::logic_error(
        "obs::EventLog::to_ndjson: this log has freed lines its file sinks "
        "wrote; read the sink file back instead");
  }
  std::string out;
  append_retained_locked(out, 0);
  for (const Line& line : staged_) {
    out += line.text;
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

void EventLog::flush_sinks_locked() {
  if (ndjson_file_ == nullptr && col_writer_ == nullptr) return;
  const bool durable = fsync_due();
  if (ndjson_file_ != nullptr) {
    if (!write_flushed(ndjson_file_, ndjson_pending_, sinks_.write_delay_us) ||
        (durable && !fsync_file(ndjson_file_))) {
      sink_failed(sinks_.ndjson_path, "write, flush or fsync failed");
      std::fclose(ndjson_file_);
      ndjson_file_ = nullptr;
    }
    ndjson_pending_.clear();
  }
  if (col_writer_ != nullptr) {
    // flush() pushes out every chunk append() completed.
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
