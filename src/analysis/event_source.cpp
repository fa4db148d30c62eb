#include "analysis/event_source.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <istream>
#include <optional>
#include <utility>
#include <vector>

#include "obs/colstore.hpp"
#include "util/log.hpp"

namespace pandarus::analysis {
namespace {

using util::json::FlatObject;

/// Bytes pulled from the underlying stream per refill.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

/// The kind in the Event builder's canonical line prefix
/// `{"ts":<int>,"kind":"<kind>"`; nullopt when the line does not start
/// that way or the kind holds an escape (then only a parse can say).
/// The prefix pins `kind` as the line's second member, after `ts`, so
/// when the line parses this is the kind its first `kind` member holds.
std::optional<std::string_view> prefix_kind(std::string_view line) {
  constexpr std::string_view kTs = "{\"ts\":";
  constexpr std::string_view kKind = ",\"kind\":\"";
  if (!line.starts_with(kTs)) return std::nullopt;
  std::size_t pos = kTs.size();
  if (pos < line.size() && line[pos] == '-') ++pos;
  const std::size_t digits = pos;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') ++pos;
  if (pos == digits || line.substr(pos, kKind.size()) != kKind) {
    return std::nullopt;
  }
  pos += kKind.size();
  const std::size_t end = line.find_first_of("\"\\", pos);
  if (end == std::string_view::npos || line[end] != '"') return std::nullopt;
  return line.substr(pos, end - pos);
}

/// Assembles NDJSON lines from fixed-size reads and parses each in
/// place in the read buffer; memory is bounded by kMaxNdjsonLine +
/// kReadChunk no matter how large the input is.
class NdjsonSource final : public EventSource {
 public:
  using ReadFn = std::function<std::size_t(char*, std::size_t)>;

  NdjsonSource(ReadFn read, std::FILE* owned,
               std::span<const std::string_view> kinds)
      : read_(std::move(read)),
        owned_(owned),
        kinds_(kinds.begin(), kinds.end()) {}
  ~NdjsonSource() override {
    if (owned_ != nullptr) std::fclose(owned_);
  }

  const FlatObject* next() override {
    std::string_view line;
    while (next_line(line)) {
      if (line.empty()) continue;
      if (!kinds_.empty()) {
        const std::optional<std::string_view> kind = prefix_kind(line);
        if (kind && !wanted(*kind)) continue;
      }
      if (!util::json::parse_flat(line, event_)) {
        ++skipped_;
        continue;
      }
      if (!kinds_.empty() && !wanted(event_.get_string("kind"))) continue;
      return &event_;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t skipped() const noexcept override {
    return skipped_;
  }
  [[nodiscard]] std::string error() const override { return {}; }

 private:
  [[nodiscard]] bool wanted(std::string_view kind) const {
    return std::find(kinds_.begin(), kinds_.end(), kind) != kinds_.end();
  }

  /// The next line, viewed in buffer_ until the following call; false
  /// at end of input.
  bool next_line(std::string_view& line) {
    for (;;) {
      const auto nl = buffer_.find('\n', pos_);
      if (nl != std::string::npos) {
        if (discarding_) {
          // Tail of an overlong line (already counted); resume after it.
          discarding_ = false;
          pos_ = nl + 1;
          continue;
        }
        line = std::string_view(buffer_).substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      if (!discarding_ && buffer_.size() - pos_ > kMaxNdjsonLine) {
        ++skipped_;
        discarding_ = true;
      }
      if (discarding_) {
        buffer_.clear();
      } else {
        buffer_.erase(0, pos_);
      }
      pos_ = 0;
      if (eof_) {
        if (!discarding_ && !buffer_.empty()) {
          line = buffer_;  // final line without newline
          pos_ = buffer_.size();
          return true;
        }
        return false;
      }
      char chunk[kReadChunk];
      const std::size_t got = read_(chunk, sizeof chunk);
      if (got == 0) {
        eof_ = true;
        continue;
      }
      buffer_.append(chunk, got);
    }
  }

  ReadFn read_;
  std::FILE* owned_ = nullptr;
  std::vector<std::string> kinds_;
  std::string buffer_;
  std::size_t pos_ = 0;
  bool eof_ = false;
  bool discarding_ = false;
  std::size_t skipped_ = 0;
  FlatObject event_;
};

obs::ColFilter kind_filter(std::span<const std::string_view> kinds) {
  obs::ColFilter filter;
  filter.kinds.assign(kinds.begin(), kinds.end());
  return filter;
}

/// Yields the colstore reader's rows, which it fills as the members
/// parse_flat reads from their NDJSON rendering, so replay results are
/// indistinguishable across formats.
class ColstoreSource final : public EventSource {
 public:
  ColstoreSource(const std::string& path,
                 std::span<const std::string_view> kinds)
      : reader_(path, kind_filter(kinds)) {}

  const FlatObject* next() override {
    if (reader_.next(event_)) return &event_;
    if (!reader_.ok() && !warned_) {
      warned_ = true;
      util::log_warning() << "event source: " << reader_.error();
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t skipped() const noexcept override {
    // A damaged chunk stops the scan; the rows lost are unknowable, so
    // the error() channel reports it instead of a count.
    return 0;
  }
  [[nodiscard]] std::string error() const override {
    return reader_.error();
  }

 private:
  obs::ColReader reader_;
  bool warned_ = false;
  FlatObject event_;
};

}  // namespace

std::unique_ptr<EventSource> make_ndjson_source(std::istream& in) {
  return std::make_unique<NdjsonSource>(
      [&in](char* dst, std::size_t n) -> std::size_t {
        in.read(dst, static_cast<std::streamsize>(n));
        return static_cast<std::size_t>(in.gcount());
      },
      nullptr, std::span<const std::string_view>{});
}

std::unique_ptr<EventSource> open_event_source(
    const std::string& path, std::span<const std::string_view> kinds) {
  if (obs::is_colstore_file(path)) {
    return std::make_unique<ColstoreSource>(path, kinds);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    util::log_warning() << "event source: cannot open " << path;
    return nullptr;
  }
  return std::make_unique<NdjsonSource>(
      [f](char* dst, std::size_t n) { return std::fread(dst, 1, n, f); }, f,
      kinds);
}

}  // namespace pandarus::analysis
