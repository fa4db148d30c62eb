#include "analysis/event_source.hpp"

#include <cstdio>
#include <functional>
#include <istream>
#include <optional>
#include <utility>

#include "obs/colstore.hpp"
#include "util/log.hpp"

namespace pandarus::analysis {
namespace {

using util::json::Value;

/// Bytes pulled from the underlying stream per refill.
constexpr std::size_t kReadChunk = std::size_t{1} << 16;

/// Assembles NDJSON lines from fixed-size reads and parses them one at
/// a time; memory is bounded by kMaxNdjsonLine + kReadChunk no matter
/// how large the input is.
class NdjsonSource final : public EventSource {
 public:
  using ReadFn = std::function<std::size_t(char*, std::size_t)>;

  NdjsonSource(ReadFn read, std::FILE* owned)
      : read_(std::move(read)), owned_(owned) {}
  ~NdjsonSource() override {
    if (owned_ != nullptr) std::fclose(owned_);
  }

  const util::json::Value* next() override {
    std::string line;
    while (next_line(line)) {
      if (line.empty()) continue;
      value_ = util::json::parse(line);
      if (!value_ || value_->kind != Value::Kind::kObject) {
        ++skipped_;
        continue;
      }
      return &*value_;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t skipped() const noexcept override {
    return skipped_;
  }
  [[nodiscard]] std::string error() const override { return {}; }

 private:
  bool next_line(std::string& line) {
    for (;;) {
      const auto nl = buffer_.find('\n', pos_);
      if (nl != std::string::npos) {
        if (discarding_) {
          // Tail of an overlong line (already counted); resume after it.
          discarding_ = false;
          pos_ = nl + 1;
          continue;
        }
        line.assign(buffer_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ >= kReadChunk) {
          buffer_.erase(0, pos_);
          pos_ = 0;
        }
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
          line = std::move(buffer_);  // final line without newline
          buffer_.clear();
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
  std::string buffer_;
  std::size_t pos_ = 0;
  bool eof_ = false;
  bool discarding_ = false;
  std::size_t skipped_ = 0;
  std::optional<Value> value_;
};

/// Builds Values from decoded colstore rows with exactly the semantics
/// util::json::parse would have produced from the NDJSON rendering —
/// same member order, same int/double duality — so replay results are
/// indistinguishable across formats.
class ColstoreSource final : public EventSource {
 public:
  explicit ColstoreSource(const std::string& path) : reader_(path) {}

  const util::json::Value* next() override {
    obs::DecodedEvent e;
    if (!reader_.next(e)) {
      if (!reader_.ok() && !warned_) {
        warned_ = true;
        util::log_warning() << "event source: " << reader_.error();
      }
      return nullptr;
    }
    value_.emplace();
    Value& v = *value_;
    v.kind = Value::Kind::kObject;
    v.obj.reserve(3 + e.fields.size());
    v.obj.emplace_back("ts", int_value(e.ts));
    v.obj.emplace_back("kind", string_value(e.kind));
    if (e.entity_is_string) {
      v.obj.emplace_back("entity", string_value(e.entity_string));
    } else {
      v.obj.emplace_back("entity", int_value(e.entity_int));
    }
    for (const obs::DecodedEvent::Field& f : e.fields) {
      Value fv;
      switch (f.type) {
        case obs::DecodedEvent::FieldType::kInt:
          fv = int_value(f.int_v);
          break;
        case obs::DecodedEvent::FieldType::kDouble:
          fv.kind = Value::Kind::kNumber;
          fv.num_v = f.double_v;
          fv.int_v = util::json::saturating_int(f.double_v);
          fv.is_int = false;
          break;
        case obs::DecodedEvent::FieldType::kBool:
          fv.kind = Value::Kind::kBool;
          fv.bool_v = f.bool_v;
          break;
        case obs::DecodedEvent::FieldType::kString:
          fv = string_value(f.string_v);
          break;
        case obs::DecodedEvent::FieldType::kNull:
          break;  // default-constructed Value is null
      }
      v.obj.emplace_back(std::string(f.key), std::move(fv));
    }
    return &v;
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
  static Value int_value(std::int64_t v) {
    Value out;
    out.kind = Value::Kind::kNumber;
    out.int_v = v;
    out.num_v = static_cast<double>(v);
    out.is_int = true;
    return out;
  }
  static Value string_value(std::string_view s) {
    Value out;
    out.kind = Value::Kind::kString;
    out.str_v = std::string(s);
    return out;
  }

  obs::ColReader reader_;
  bool warned_ = false;
  std::optional<Value> value_;
};

}  // namespace

std::unique_ptr<EventSource> make_ndjson_source(std::istream& in) {
  return std::make_unique<NdjsonSource>(
      [&in](char* dst, std::size_t n) -> std::size_t {
        in.read(dst, static_cast<std::streamsize>(n));
        return static_cast<std::size_t>(in.gcount());
      },
      nullptr);
}

std::unique_ptr<EventSource> open_event_source(const std::string& path) {
  if (obs::is_colstore_file(path)) {
    return std::make_unique<ColstoreSource>(path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    util::log_warning() << "event source: cannot open " << path;
    return nullptr;
  }
  return std::make_unique<NdjsonSource>(
      [f](char* dst, std::size_t n) { return std::fread(dst, 1, n, f); }, f);
}

}  // namespace pandarus::analysis
