#include "obs/recover.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "obs/colstore.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace pandarus::obs {
namespace {

constexpr std::size_t kBlock = std::size_t{1} << 16;
/// A line longer than this ends the salvage ("line too long").  No
/// emitted line comes near it; the cap keeps a tail with no newline (a
/// zero-filled tail after power loss, say) from growing the carry.
constexpr std::size_t kMaxLine = std::size_t{1} << 20;

/// The NDJSON salvage rule over a stream fed in blocks of any split:
/// keeps whole lines that parse as flat JSON objects and stops at the
/// first damaged one.  Holds only the current partial line.
class NdjsonScanner {
 public:
  NdjsonScanner() { report_.ok = true; }

  void feed(std::string_view block) {
    fed_ += block.size();
    std::size_t pos = 0;
    while (!stopped_ && pos < block.size()) {
      const std::size_t nl = block.find('\n', pos);
      const std::string_view piece = block.substr(pos, nl - pos);
      if (carry_.size() + piece.size() > kMaxLine) {
        stop("line too long");
      } else if (nl == std::string_view::npos) {
        carry_.append(piece);
        break;
      } else {
        if (carry_.empty()) {
          keep(piece);
        } else {
          carry_.append(piece);
          keep(carry_);
          carry_.clear();
        }
        pos = nl + 1;
      }
    }
  }

  RecoveryReport finish() {
    if (!stopped_ && !carry_.empty()) stop("incomplete final line");
    report_.dropped_bytes = fed_ - report_.salvaged_bytes;
    return report_;
  }

 private:
  /// One whole line, without its '\n'.
  void keep(std::string_view line) {
    if (!line.empty()) {
      // A torn tail only ever damages the last line, but checking every
      // kept line costs one replay-equivalent parse and turns mid-file
      // corruption into a clean truncation instead of a poisoned file.
      if (!util::json::parse_flat(line, event_)) {
        stop("unparseable line");
        return;
      }
      ++report_.salvaged_events;
    }
    report_.salvaged_bytes += line.size() + 1;
  }

  void stop(const char* detail) {
    stopped_ = true;
    report_.truncated = true;
    report_.detail = detail;
  }

  RecoveryReport report_;
  std::string carry_;  ///< the current partial line
  util::json::FlatObject event_;
  std::uint64_t fed_ = 0;
  bool stopped_ = false;
};

/// Copies the first `prefix` bytes of `in_path` over `out_path` via a
/// temp file + rename, so a crash during recovery cannot destroy the
/// survivor (in_path == out_path repairs in place).
bool copy_prefix(const std::string& in_path, const std::string& out_path,
                 std::uint64_t prefix, std::string& error) {
  std::FILE* in = std::fopen(in_path.c_str(), "rb");
  if (in == nullptr) {
    error = "cannot open " + in_path;
    return false;
  }
  const std::string tmp_path = out_path + ".recover-tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    error = "cannot open " + tmp_path + " for writing";
    return false;
  }
  char buf[1 << 16];
  std::uint64_t left = prefix;
  bool ok = true;
  while (ok && left > 0) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, sizeof buf));
    const std::size_t got = std::fread(buf, 1, want, in);
    if (got == 0 || std::fwrite(buf, 1, got, out) != got) {
      ok = false;
      break;
    }
    left -= got;
  }
  std::fclose(in);
  ok = ok && std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::remove(tmp_path.c_str());
    error = "copy to " + tmp_path + " failed";
    return false;
  }
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    error = "rename " + tmp_path + " -> " + out_path + " failed";
    return false;
  }
  return true;
}

}  // namespace

RecoveryReport salvage_ndjson(std::string_view bytes) {
  NdjsonScanner scanner;
  scanner.feed(bytes);
  return scanner.finish();
}

RecoveryReport recover_ndjson_file(const std::string& in_path,
                                   const std::string& out_path) {
  RecoveryReport report;
  NdjsonScanner scanner;
  {
    // Scoped so the handle is closed before the copy below (in-place
    // recovery renames over in_path).
    std::FILE* f = std::fopen(in_path.c_str(), "rb");
    if (f == nullptr) {
      report.detail = "cannot open " + in_path;
      return report;
    }
    std::string block(kBlock, '\0');
    std::size_t got = 0;
    while ((got = std::fread(block.data(), 1, kBlock, f)) > 0) {
      scanner.feed(std::string_view(block.data(), got));
    }
    const bool read_ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!read_ok) {
      report.detail = "read failed on " + in_path;
      return report;
    }
  }
  report = scanner.finish();
  std::string error;
  if (!copy_prefix(in_path, out_path, report.salvaged_bytes, error)) {
    report.ok = false;
    report.detail = error;
  }
  return report;
}

RecoveryReport recover_colstore_file(const std::string& in_path,
                                     const std::string& out_path) {
  RecoveryReport report;
  {
    // Scoped so the reader's handle is closed before the copy below
    // (in-place recovery renames over in_path).
    ColReader reader(in_path, ColFilter{}, ColReadOptions{.recover = true});
    DecodedEvent event;
    while (reader.next(event)) {
    }
    if (!reader.ok()) {
      report.detail = reader.error();
      return report;
    }
    report = reader.recovery();
  }
  std::string error;
  if (!copy_prefix(in_path, out_path, report.salvaged_bytes, error)) {
    report.ok = false;
    report.detail = error;
  }
  return report;
}

}  // namespace pandarus::obs
