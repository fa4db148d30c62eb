#include "obs/recover.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "obs/colstore.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace pandarus::obs {
namespace {

bool read_file(const std::string& path, std::string& out,
               std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error = "cannot open " + path;
    return false;
  }
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.append(buf, got);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) error = "read failed on " + path;
  return ok;
}

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
  std::fclose(out);
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
  RecoveryReport report;
  report.ok = true;
  util::json::FlatObject event;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string_view::npos) {
      report.truncated = true;
      report.detail = "incomplete final line";
      break;
    }
    const std::string_view line = bytes.substr(pos, nl - pos);
    if (!line.empty()) {
      // A torn tail only ever damages the last line, but checking every
      // kept line costs one replay-equivalent parse and turns mid-file
      // corruption into a clean truncation instead of a poisoned file.
      if (!util::json::parse_flat(line, event)) {
        report.truncated = true;
        report.detail = "unparseable line";
        break;
      }
      ++report.salvaged_events;
    }
    pos = nl + 1;
  }
  report.salvaged_bytes = pos;
  report.dropped_bytes = bytes.size() - pos;
  return report;
}

RecoveryReport recover_ndjson_file(const std::string& in_path,
                                   const std::string& out_path) {
  RecoveryReport report;
  std::string bytes;
  if (!read_file(in_path, bytes, report.detail)) return report;
  report = salvage_ndjson(bytes);
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
