// Minimal CSV writing (RFC-4180 quoting) for telemetry export and
// figure artefacts.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace pandarus::util {

/// Streams rows to an std::ostream.  Fields containing commas, quotes or
/// newlines are quoted; everything else is written verbatim.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void write_row(const std::vector<std::string>& fields);

  /// Variadic convenience: accepts anything streamable.
  template <typename... Ts>
  void row(const Ts&... fields) {
    std::vector<std::string> cells;
    cells.reserve(sizeof...(fields));
    (cells.push_back(stringify(fields)), ...);
    write_row(cells);
  }

 private:
  static std::string stringify(const std::string& s) { return s; }
  static std::string stringify(const char* s) { return s; }
  static std::string stringify(std::string_view s) { return std::string(s); }
  template <typename T>
  static std::string stringify(const T& v) {
    return std::to_string(v);
  }

  std::ostream& os_;
};

}  // namespace pandarus::util
