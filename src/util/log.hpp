// Tiny leveled logger.  Thread-safe, globally leveled; benches set
// kWarning to keep table output clean while examples run at kInfo.
// Each line is timestamped and emitted with a single fwrite, so
// concurrent workers never interleave partial lines.
//
// The initial level comes from PANDARUS_LOG_LEVEL when set (one of
// error/warn/info/debug/off, case-insensitive; unrecognized values are
// ignored) and defaults to kWarning otherwise.  Explicit
// set_log_level() calls still override the environment.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace pandarus::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Parses a PANDARUS_LOG_LEVEL-style name ("error", "warn"/"warning",
/// "info", "debug", "off"; case-insensitive); `fallback` on anything
/// else.
[[nodiscard]] LogLevel parse_log_level(std::string_view name,
                                       LogLevel fallback) noexcept;

/// Writes one line to stderr if `level` is at or above the global level.
void log_line(LogLevel level, const std::string& message);

namespace detail {

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() { log_line(level_, os_.str()); }

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail

inline detail::LogStream log_warning() {
  return detail::LogStream(LogLevel::kWarning);
}

}  // namespace pandarus::util
