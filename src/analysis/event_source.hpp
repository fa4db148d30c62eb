// Streaming event-source abstraction: one interface over the NDJSON
// text stream and the binary colstore, so replay / critical-path /
// report tooling runs out-of-core against either format.
//
// A source yields parsed `util::json::Value` objects one event at a
// time.  The NDJSON source assembles lines from fixed-size read chunks
// (bounded buffer — no whole-file slurp); the colstore source decodes
// one chunk of columns at a time.  Both construct Values with identical
// semantics (int/double duality, member order), so every consumer sees
// the same objects regardless of the container format.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "util/json.hpp"

namespace pandarus::analysis {

/// Longest NDJSON line a streaming source will assemble; longer lines
/// are discarded and counted as skipped (a corrupt line must not force
/// unbounded buffering).  The Event builder never comes close.
inline constexpr std::size_t kMaxNdjsonLine = std::size_t{1} << 20;

/// Pull cursor over an event stream.  The pointer returned by next()
/// stays valid until the following next() call.
class EventSource {
 public:
  virtual ~EventSource() = default;
  /// Next well-formed event object, or nullptr at end of stream.
  /// Malformed input is counted in skipped(), never fatal.
  virtual const util::json::Value* next() = 0;
  /// Lines/events dropped so far (unparsable, overlong, non-object).
  [[nodiscard]] virtual std::size_t skipped() const noexcept = 0;
  /// Non-empty when the underlying stream stopped on damage (e.g. a
  /// corrupt colstore chunk); end-of-input is not an error.
  [[nodiscard]] virtual std::string error() const = 0;
};

/// Line-streaming NDJSON source over an open stream (not owned; must
/// outlive the source).
std::unique_ptr<EventSource> make_ndjson_source(std::istream& in);

/// Opens `path` and sniffs the format: colstore magic selects the
/// columnar reader, anything else streams as NDJSON.  nullptr (with a
/// warning logged) when the file cannot be opened.
std::unique_ptr<EventSource> open_event_source(const std::string& path);

}  // namespace pandarus::analysis
