// Streaming event-source abstraction: one interface over the NDJSON
// text stream and the binary colstore, so replay / critical-path /
// report tooling runs out-of-core against either format.
//
// A source yields one event at a time as a `util::json::FlatObject`: a
// flat view of the event's members, read in place, with no tree built.
// The NDJSON source assembles lines from fixed-size read chunks
// (bounded buffer — no whole-file slurp) and parses each where it sits
// with parse_flat; the colstore source hands on the object
// obs::ColReader fills from one decoded chunk at a time, with views
// into the reader's dictionary.  The reader types each member as
// parse_flat types its rendering (int/double duality, member order), so
// every consumer sees the same events regardless of the container
// format.
//
// A source opened with a kind list yields only events of those kinds,
// and skips the others before decoding them: the colstore reader skips
// whole chunks and rows through its ColFilter, and the NDJSON source
// reads the kind from the Event builder's canonical line prefix
// `{"ts":<int>,"kind":"<kind>"` and skips the line unparsed when that
// kind is not listed.  A line without that prefix, or whose kind holds
// an escape, is parsed, and its kind checked after parsing.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace pandarus::analysis {

/// Longest NDJSON line a streaming source will assemble; longer lines
/// are discarded and counted as skipped (a corrupt line must not force
/// unbounded buffering).  The Event builder never comes close.
inline constexpr std::size_t kMaxNdjsonLine = std::size_t{1} << 20;

/// Pull cursor over an event stream.  The pointer returned by next(),
/// and every view in it, stays valid until the following next() call.
class EventSource {
 public:
  virtual ~EventSource() = default;
  /// Next well-formed event object, or nullptr at end of stream.
  /// Malformed input is counted in skipped(), never fatal.
  virtual const util::json::FlatObject* next() = 0;
  /// Lines/events dropped so far (unparsable, overlong, non-object).
  /// With a kind list, lines skipped by their prefix are not counted.
  [[nodiscard]] virtual std::size_t skipped() const noexcept = 0;
  /// Non-empty when the underlying stream stopped on damage (e.g. a
  /// corrupt colstore chunk); end-of-input is not an error.
  [[nodiscard]] virtual std::string error() const = 0;
};

/// What a source reported once a scan over it ended.
struct SourceStatus {
  std::size_t skipped = 0;  ///< EventSource::skipped()
  std::string error;        ///< EventSource::error()
};

/// Line-streaming NDJSON source over an open stream (not owned; must
/// outlive the source).
std::unique_ptr<EventSource> make_ndjson_source(std::istream& in);

/// Opens `path` and sniffs the format: colstore magic selects the
/// columnar reader, anything else streams as NDJSON.  A non-empty
/// `kinds` keeps events of those kinds only (see above).  nullptr (with
/// a warning logged) when the file cannot be opened.
std::unique_ptr<EventSource> open_event_source(
    const std::string& path, std::span<const std::string_view> kinds = {});

}  // namespace pandarus::analysis
