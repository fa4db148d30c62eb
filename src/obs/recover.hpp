// Crash recovery for the event sinks: salvage the longest valid prefix
// of a torn NDJSON or colstore file instead of erroring out.
//
// Both sinks are append-only, so a SIGKILL (or power loss) can only
// damage the tail: the NDJSON file may end mid-line, the colstore file
// mid-chunk.  Recovery therefore means *truncation to the last intact
// record boundary* — whole JSON-parseable lines for NDJSON, CRC-valid
// chunks for colstore — plus an honest account of what was cut.  The
// recovered file is a byte-exact prefix of what an uninterrupted run
// would have produced, which is what scenario::resume_campaign checks
// against a re-run's files (see examples/crash_harness).  Both passes
// read the file in fixed-size blocks, so memory stays bounded however
// long the stream.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace pandarus::obs {

/// Outcome of a salvage pass over one damaged (or intact) file.
struct RecoveryReport {
  bool ok = false;         ///< input was readable and salvage completed
  bool truncated = false;  ///< damage found; output is a proper prefix
  std::uint64_t salvaged_events = 0;  ///< whole lines / decoded rows kept
  std::uint64_t salvaged_chunks = 0;  ///< colstore only; 0 for NDJSON
  std::uint64_t salvaged_bytes = 0;   ///< valid prefix length
  std::uint64_t dropped_bytes = 0;    ///< bytes cut past the prefix
  std::string detail;                 ///< first damage observed, if any
};

/// Longest prefix of `bytes` made of whole, JSON-parseable NDJSON
/// lines, none longer than 1 MiB (a longer one ends the salvage with
/// "line too long").  Pure function of the bytes; never fails (an
/// unreadable blob salvages to an empty prefix).
[[nodiscard]] RecoveryReport salvage_ndjson(std::string_view bytes);

/// Rewrites the NDJSON file at `in_path` to `out_path` keeping only the
/// prefix salvage_ndjson() keeps over the file's bytes, read in 64 KiB
/// blocks.  `in_path == out_path` repairs in place (via a temp file +
/// rename, so a second crash cannot eat the survivor).  ok == false
/// when the input cannot be read or the output written.
RecoveryReport recover_ndjson_file(const std::string& in_path,
                                   const std::string& out_path);

/// Same contract for a colstore file: every chunk of the kept prefix
/// has been fully decoded and CRC-verified.
RecoveryReport recover_colstore_file(const std::string& in_path,
                                     const std::string& out_path);

}  // namespace pandarus::obs
