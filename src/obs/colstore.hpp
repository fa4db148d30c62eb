// Chunk-compressed columnar event store: the binary sibling of the
// NDJSON stream, built for out-of-core analysis of campaign telemetry.
//
// The NDJSON `obs::EventLog` stream is the wire format the paper-style
// analyses replay; at the 10M-job scale the ROADMAP targets, slurping
// that text back through a JSON parser dominates every post-hoc tool.
// The colstore keeps the exact same event vocabulary but stores it
// column-per-field in fixed-size chunks (64k events by default):
//
//   * strings (kinds, field keys, site/lfn-style values) are
//     dictionary-encoded through a util::StringInterner, so each
//     occurrence is one varint symbol;
//   * each distinct (kind, entity-kind, [field key/type...]) signature
//     is interned as a "shape"; a row is its shape id plus packed
//     values, so field names are never repeated per event;
//   * int64 columns (timestamps, ids, byte counts) are delta-encoded
//     against the previous value in the same column and written as
//     zigzag varints — monotone sequences collapse to ~1 byte/value;
//   * every chunk's meta (dictionary/shape deltas) and data (columns)
//     sections are squeezed by a small LZ77 block compressor and
//     guarded by CRC32, so truncation or bit rot is detected, never
//     silently replayed; the chunk *header* carries its own CRC32 in the
//     frame (format v2), so a torn tail is detectable before any header
//     field is trusted (a v1 file, which has no header CRC, is rejected
//     by version);
//   * each chunk header carries min/max simulated time and per-kind
//     row counts, so a reader can skip whole chunks for time-window or
//     event-type scans without decoding the column data.
//
// Round trip is exact: ColReader yields each event as the
// util::json::FlatObject that parse_flat reads from its NDJSON line,
// the one shape every replay consumer takes, and re-rendering it with
// append_ndjson() reproduces the Event builder's bytes (field order,
// escaping and %.17g doubles preserved), which is what the replay
// bit-parity tests and `pandarus-events convert` rely on.  Values are
// typed as util::json::parse reads the rendered bytes, so the only
// lines that do not round-trip are those whose rendering parse itself
// reads back differently: `-0` becomes `0`, and an integer past
// INT64_MAX becomes a double.
//
// ColWriter has one encoder, over an obs::EventRecord: the Event
// builder's record of each field's type and position (the EventLog sink
// passes it straight through, so recording a campaign parses no JSON),
// or one append_ndjson_line() fills from a parsed line.  Both yield the
// same bytes for the same line.
//
// ColReader is an out-of-core cursor: it holds one chunk's decoded rows
// at a time (chunked fread, bounded memory) regardless of file size.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/recover.hpp"
#include "util/interner.hpp"
#include "util/json.hpp"

namespace pandarus::obs {

/// An event as ColReader::next yields it: the flat object parse_flat
/// reads from the event's NDJSON line.
using DecodedEvent = util::json::FlatObject;

/// Renders the object's members in order, with the Event builder's
/// escaping and %.17g doubles, and appends it to `out` without a
/// trailing newline.  For an event ColReader yielded, these are the
/// bytes the builder wrote.  A nested member, which only parse_flat of
/// a non-event line yields, renders as null.
void append_ndjson(const util::json::FlatObject& event, std::string& out);

struct ColWriterOptions {
  /// Rows buffered per chunk; the flush granularity and the unit a
  /// reader decodes (and can skip) at a time.
  std::size_t rows_per_chunk = 65536;
  /// fsync before closing the file (EventLog's colstore sink sets it
  /// under any PANDARUS_EVENTS_FSYNC policy but off).
  bool fsync_on_close = false;
};

/// Streaming encoder.  Accepts flat event objects (`ts` int, `kind`
/// string, `entity` int-or-string, remaining fields int/double/bool/
/// string/null); events with nested values are counted as rejected and
/// skipped — the Event builder never produces them.  The first member
/// named `ts`, `kind` or `entity` is the core value; a later member of
/// the same name is an ordinary field.
class ColWriter {
 public:
  explicit ColWriter(const std::string& path, ColWriterOptions options = {});
  ~ColWriter();
  ColWriter(const ColWriter&) = delete;
  ColWriter& operator=(const ColWriter&) = delete;

  /// Appends one event from its builder record, whose spans index
  /// `line` (the Event builder's rendering); an incomplete record is
  /// encoded by parsing `line`.  False once an I/O failure has latched
  /// error().
  bool append(std::string_view line, const EventRecord& record);
  /// Parses one NDJSON line into a record and appends it; false (and
  /// ++stats().rejected) for a malformed line or one that does not fit
  /// the flat schema — rejected, not fatal.
  bool append_ndjson_line(std::string_view line);

  /// Hands every chunk completed so far to the OS (and, with
  /// `durable`, fsyncs it), so a reader or a crash sees them all; the
  /// open tail chunk stays buffered.  False, latching error(), on
  /// failure.
  bool flush(bool durable);

  /// Flushes the tail chunk and closes the file.  Idempotent; returns
  /// false when any write, flush, fsync or the close itself failed.
  bool close();

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  struct Stats {
    std::uint64_t rows = 0;      ///< events encoded
    std::uint64_t rejected = 0;  ///< events/lines that did not fit
    std::uint64_t chunks = 0;
    std::uint64_t bytes_written = 0;  ///< file bytes incl. headers
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct ShapeDef {
    util::Symbol kind = 0;
    std::uint8_t entity_kind = 0;  ///< 0 = int, 1 = string
    std::vector<std::pair<util::Symbol, std::uint8_t>> fields;
  };
  struct ColBuild {
    util::Symbol key = 0;
    std::uint8_t type = 0;
    std::uint64_t count = 0;
    std::int64_t prev_int = 0;  ///< delta base, resets per chunk
    std::string bytes;
  };

  /// The one encoder: appends the event whose spans index `text`.
  bool encode(std::string_view text, const FieldRecord& ts,
              const FieldRecord& kind, const FieldRecord& entity,
              std::span<const FieldRecord> fields);
  /// The shape id of an event, interning its kind and keys the first
  /// time their spelling is seen.
  std::uint32_t shape_of(std::string_view text, const FieldRecord& kind,
                         std::uint8_t entity_kind,
                         std::span<const FieldRecord> fields);
  /// Interns the (unescaped) string at [pos, pos + len) of `text`.
  util::Symbol intern(std::string_view text, std::uint64_t pos,
                      std::uint64_t len, bool escaped);
  /// Interns a kString record's value.
  util::Symbol intern_value(std::string_view text, const FieldRecord& f);
  bool flush_chunk();
  void fail(const std::string& message);

  std::FILE* out_ = nullptr;
  ColWriterOptions options_;
  Stats stats_;
  std::string error_;
  bool closed_ = false;

  util::StringInterner dict_;
  std::size_t dict_flushed_ = 0;
  std::unordered_map<std::string, std::uint32_t> shape_ids_;  ///< by symbols
  std::unordered_map<std::string, std::uint32_t> shape_by_spelling_;
  std::vector<ShapeDef> shapes_;
  std::size_t shapes_flushed_ = 0;

  // Scratch reused across events: encoding allocates only when a table
  // or a column grows.
  std::string spelling_;    ///< shape spelling being looked up
  std::string unescaped_;   ///< one unescaped span
  util::json::FlatObject line_event_;  ///< append_ndjson_line: the line
  std::string line_text_;   ///< its keys and strings, unescaped
  std::vector<FieldRecord> line_fields_;

  // Per-chunk staging, cleared on flush.
  std::vector<std::uint32_t> row_shapes_;
  std::vector<std::int64_t> row_ts_;
  std::vector<std::int64_t> ent_ints_;
  std::vector<util::Symbol> ent_strs_;
  std::vector<ColBuild> cols_;
  std::unordered_map<std::uint64_t, std::size_t> col_index_;
  std::map<util::Symbol, std::uint64_t> kind_counts_;  ///< header order
  std::int64_t min_ts_ = 0;
  std::int64_t max_ts_ = 0;
};

/// Scan filter.  Kind and time-window predicates skip whole chunks via
/// the footer index; the site predicate filters decoded rows (an event
/// passes when any int field named site/src/dst equals `site`).
struct ColFilter {
  std::vector<std::string> kinds;         ///< empty = every kind
  std::optional<std::int64_t> ts_from;    ///< inclusive
  std::optional<std::int64_t> ts_to;      ///< inclusive
  std::optional<std::int64_t> site;
};

struct ColReadOptions {
  /// Salvage mode: a torn or corrupt chunk ends the scan *cleanly* at
  /// the last valid chunk boundary instead of latching error().  The
  /// damage is described by recovery() and ok() stays true, so a
  /// crashed writer's file yields its longest valid prefix.
  bool recover = false;
};

/// Out-of-core cursor over a colstore file: holds one decoded chunk at
/// a time.  A corrupt or truncated chunk stops the scan with ok() ==
/// false and a non-empty error() — or, with ColReadOptions::recover,
/// truncates cleanly — and rows decoded before the damage are still
/// delivered.
class ColReader {
 public:
  explicit ColReader(const std::string& path, ColFilter filter = {},
                     ColReadOptions options = {});
  ~ColReader();
  ColReader(const ColReader&) = delete;
  ColReader& operator=(const ColReader&) = delete;

  /// Advances to the next event passing the filter and fills `out` with
  /// its members as parse_flat reads them from the event's NDJSON line:
  /// ts, kind and entity, then the fields in order.  Keys and strings
  /// view the reader's dictionary and stay valid for its lifetime.
  /// False at end of stream or on error (check ok()).
  bool next(util::json::FlatObject& out);

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  struct Stats {
    std::uint64_t chunks_read = 0;     ///< chunks fully decoded
    std::uint64_t chunks_skipped = 0;  ///< skipped via the footer index
    std::uint64_t rows_decoded = 0;
    std::uint64_t rows_emitted = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Salvage outcome (meaningful with ColReadOptions::recover once the
  /// scan has ended): how much of the file survived, how much was cut.
  [[nodiscard]] const RecoveryReport& recovery() const noexcept {
    return recovery_;
  }

 private:
  friend std::optional<struct ColStats> colstore_stats(const std::string&,
                                                       std::string*);
  struct ShapeDef {
    util::Symbol kind = 0;
    std::uint8_t entity_kind = 0;
    std::vector<std::pair<util::Symbol, std::uint8_t>> fields;
  };
  struct RowRef {
    std::int64_t ts = 0;
    std::uint32_t shape = 0;
    std::uint64_t entity = 0;  ///< int64 bits or dict symbol
    std::size_t value_start = 0;
  };
  struct ChunkInfo {
    std::uint64_t rows = 0;
    std::int64_t min_ts = 0;
    std::int64_t max_ts = 0;
    std::vector<std::pair<util::Symbol, std::uint64_t>> kind_counts;
  };

  /// Reads the next chunk.  `stats_only` applies the dictionary delta
  /// and skips the data section unconditionally (used by
  /// colstore_stats).  Returns false at EOF or on error.
  bool load_chunk(bool stats_only, ChunkInfo* info);
  bool chunk_matches_filter(const ChunkInfo& info);
  bool row_passes_filter(const RowRef& row) const;
  [[nodiscard]] std::string_view view(util::Symbol sym) const {
    return dict_[sym];
  }
  void fail(const std::string& message);
  /// Chunk-level damage: fatal normally, a clean truncation (recorded
  /// in recovery_) under ColReadOptions::recover.
  void fail_chunk(const std::string& message);
  /// Marks the stream position as the end of the last valid chunk.
  void note_chunk_salvaged(std::uint64_t rows);

  std::FILE* in_ = nullptr;
  ColFilter filter_;
  ColReadOptions options_;
  RecoveryReport recovery_;
  std::string error_;
  bool eof_ = false;
  Stats stats_;

  std::deque<std::string> dict_;  ///< deque: views stay stable on growth
  std::unordered_map<std::string_view, util::Symbol> dict_lookup_;
  std::vector<ShapeDef> shapes_;
  std::vector<util::Symbol> filter_kind_syms_;
  util::Symbol site_sym_ = util::kNoSymbol;
  util::Symbol src_sym_ = util::kNoSymbol;
  util::Symbol dst_sym_ = util::kNoSymbol;

  // Current chunk.
  std::vector<RowRef> rows_;
  std::vector<std::uint64_t> values_;  ///< flat row-major field values
  std::size_t row_cursor_ = 0;
};

/// True when `path` starts with the colstore file magic.
[[nodiscard]] bool is_colstore_file(const std::string& path);

/// Also true for a file torn inside the magic: 1-7 bytes that are its
/// prefix.  False for a 0-byte file, where no byte tells the formats
/// apart.  Recovery dispatches on this, so a colstore torn that early
/// is salvaged as one.
[[nodiscard]] bool starts_like_colstore_file(const std::string& path);

/// Footer-index-only summary: walks chunk headers and dictionary
/// deltas, never decodes column data.
struct ColStats {
  std::uint64_t events = 0;
  std::uint64_t chunks = 0;
  std::uint64_t file_bytes = 0;
  std::int64_t min_ts = 0;
  std::int64_t max_ts = 0;
  std::map<std::string, std::uint64_t> kind_counts;
  std::size_t dict_strings = 0;
  std::size_t shapes = 0;
};
[[nodiscard]] std::optional<ColStats> colstore_stats(
    const std::string& path, std::string* error = nullptr);

}  // namespace pandarus::obs
