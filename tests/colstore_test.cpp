// Colstore correctness: byte-exact round trips, corrupt-chunk
// rejection, a seeded mutation fuzz of the reader, footer-index chunk
// skipping, NDJSON-vs-colstore replay parity on a recorded campaign,
// and the terminal log_stats event.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/event_source.hpp"
#include "analysis/events_replay.hpp"
#include "core/relaxed.hpp"
#include "obs/colstore.hpp"
#include "obs/event_log.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pandarus {
namespace {

/// Temp file in the test's working directory, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(std::string name) : path_(std::move(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Decodes a whole colstore file back to NDJSON text (one line per
/// event, '\n' after each), asserting the scan stayed healthy.
std::string decode_to_ndjson(const std::string& path,
                             obs::ColFilter filter = {}) {
  obs::ColReader reader(path, std::move(filter));
  obs::DecodedEvent event;
  std::string out;
  while (reader.next(event)) {
    obs::append_ndjson(event, out);
    out += '\n';
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  return out;
}

/// Encodes NDJSON text into a colstore file line by line, as
/// `pandarus-events convert` does; lets a test pick a small chunk size.
/// `chunk_ends` (optional) receives the file offset at which each chunk
/// ends, `stats` the writer's stats after close().
void encode_colstore(const std::string& ndjson, const std::string& path,
                    obs::ColWriterOptions options,
                    std::vector<std::size_t>* chunk_ends = nullptr,
                    obs::ColWriter::Stats* stats = nullptr) {
  obs::ColWriter writer(path, options);
  std::istringstream in(ndjson);
  std::string line;
  std::uint64_t chunks = 0;
  const auto note_chunk = [&] {
    if (chunk_ends != nullptr && writer.stats().chunks != chunks) {
      chunk_ends->push_back(writer.stats().bytes_written);
    }
    chunks = writer.stats().chunks;
  };
  while (std::getline(in, line)) {
    writer.append_ndjson_line(line);
    note_chunk();
  }
  ASSERT_TRUE(writer.close()) << writer.error();
  note_chunk();
  ASSERT_EQ(writer.stats().rejected, 0u);
  if (stats != nullptr) *stats = writer.stats();
}

/// Emits a mixed-shape, escape-heavy random stream; the same generator
/// seeds both sides of every comparison.
void emit_random_events(obs::EventLog& log, int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::string pool = "abz\"\\\n\t\x01 {}:,é";
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> shape(0, 4);
  std::uniform_int_distribution<std::int64_t> big(
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max());
  std::int64_t ts = 0;
  for (int i = 0; i < count; ++i) {
    ts += static_cast<std::int64_t>(rng() % 1000);
    std::string text;
    for (int c = 0; c < 8; ++c) text += pool[pick(rng)];
    switch (shape(rng)) {
      case 0:
        log.emit(obs::Event("transfer_start", ts, i)
                     .field("src", static_cast<std::int64_t>(rng() % 50))
                     .field("dst", static_cast<std::int64_t>(rng() % 50))
                     .field("attempt", std::int64_t{1}));
        break;
      case 1:
        log.emit(obs::Event("file_record", ts, i)
                     .field("lfn", text)
                     .field("size", static_cast<std::int64_t>(rng() % (1u << 30))));
        break;
      case 2:
        log.emit(obs::Event("link_sample", ts, std::int64_t{0})
                     .field("rate_bps", static_cast<double>(rng()) * 1.75e-3)
                     .field("utilization", 1.0 / 3.0));
        break;
      case 3:
        log.emit(obs::Event("odd \"kind\"", ts, std::string_view(text))
                     .field("flag", (rng() & 1) != 0)
                     .field("huge", big(rng))
                     .field("inf", std::numeric_limits<double>::infinity()));
        break;
      default:
        log.emit(obs::Event("bare", ts, -static_cast<std::int64_t>(i)));
        break;
    }
  }
}

TEST(ColstoreTest, RoundTripsRandomEventsByteExact) {
  obs::EventLog log;
  emit_random_events(log, 2000, 42);
  log.close();
  const std::string ndjson = log.to_ndjson();

  TempFile file("colstore_roundtrip.colstore");
  obs::ColWriterOptions options;
  options.rows_per_chunk = 128;  // force many chunks
  obs::ColWriter::Stats written;
  encode_colstore(ndjson, file.path(), options, nullptr, &written);
  ASSERT_TRUE(obs::is_colstore_file(file.path()));
  // The writer's byte count is the file's size (`pandarus-events
  // convert` reports it).
  EXPECT_EQ(written.bytes_written, read_file(file.path()).size());

  EXPECT_EQ(decode_to_ndjson(file.path()), ndjson);

  std::string error;
  const auto stats = obs::colstore_stats(file.path(), &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->events, 2001u);  // + terminal log_stats
  EXPECT_GT(stats->chunks, 10u);
  EXPECT_EQ(stats->kind_counts.at("bare") +
                stats->kind_counts.at("transfer_start") +
                stats->kind_counts.at("file_record") +
                stats->kind_counts.at("link_sample") +
                stats->kind_counts.at("odd \"kind\"") +
                stats->kind_counts.at("log_stats"),
            stats->events);
}

TEST(ColstoreTest, RejectsTruncatedAndCorruptChunks) {
  obs::EventLog log;
  emit_random_events(log, 1500, 7);
  TempFile file("colstore_corrupt.colstore");
  obs::ColWriterOptions options;
  options.rows_per_chunk = 100;
  encode_colstore(log.to_ndjson(), file.path(), options);
  const std::string bytes = read_file(file.path());
  ASSERT_GT(bytes.size(), 64u);

  {  // Truncation mid-chunk: rows before the damage still arrive.
    TempFile cut("colstore_truncated.colstore");
    write_file(cut.path(), bytes.substr(0, bytes.size() - 7));
    obs::ColReader reader(cut.path());
    obs::DecodedEvent event;
    std::uint64_t rows = 0;
    while (reader.next(event)) ++rows;
    EXPECT_FALSE(reader.ok());
    EXPECT_FALSE(reader.error().empty());
    EXPECT_GT(rows, 0u);
    EXPECT_LT(rows, 1500u);
  }
  {  // Bit damage in the last chunk's data section: CRC catches it.
    std::string flipped = bytes;
    for (std::size_t i = flipped.size() - 12; i < flipped.size() - 4; ++i) {
      flipped[i] = static_cast<char>(flipped[i] ^ 0x5A);
    }
    TempFile bad("colstore_flipped.colstore");
    write_file(bad.path(), flipped);
    obs::ColReader reader(bad.path());
    obs::DecodedEvent event;
    while (reader.next(event)) {
    }
    EXPECT_FALSE(reader.ok());
    EXPECT_FALSE(reader.error().empty());
  }
  {  // Not a colstore file at all.
    TempFile txt("colstore_not.colstore");
    write_file(txt.path(), "{\"ts\":1}\n");
    EXPECT_FALSE(obs::is_colstore_file(txt.path()));
    obs::ColReader reader(txt.path());
    obs::DecodedEvent event;
    EXPECT_FALSE(reader.next(event));
    EXPECT_FALSE(reader.ok());
  }
}

TEST(ColstoreTest, RejectsFormatV1ByVersion) {
  // A v1 file header: magic, version byte 1, three reserved bytes.  v1
  // chunk frames carry no header CRC, so the reader refuses the file by
  // version instead of reading it as an empty, healthy stream.
  TempFile file("colstore_v1.colstore");
  write_file(file.path(), std::string("PCOLSTR1\x01\0\0\0", 12));
  ASSERT_TRUE(obs::is_colstore_file(file.path()));
  const std::string expected = "unsupported colstore version 1";
  {
    obs::ColReader reader(file.path());
    obs::DecodedEvent event;
    EXPECT_FALSE(reader.next(event));
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find(expected), std::string::npos)
        << reader.error();
  }
  {  // Salvage mode refuses it too.
    obs::ColReader reader(file.path(), obs::ColFilter{},
                          obs::ColReadOptions{.recover = true});
    EXPECT_FALSE(reader.ok());
    EXPECT_FALSE(reader.recovery().ok);
  }
  // Replay tools see the same error through the event source.
  const auto source = analysis::open_event_source(file.path());
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->next(), nullptr);
  EXPECT_NE(source->error().find(expected), std::string::npos)
      << source->error();
}

/// A colstore file's rows as NDJSON lines, read in normal or in recover
/// mode, and how the scan ended.
struct Scan {
  std::vector<std::string> rows;
  bool ok = false;
  std::string error;
  obs::RecoveryReport recovery;
};

Scan scan_rows(const std::string& path, bool recover) {
  obs::ColReader reader(path, obs::ColFilter{},
                        obs::ColReadOptions{.recover = recover});
  Scan scan;
  obs::DecodedEvent event;
  while (reader.next(event)) {
    std::string line;
    obs::append_ndjson(event, line);
    scan.rows.push_back(std::move(line));
  }
  scan.ok = reader.ok();
  scan.error = reader.error();
  scan.recovery = reader.recovery();
  return scan;
}

bool is_prefix(const std::vector<std::string>& rows,
               const std::vector<std::string>& of) {
  return rows.size() <= of.size() &&
         std::equal(rows.begin(), rows.end(), of.begin());
}

TEST(ColstoreFuzz, MutatedFilesYieldAPrefixOrFailCleanly) {
  // Deterministic mutation fuzz of ColReader over a small multi-chunk
  // file: seeded single-byte mutations, truncations, and splices at
  // chunk boundaries and at random offsets, each read in normal and in
  // recover mode.
  obs::EventLog log;
  emit_random_events(log, 600, 20251019);
  log.close();
  TempFile file("colstore_fuzz.colstore");
  obs::ColWriterOptions options;
  options.rows_per_chunk = 24;
  std::vector<std::size_t> bounds{12};  // chunk 0 starts after the header
  encode_colstore(log.to_ndjson(), file.path(), options, &bounds);
  const std::string bytes = read_file(file.path());
  ASSERT_GT(bounds.size(), 20u);
  ASSERT_EQ(bounds.back(), bytes.size());
  const Scan intact = scan_rows(file.path(), false);
  ASSERT_TRUE(intact.ok) << intact.error;
  ASSERT_EQ(intact.rows.size(), 601u);  // + terminal log_stats

  TempFile mutated("colstore_fuzz_mutated.colstore");
  const auto scan_both = [&](const std::string& text) {
    write_file(mutated.path(), text);
    return std::pair{scan_rows(mutated.path(), false),
                     scan_rows(mutated.path(), true)};
  };
  // Recover mode's account of what it kept.
  const auto expect_salvage = [](const Scan& recovered, std::size_t size,
                                 const std::string& what) {
    EXPECT_TRUE(recovered.ok) << what << ": " << recovered.error;
    EXPECT_EQ(recovered.recovery.salvaged_events, recovered.rows.size())
        << what;
    EXPECT_LE(recovered.recovery.salvaged_bytes, size) << what;
  };
  util::Rng rng(20251019);

  // Single-byte mutations past the file header.  Every chunk byte is
  // checked or CRC32-covered, and CRC32 catches every burst of 32 bits
  // or fewer, so the damage ends the scan at its chunk: the rows before
  // it are the intact file's.
  std::size_t failed = 0;
  constexpr std::size_t kByteMutations = 400;
  for (std::size_t i = 0; i < kByteMutations; ++i) {
    std::string text = bytes;
    const std::size_t at = 12 + rng.uniform_index(text.size() - 12);
    const auto flip = static_cast<unsigned char>(1 + rng.uniform_index(255));
    text[at] = static_cast<char>(static_cast<unsigned char>(text[at]) ^ flip);
    const std::string what = "byte " + std::to_string(at);
    const auto [normal, recovered] = scan_both(text);
    EXPECT_TRUE(is_prefix(normal.rows, intact.rows)) << what;
    if (normal.ok) {
      EXPECT_EQ(normal.rows.size(), intact.rows.size()) << what;
    } else {
      EXPECT_FALSE(normal.error.empty()) << what;
      ++failed;
    }
    expect_salvage(recovered, text.size(), what);
    EXPECT_EQ(recovered.rows, normal.rows) << what;
  }
  EXPECT_EQ(failed, kByteMutations);

  // Every byte of the file header: magic, version and the three zero
  // bytes.  Neither mode reads past a damaged header.
  for (std::size_t at = 0; at < 12; ++at) {
    for (const int flip : {0x01, 0x80, 0xFF}) {
      std::string text = bytes;
      text[at] =
          static_cast<char>(static_cast<unsigned char>(text[at]) ^ flip);
      const std::string what = "header byte " + std::to_string(at);
      const auto [normal, recovered] = scan_both(text);
      EXPECT_FALSE(normal.ok) << what;
      EXPECT_FALSE(normal.error.empty()) << what;
      EXPECT_TRUE(normal.rows.empty()) << what;
      EXPECT_FALSE(recovered.ok) << what;
      EXPECT_FALSE(recovered.recovery.ok) << what;
      EXPECT_TRUE(recovered.rows.empty()) << what;
    }
  }

  // Truncations: the rows kept are a prefix in both modes, and recover
  // mode keeps exactly what the normal scan delivered before the cut.
  // Cuts inside the header read as no colstore at all, or, in recover
  // mode, as a file torn before its first chunk.
  for (int i = 0; i < 150; ++i) {
    const std::size_t cut = rng.uniform_index(bytes.size());
    const std::string what = "cut " + std::to_string(cut);
    const auto [normal, recovered] = scan_both(bytes.substr(0, cut));
    EXPECT_TRUE(is_prefix(normal.rows, intact.rows)) << what;
    // A cut between chunks leaves a shorter valid file; any other cut
    // is an error.
    EXPECT_EQ(normal.ok, std::ranges::binary_search(bounds, cut)) << what;
    expect_salvage(recovered, cut, what);
    EXPECT_EQ(recovered.rows, normal.rows) << what;
  }

  // Splices of chunk ranges (chunks dropped, repeated or reordered,
  // every frame intact) and at random offsets: the dictionary and shape
  // deltas no longer line up, so the scan need only end cleanly.
  // The chunks before a splice at a boundary still deliver their rows.
  for (int i = 0; i < 300; ++i) {
    std::size_t from = 0;
    std::size_t to = 0;
    std::size_t kept_rows = 0;
    if (i % 2 == 0) {
      const std::size_t chunk = rng.uniform_index(bounds.size());
      from = bounds[chunk];
      to = bounds[rng.uniform_index(bounds.size())];
      kept_rows = std::min(chunk * options.rows_per_chunk, intact.rows.size());
    } else {
      from = rng.uniform_index(bytes.size() + 1);
      to = rng.uniform_index(bytes.size() + 1);
    }
    const std::string text = bytes.substr(0, from) + bytes.substr(to);
    const std::string what =
        "splice " + std::to_string(from) + " -> " + std::to_string(to);
    const auto [normal, recovered] = scan_both(text);
    EXPECT_TRUE(normal.ok || !normal.error.empty()) << what;
    ASSERT_GE(normal.rows.size(), kept_rows) << what;
    EXPECT_TRUE(std::equal(normal.rows.begin(),
                           normal.rows.begin() +
                               static_cast<std::ptrdiff_t>(kept_rows),
                           intact.rows.begin()))
        << what;
    if (from >= 12) expect_salvage(recovered, text.size(), what);
  }
}

TEST(ColstoreTest, TimeWindowAndKindFiltersSkipChunksCorrectly) {
  obs::EventLog log;
  std::int64_t ts = 0;
  for (int i = 0; i < 3000; ++i) {
    ts += 10;  // strictly increasing: chunks get disjoint windows
    if (i % 3 == 0) {
      log.emit(obs::Event("alpha", ts, i).field("site", std::int64_t{i % 7}));
    } else {
      log.emit(obs::Event("beta", ts, i).field("site", std::int64_t{i % 5}));
    }
  }
  TempFile file("colstore_skip.colstore");
  obs::ColWriterOptions options;
  options.rows_per_chunk = 200;
  const std::string full = log.to_ndjson();
  encode_colstore(full, file.path(), options);

  // Brute-force reference from the NDJSON text.
  const auto reference = [&full](auto&& keep) {
    std::string out;
    std::size_t start = 0;
    while (start < full.size()) {
      const std::size_t nl = full.find('\n', start);
      const std::string_view line(full.data() + start, nl - start);
      const auto v = util::json::parse(line);
      if (keep(*v)) {
        out += line;
        out += '\n';
      }
      start = nl + 1;
    }
    return out;
  };

  {  // Time window in the middle of the stream.
    obs::ColFilter filter;
    filter.ts_from = 10'000;
    filter.ts_to = 12'000;
    obs::ColReader reader(file.path(), filter);
    obs::DecodedEvent event;
    std::string got;
    while (reader.next(event)) {
      obs::append_ndjson(event, got);
      got += '\n';
    }
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(got, reference([](const util::json::Value& v) {
                const std::int64_t t = v.get_int("ts");
                return t >= 10'000 && t <= 12'000;
              }));
    EXPECT_GT(reader.stats().chunks_skipped, 0u);
    EXPECT_LT(reader.stats().rows_decoded, 3000u);
  }
  {  // Kind filter: "alpha" rows only, every chunk holds some.
    obs::ColFilter filter;
    filter.kinds = {"alpha"};
    EXPECT_EQ(decode_to_ndjson(file.path(), filter),
              reference([](const util::json::Value& v) {
                return v.get_string("kind") == "alpha";
              }));
  }
  {  // Site filter on decoded rows.
    obs::ColFilter filter;
    filter.site = 3;
    EXPECT_EQ(decode_to_ndjson(file.path(), filter),
              reference([](const util::json::Value& v) {
                return v.get_int("site", -1) == 3;
              }));
  }
  {  // A kind that never occurs skips every chunk.
    obs::ColFilter filter;
    filter.kinds = {"gamma"};
    obs::ColReader reader(file.path(), filter);
    obs::DecodedEvent event;
    EXPECT_FALSE(reader.next(event));
    EXPECT_TRUE(reader.ok());
    EXPECT_EQ(reader.stats().chunks_read, 0u);
    EXPECT_GT(reader.stats().chunks_skipped, 0u);
  }
}

TEST(ColstoreTest, CampaignReplayParityAndCompression) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.days = 0.25;
  config.seed = 20250401;
  TempFile ndjson_file("colstore_campaign.ndjson");
  TempFile col_file("colstore_campaign.colstore");
  obs::EventSinks sinks;
  sinks.ndjson_path = ndjson_file.path();
  sinks.colstore_path = col_file.path();
  obs::EventLog log(sinks);
  const auto live = scenario::run_campaign(config, {.events = &log});
  log.close();
  ASSERT_EQ(log.io_errors(), 0u);
  // The sink log freed its lines; the same campaign recorded into a log
  // without a file sink keeps the whole stream to compare with.
  obs::EventLog memory;
  std::ignore = scenario::run_campaign(config, {.events = &memory});
  memory.close();
  const std::string ndjson = memory.to_ndjson();

  // Byte parity: decoding the colstore re-renders the NDJSON exactly.
  EXPECT_EQ(decode_to_ndjson(col_file.path()), ndjson);
  EXPECT_EQ(read_file(ndjson_file.path()), ndjson);

  // Replay parity through the sniffing open_event_source path.
  const auto from_text = analysis::replay_events_file(ndjson_file.path());
  const auto from_col = analysis::replay_events_file(col_file.path());
  ASSERT_GT(from_text.lines_parsed, 0u);
  EXPECT_EQ(from_text.lines_parsed, from_col.lines_parsed);
  EXPECT_EQ(from_text.lines_skipped, from_col.lines_skipped);
  EXPECT_EQ(from_text.kind_counts, from_col.kind_counts);
  EXPECT_EQ(from_text.samples.size(), from_col.samples.size());
  EXPECT_EQ(from_text.flows->totals().flows, from_col.flows->totals().flows);
  EXPECT_TRUE(from_col.log_stats.present);
  EXPECT_EQ(from_col.log_stats.dropped, 0u);

  const auto text_counts = from_text.store.counts();
  const auto col_counts = from_col.store.counts();
  EXPECT_EQ(text_counts.jobs, col_counts.jobs);
  EXPECT_EQ(text_counts.files, col_counts.files);
  EXPECT_EQ(text_counts.transfers, col_counts.transfers);
  EXPECT_EQ(text_counts.jobs, live.store.counts().jobs);

  // The rebuilt stores must match identically under all three methods.
  const core::Matcher text_matcher(from_text.store);
  const core::Matcher col_matcher(from_col.store);
  const auto text_tri = core::run_all_methods(text_matcher);
  const auto col_tri = core::run_all_methods(col_matcher);
  EXPECT_EQ(text_tri.exact.matched_job_count(),
            col_tri.exact.matched_job_count());
  EXPECT_EQ(text_tri.rm1.matched_job_count(),
            col_tri.rm1.matched_job_count());
  EXPECT_EQ(text_tri.rm2.matched_job_count(),
            col_tri.rm2.matched_job_count());
  EXPECT_EQ(text_tri.rm2.matched_transfer_count(),
            col_tri.rm2.matched_transfer_count());

  // Acceptance: the columnar file is at most 35% of the NDJSON bytes.
  const std::string ndjson_bytes = read_file(ndjson_file.path());
  const std::string col_bytes = read_file(col_file.path());
  ASSERT_GT(ndjson_bytes.size(), 0u);
  EXPECT_LE(static_cast<double>(col_bytes.size()),
            0.35 * static_cast<double>(ndjson_bytes.size()))
      << col_bytes.size() << " / " << ndjson_bytes.size();
}

/// Builder events at every edge of the record's typing and escaping
/// rules: integral, non-finite and huge doubles, int64/uint64 extremes,
/// every escaped byte class, escaped keys, kinds and string entities,
/// extra members named like the core keys, and events wider than the
/// record's inline capacity.
void emit_adversarial_events(obs::EventLog& log) {
  const double inf = std::numeric_limits<double>::infinity();
  log.emit(obs::Event("doubles", 1, std::int64_t{1})
               .field("zero", 0.0)
               .field("neg_zero", -0.0)
               .field("three", 3.0)
               .field("e16", 1e16)
               .field("e17", 1e17)
               .field("tenth", 0.1)
               .field("nan", std::numeric_limits<double>::quiet_NaN())
               .field("inf", inf)
               .field("neg_inf", -inf));
  log.emit(obs::Event("ints", 2, std::int64_t{-2})
               .field("u64_max", std::numeric_limits<std::uint64_t>::max())
               .field("u64_top", std::uint64_t{1} << 63)
               .field("i64_min", std::numeric_limits<std::int64_t>::min())
               .field("i64_max", std::numeric_limits<std::int64_t>::max())
               .field("i32", std::int32_t{-7})
               .field("u32", std::uint32_t{7})
               .field("flag", true)
               .field("off", false));
  log.emit(obs::Event("strings", 3, std::int64_t{3})
               .field("quote", "a\"b")
               .field("backslash", "a\\b")
               .field("newline", "a\nb")
               .field("tab", "a\tb")
               .field("ctrl_01", std::string_view("a\x01z", 3))
               .field("ctrl_1f", std::string_view("a\x1fz", 3))
               .field("utf8", "caf\xc3\xa9 \xe2\x82\xac")
               .field("empty", ""));
  log.emit(obs::Event("esc\"kind\t", 4, std::string_view("ent\"ity\n\\"))
               .field("we\"ird\\key", std::int64_t{5})
               .field("ts", std::int64_t{6})
               .field("kind", "shadow")
               .field("entity", 7.5));
  log.emit(obs::Event("empty_entity", 5, std::string_view("")));
  for (const std::size_t width : {obs::EventRecord::kInlineFields,
                                  obs::EventRecord::kInlineFields + 5}) {
    obs::Event wide("wide", 6, static_cast<std::int64_t>(width));
    for (std::size_t i = 0; i < width; ++i) {
      const std::string key = "f" + std::to_string(i);
      switch (i % 4) {
        case 0: std::move(wide).field(key, static_cast<std::int64_t>(i)); break;
        case 1: std::move(wide).field(key, 0.25 * static_cast<double>(i)); break;
        case 2: std::move(wide).field(key, "v\"" + key); break;
        default: std::move(wide).field(key, i % 8 == 3); break;
      }
    }
    log.emit(std::move(wide));
  }
}

TEST(ColstoreTest, TypedRecordEncodesLikeParsedLines) {
  TempFile ndjson_file("typed_record.ndjson");
  TempFile col_file("typed_record.colstore");
  TempFile parsed_file("typed_record_parsed.colstore");
  {
    obs::EventSinks sinks;
    sinks.ndjson_path = ndjson_file.path();
    sinks.colstore_path = col_file.path();
    obs::EventLog log(sinks);
    emit_adversarial_events(log);
    log.close();
    ASSERT_EQ(log.io_errors(), 0u);
  }
  const std::string ndjson = read_file(ndjson_file.path());

  // The sink encoded from the builder's records; the line path parses
  // the same lines.  The two files must agree byte for byte.
  encode_colstore(ndjson, parsed_file.path(), {});
  const std::string col = read_file(col_file.path());
  ASSERT_FALSE(col.empty());
  EXPECT_TRUE(col == read_file(parsed_file.path()));

  // Decoding gives back the NDJSON, except where util::json::parse
  // itself reads a rendering back differently: `-0` is the int 0, and
  // an integer past INT64_MAX is a double.
  std::string expected = ndjson;
  const auto replace = [&expected](std::string_view from, std::string_view to) {
    const std::size_t at = expected.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    expected.replace(at, from.size(), to);
  };
  replace("\"neg_zero\":-0,", "\"neg_zero\":0,");
  replace("\"u64_max\":18446744073709551615,",
          "\"u64_max\":1.8446744073709552e+19,");
  replace("\"u64_top\":9223372036854775808,",
          "\"u64_top\":9.2233720368547758e+18,");
  EXPECT_EQ(decode_to_ndjson(col_file.path()), expected);
}

TEST(ColstoreTest, LogStatsReportsTruncation) {
  obs::EventLog log(/*max_events=*/10);
  for (int i = 0; i < 50; ++i) {
    log.emit(obs::Event("tick", i, i));
  }
  log.close();
  log.close();  // idempotent
  EXPECT_EQ(log.event_count(), 11u);  // 10 kept + terminal log_stats
  EXPECT_EQ(log.dropped(), 40u);

  std::istringstream in(log.to_ndjson());
  const auto replay = analysis::replay_events(in);
  EXPECT_TRUE(replay.log_stats.present);
  EXPECT_EQ(replay.log_stats.events, 10u);
  EXPECT_EQ(replay.log_stats.dropped, 40u);
  EXPECT_GT(replay.log_stats.bytes, 0u);
}

TEST(ColstoreTest, NdjsonSourceBoundsLineLength) {
  std::string stream = "{\"ts\":1,\"kind\":\"a\",\"entity\":1}\n";
  stream += std::string(analysis::kMaxNdjsonLine + 100, 'x');  // no newline
  stream += "\n{\"ts\":2,\"kind\":\"b\",\"entity\":2}\n";
  std::istringstream in(stream);
  const auto source = analysis::make_ndjson_source(in);
  std::size_t events = 0;
  while (source->next() != nullptr) ++events;
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(source->skipped(), 1u);
}

}  // namespace
}  // namespace pandarus
