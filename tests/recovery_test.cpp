// Torn-tail recovery: truncate the NDJSON and colstore sinks at every
// byte offset of their final 4 KiB and salvage — never a crash, always
// the longest valid prefix.  A sparse subset is replayed end-to-end to
// check the salvaged stream's matched counts never exceed the full
// run's.  The file salvage, which reads in 64 KiB blocks, must agree with
// the in-memory one on seeded mutations and hand-placed block splits.
// Also covers the PANDARUS_EVENTS_FSYNC spec parser and the recover-file
// round trips (in place and to a new path).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "analysis/event_source.hpp"
#include "analysis/events_replay.hpp"
#include "core/relaxed.hpp"
#include "obs/colstore.hpp"
#include "obs/event_log.hpp"
#include "obs/recover.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace pandarus {
namespace {

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

void write_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Small synthetic stream (a few hundred lines, ~10 chunks as colstore)
/// for the dense every-offset fuzz; built once.  Its colstore lives in
/// the temp directory under a per-process name and goes at exit.
struct SyntheticStream {
  std::string ndjson;
  TempFile colstore{(std::filesystem::temp_directory_path() /
                     ("recovery_synth." + std::to_string(::getpid()) +
                      ".pcol"))
                        .string()};
  std::uint64_t events = 0;
};

const SyntheticStream& synthetic() {
  static const std::unique_ptr<SyntheticStream> stream = [] {
    auto s = std::make_unique<SyntheticStream>();
    obs::EventLog log;
    for (int i = 0; i < 600; ++i) {
      log.emit(obs::Event("synthetic", i, std::int64_t{i})
                   .field("payload",
                          std::string(static_cast<std::size_t>(i % 37), 'x'))
                   .field("value", 0.25 * i)
                   .field("flag", i % 3 == 0));
    }
    log.close();
    s->ndjson = log.to_ndjson();
    s->events = log.events_written();  // includes the terminal log_stats
    // Small chunks, so encode the text as `pandarus-events convert`
    // does rather than through the log's default-sized sink.
    obs::ColWriterOptions options;
    options.rows_per_chunk = 64;
    obs::ColWriter writer(s->colstore.path(), options);
    std::istringstream in(s->ndjson);
    std::string line;
    while (std::getline(in, line)) writer.append_ndjson_line(line);
    EXPECT_TRUE(writer.close()) << writer.error();
    return s;
  }();
  return *stream;
}

/// Campaign artifacts for the sparse replay subset; built once.
struct CampaignStream {
  std::string ndjson;
  std::size_t jobs = 0;
  std::size_t transfers = 0;
  std::size_t exact_matched = 0;
};

const CampaignStream& campaign() {
  static const CampaignStream* stream = [] {
    auto* s = new CampaignStream;
    scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
    config.seed = 7;
    obs::EventLog log;
    (void)scenario::run_campaign(config, {.events = &log});
    log.close();
    s->ndjson = log.to_ndjson();
    TempFile full("recovery_full.ndjson");
    write_file(full.path(), s->ndjson);
    const analysis::ReplayResult replay =
        analysis::replay_events_file(full.path());
    s->jobs = replay.store.counts().jobs;
    s->transfers = replay.store.counts().transfers;
    const core::Matcher matcher(replay.store);
    s->exact_matched =
        core::run_all_methods(matcher).exact.matched_job_count();
    return s;
  }();
  return *stream;
}

TEST(RecoveryTest, ParseFsyncPolicy) {
  obs::FsyncConfig config;
  EXPECT_TRUE(obs::parse_fsync_policy("off", config));
  EXPECT_EQ(config.policy, obs::FsyncPolicy::kOff);
  EXPECT_TRUE(obs::parse_fsync_policy("flush", config));
  EXPECT_EQ(config.policy, obs::FsyncPolicy::kFlush);
  EXPECT_TRUE(obs::parse_fsync_policy("interval:250", config));
  EXPECT_EQ(config.policy, obs::FsyncPolicy::kInterval);
  EXPECT_EQ(config.interval_ms, 250);
  for (const char* bad :
       {"", "Flush", "interval", "interval:", "interval:0", "interval:-5",
        "interval:abc", "fsync"}) {
    obs::FsyncConfig untouched;
    EXPECT_FALSE(obs::parse_fsync_policy(bad, untouched)) << bad;
    EXPECT_EQ(untouched.policy, obs::FsyncPolicy::kOff) << bad;
  }
}

TEST(RecoveryTest, NdjsonEveryTornOffset) {
  const SyntheticStream& s = synthetic();
  const std::size_t begin =
      s.ndjson.size() > 4096 ? s.ndjson.size() - 4096 : 0;
  for (std::size_t cut = begin; cut <= s.ndjson.size(); ++cut) {
    const std::string_view prefix(s.ndjson.data(), cut);
    const obs::RecoveryReport report = obs::salvage_ndjson(prefix);
    ASSERT_TRUE(report.ok);
    ASSERT_LE(report.salvaged_bytes, cut);
    ASSERT_EQ(report.salvaged_bytes + report.dropped_bytes, cut);
    // The survivor is itself a whole-line prefix of the original.
    ASSERT_TRUE(report.salvaged_bytes == 0 ||
                prefix[report.salvaged_bytes - 1] == '\n');
    // A clean cut on a line boundary loses nothing.
    if (cut == 0 || prefix.back() == '\n') {
      EXPECT_EQ(report.salvaged_bytes, cut);
      EXPECT_FALSE(report.truncated);
    } else {
      EXPECT_TRUE(report.truncated);
    }
  }
}

TEST(RecoveryTest, ColstoreEveryTornOffset) {
  const SyntheticStream& s = synthetic();
  const std::string bytes = read_file(s.colstore.path());
  ASSERT_GT(bytes.size(), 12u);
  TempFile torn("recovery_torn.pcol");
  // Every cut inside the 12-byte file header, then the final 4 KiB at
  // most.
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut <= 12; ++cut) cuts.push_back(cut);
  const std::size_t tail =
      std::max<std::size_t>(13, bytes.size() > 4096 ? bytes.size() - 4096
                                                    : 13);
  for (std::size_t cut = tail; cut <= bytes.size(); ++cut) cuts.push_back(cut);
  std::uint64_t previous_events = 0;
  for (const std::size_t cut : cuts) {
    write_file(torn.path(), std::string_view(bytes.data(), cut));
    // `pandarus-events recover` picks the format by this: a file torn
    // inside the 8-byte magic is still a colstore, and a 0-byte file
    // holds no byte that tells the formats apart.
    ASSERT_EQ(obs::starts_like_colstore_file(torn.path()), cut > 0) << cut;
    ASSERT_EQ(obs::is_colstore_file(torn.path()), cut >= 8) << cut;
    obs::ColReader reader(torn.path(), obs::ColFilter{},
                          obs::ColReadOptions{/*recover=*/true});
    obs::DecodedEvent event;
    std::uint64_t rows = 0;
    while (reader.next(event)) ++rows;
    const obs::RecoveryReport& report = reader.recovery();
    ASSERT_TRUE(report.ok) << "cut=" << cut << ": " << report.detail;
    ASSERT_EQ(report.salvaged_events, rows);
    ASSERT_LE(report.salvaged_bytes, cut);
    if (cut < 12) {
      // A crash before the writer's first flush: nothing to keep.
      ASSERT_TRUE(report.truncated) << "cut=" << cut;
      ASSERT_EQ(report.salvaged_bytes, 0u) << "cut=" << cut;
      ASSERT_EQ(report.dropped_bytes, cut) << "cut=" << cut;
    }
    // Salvage is monotone in the prefix length.
    ASSERT_GE(rows, previous_events) << "cut=" << cut;
    previous_events = rows;
  }
  EXPECT_EQ(previous_events, s.events);
}

TEST(RecoveryTest, ShortFileThatIsNoHeaderPrefixIsNotAColstore) {
  TempFile shorter("recovery_short.pcol");
  for (const std::string_view bytes :
       {std::string_view("PCOLSTR2"), std::string_view("hello")}) {
    write_file(shorter.path(), bytes);
    EXPECT_FALSE(obs::starts_like_colstore_file(shorter.path())) << bytes;
    obs::ColReader reader(shorter.path(), obs::ColFilter{},
                          obs::ColReadOptions{/*recover=*/true});
    obs::DecodedEvent event;
    EXPECT_FALSE(reader.next(event));
    EXPECT_FALSE(reader.ok()) << bytes;
    EXPECT_NE(reader.error().find("not a colstore file"), std::string::npos)
        << reader.error();
  }
}

TEST(RecoveryTest, ColstoreTornTailIsHardErrorWithoutRecover) {
  const SyntheticStream& s = synthetic();
  const std::string bytes = read_file(s.colstore.path());
  TempFile torn("recovery_torn_strict.pcol");
  write_file(torn.path(),
             std::string_view(bytes.data(), bytes.size() - 7));
  obs::ColReader reader(torn.path());
  obs::DecodedEvent event;
  while (reader.next(event)) {
  }
  EXPECT_FALSE(reader.ok());
}

TEST(RecoveryTest, RecoverNdjsonFileInPlaceAndToNewPath) {
  const SyntheticStream& s = synthetic();
  TempFile damaged("recovery_damaged.ndjson");
  TempFile repaired("recovery_repaired.ndjson");
  // Cut mid-line.
  const std::size_t cut = s.ndjson.size() - 13;
  write_file(damaged.path(), std::string_view(s.ndjson.data(), cut));
  obs::RecoveryReport report =
      obs::recover_ndjson_file(damaged.path(), repaired.path());
  ASSERT_TRUE(report.ok);
  EXPECT_TRUE(report.truncated);
  const std::string out = read_file(repaired.path());
  EXPECT_EQ(out.size(), report.salvaged_bytes);
  EXPECT_EQ(out, s.ndjson.substr(0, out.size()));
  // In place: same survivor, and a second pass is a no-op.
  report = obs::recover_ndjson_file(damaged.path(), damaged.path());
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(read_file(damaged.path()), out);
  report = obs::recover_ndjson_file(damaged.path(), damaged.path());
  ASSERT_TRUE(report.ok);
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(read_file(damaged.path()), out);
}

TEST(RecoveryTest, RecoverColstoreFileDropsTornChunk) {
  const SyntheticStream& s = synthetic();
  const std::string bytes = read_file(s.colstore.path());
  TempFile damaged("recovery_damaged.pcol");
  TempFile repaired("recovery_repaired.pcol");
  write_file(damaged.path(),
             std::string_view(bytes.data(), bytes.size() - 31));
  const obs::RecoveryReport report =
      obs::recover_colstore_file(damaged.path(), repaired.path());
  ASSERT_TRUE(report.ok);
  EXPECT_TRUE(report.truncated);
  EXPECT_LT(report.salvaged_events, s.events);
  // The repaired file scans cleanly without recover mode.
  obs::ColReader reader(repaired.path());
  obs::DecodedEvent event;
  std::uint64_t rows = 0;
  while (reader.next(event)) ++rows;
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(rows, report.salvaged_events);
}

TEST(RecoveryTest, SparseTornReplayNeverExceedsFullCounts) {
  const CampaignStream& full = campaign();
  ASSERT_GT(full.ndjson.size(), 4096u);
  ASSERT_GT(full.exact_matched, 0u);
  TempFile torn("recovery_torn_replay.ndjson");
  // A handful of offsets across the final 4 KiB — the dense loop above
  // covers salvage itself; this end-to-end subset keeps runtime sane.
  for (const std::size_t back : {1u, 97u, 1033u, 4095u}) {
    const std::size_t cut = full.ndjson.size() - back;
    const obs::RecoveryReport report =
        obs::salvage_ndjson(std::string_view(full.ndjson.data(), cut));
    ASSERT_TRUE(report.ok);
    write_file(torn.path(),
               std::string_view(full.ndjson.data(), report.salvaged_bytes));
    const analysis::ReplayResult replay =
        analysis::replay_events_file(torn.path());
    EXPECT_LE(replay.store.counts().jobs, full.jobs);
    EXPECT_LE(replay.store.counts().transfers, full.transfers);
    const core::Matcher matcher(replay.store);
    EXPECT_LE(core::run_all_methods(matcher).exact.matched_job_count(),
              full.exact_matched)
        << "cut=" << cut;
  }
}

/// recover_ndjson_file reads its input in 64 KiB blocks, salvage_ndjson
/// takes the bytes whole: both must report the same salvage, and the
/// file path must keep exactly that prefix.
void expect_file_salvage_matches(const std::string& bytes,
                                 const std::string& what) {
  TempFile in("recovery_split.ndjson");
  TempFile out("recovery_split_out.ndjson");
  write_file(in.path(), bytes);
  const obs::RecoveryReport file =
      obs::recover_ndjson_file(in.path(), out.path());
  const obs::RecoveryReport whole = obs::salvage_ndjson(bytes);
  ASSERT_TRUE(file.ok) << what << ": " << file.detail;
  ASSERT_TRUE(whole.ok) << what;
  EXPECT_EQ(file.truncated, whole.truncated) << what;
  EXPECT_EQ(file.salvaged_events, whole.salvaged_events) << what;
  EXPECT_EQ(file.salvaged_bytes, whole.salvaged_bytes) << what;
  EXPECT_EQ(file.dropped_bytes, whole.dropped_bytes) << what;
  EXPECT_EQ(file.detail, whole.detail) << what;
  EXPECT_TRUE(read_file(out.path()) == bytes.substr(0, whole.salvaged_bytes))
      << what;
}

TEST(RecoveryTest, FileSalvageMatchesBytesOnMutationsAndBlockSplits) {
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  const std::string& stream = campaign().ndjson;
  ASSERT_GT(stream.size(), 5 * kBlock);
  const auto pad_line = [](std::size_t length) {
    const std::string head = "{\"ts\":1,\"kind\":\"pad\",\"entity\":1,\"pad\":\"";
    return head + std::string(length - head.size() - 3, 'x') + "\"}\n";
  };
  const auto whole_lines = [&stream](std::size_t at_most) {
    return stream.substr(0, stream.rfind('\n', at_most - 1) + 1);
  };

  // A line longer than one block, between whole lines.
  std::string bytes = whole_lines(1000) + pad_line(kBlock + 4321) +
                      stream.substr(0, 3 * kBlock);
  expect_file_salvage_matches(bytes, "line longer than a block");
  // The first block ends on '\n'.
  bytes = whole_lines(kBlock - 500);
  bytes += pad_line(kBlock - bytes.size()) + stream.substr(0, 2 * kBlock);
  ASSERT_EQ(bytes[kBlock - 1], '\n');
  expect_file_salvage_matches(bytes, "block ending on a newline");
  // A torn final line.
  bytes = stream.substr(0, 3 * kBlock + 77);
  ASSERT_NE(bytes.back(), '\n');
  expect_file_salvage_matches(bytes, "torn final line");
  // A tail with no newline, longer than the 1 MiB line cap.
  bytes = whole_lines(2 * kBlock) + std::string(std::size_t{3} << 19, '\0');
  expect_file_salvage_matches(bytes, "newline-free tail");
  EXPECT_EQ(obs::salvage_ndjson(bytes).detail, "line too long");

  // Seeded flips, truncations and splices of a multi-block window.
  const std::string window = whole_lines(5 * kBlock);
  util::Rng rng(20251018);
  std::size_t truncated = 0;
  for (int i = 0; i < 60; ++i) {
    std::string text = window;
    switch (i % 3) {
      case 0:  // flip one byte
        text[rng.uniform_index(text.size())] =
            static_cast<char>(rng.uniform_index(256));
        break;
      case 1:  // truncate
        text.resize(rng.uniform_index(text.size()));
        break;
      default:  // splice a prefix onto a suffix from elsewhere
        text = text.substr(0, rng.uniform_index(text.size() + 1)) +
               window.substr(rng.uniform_index(window.size() + 1));
        break;
    }
    if (obs::salvage_ndjson(text).truncated) ++truncated;
    expect_file_salvage_matches(text, "mutation " + std::to_string(i));
  }
  // The mutations reach both whole and damaged streams.
  EXPECT_GT(truncated, 10u);
  EXPECT_LT(truncated, 60u);
}

}  // namespace
}  // namespace pandarus
