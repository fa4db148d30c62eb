// Torn-tail recovery: truncate the NDJSON and colstore sinks at every
// byte offset of their final 4 KiB and salvage — never a crash, always
// the longest valid prefix.  A sparse subset is replayed end-to-end to
// check the salvaged stream's matched counts never exceed the full
// run's.  Also covers the PANDARUS_EVENTS_FSYNC spec parser and the
// recover-file round trips (in place and to a new path).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/event_source.hpp"
#include "analysis/events_replay.hpp"
#include "core/relaxed.hpp"
#include "obs/colstore.hpp"
#include "obs/event_log.hpp"
#include "obs/recover.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"
#include "util/json.hpp"

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
/// for the dense every-offset fuzz; built once.
struct SyntheticStream {
  std::string ndjson;
  std::string colstore_path = "recovery_synth.pcol";
  std::uint64_t events = 0;
};

const SyntheticStream& synthetic() {
  static const SyntheticStream* stream = [] {
    auto* s = new SyntheticStream;
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
    obs::ColWriter writer(s->colstore_path, options);
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
  const std::string bytes = read_file(s.colstore_path);
  ASSERT_GT(bytes.size(), 12u);
  TempFile torn("recovery_torn.pcol");
  // Start past the 12-byte file header (shorter prefixes are a hard
  // "not a colstore file" even in recover mode) and cover the final
  // 4 KiB at most.
  const std::size_t begin =
      std::max<std::size_t>(13, bytes.size() > 4096 ? bytes.size() - 4096
                                                    : 13);
  std::uint64_t previous_events = 0;
  for (std::size_t cut = begin; cut <= bytes.size(); ++cut) {
    write_file(torn.path(), std::string_view(bytes.data(), cut));
    obs::ColReader reader(torn.path(), obs::ColFilter{},
                          obs::ColReadOptions{/*recover=*/true});
    obs::DecodedEvent event;
    std::uint64_t rows = 0;
    while (reader.next(event)) ++rows;
    const obs::RecoveryReport& report = reader.recovery();
    ASSERT_TRUE(report.ok) << "cut=" << cut << ": " << report.detail;
    ASSERT_EQ(report.salvaged_events, rows);
    ASSERT_LE(report.salvaged_bytes, cut);
    // Salvage is monotone in the prefix length.
    ASSERT_GE(rows, previous_events) << "cut=" << cut;
    previous_events = rows;
  }
  EXPECT_EQ(previous_events, s.events);
}

TEST(RecoveryTest, ColstoreTornTailIsHardErrorWithoutRecover) {
  const SyntheticStream& s = synthetic();
  const std::string bytes = read_file(s.colstore_path);
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
  const std::string bytes = read_file(s.colstore_path);
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

}  // namespace
}  // namespace pandarus
