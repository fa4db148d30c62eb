// Resume: a crashed campaign's salvaged files are checked, byte for
// byte, as prefixes of a re-run's files, and the re-run's files equal an
// uninterrupted run's.  The stream's first line carries the config
// digest, so a resume under another config — including one that differs
// only in knobs that act at the harvest — fails within that line, and a
// resume without the hooks the crashed run had (the health engine's
// alert lines) fails where their first line sits.
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <tuple>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "obs/event_log.hpp"
#include "obs/flow.hpp"
#include "obs/health.hpp"
#include "obs/recover.hpp"
#include "scenario/campaign.hpp"
#include "scenario/config.hpp"
#include "util/time.hpp"

namespace pandarus {
namespace {

std::string read_file(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

void write_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

/// `<stem>.ndjson` and `<stem>.colstore`, removed on scope exit.
struct SinkFiles {
  explicit SinkFiles(const std::string& stem) {
    sinks.ndjson_path = stem + ".ndjson";
    sinks.colstore_path = stem + ".colstore";
  }
  ~SinkFiles() {
    std::remove(sinks.ndjson_path.c_str());
    std::remove(sinks.colstore_path.c_str());
  }
  SinkFiles(const SinkFiles&) = delete;
  SinkFiles& operator=(const SinkFiles&) = delete;

  obs::EventSinks sinks;
};

/// The bytes a campaign wrote to its two sink files.
struct Recording {
  std::string ndjson;
  std::string colstore;
};

Recording record(const scenario::ScenarioConfig& config,
                 obs::FlowTracker* flows = nullptr,
                 obs::HealthEngine* health = nullptr) {
  const SinkFiles files("resume_record");
  {
    obs::EventLog log(files.sinks);
    std::ignore = scenario::run_campaign(
        config, {.events = &log, .flows = flows, .health = health});
    log.close();
  }
  return {read_file(files.sinks.ndjson_path),
          read_file(files.sinks.colstore_path)};
}

scenario::ScenarioConfig seed7() {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = 7;
  return config;
}

/// The uninterrupted small seed-7 campaign; recorded once.
const Recording& reference() {
  static const Recording recording = record(seed7());
  return recording;
}

/// A crashed run's files: the first bytes of each recorded file, cut
/// back to their valid prefix as a crash would leave them salvaged.
struct Salvage : SinkFiles {
  Salvage(const Recording& from, std::size_t ndjson_cut,
          std::size_t colstore_cut)
      : SinkFiles("resume_salvage") {
    write_file(sinks.ndjson_path, std::string_view(from.ndjson).substr(
                                      0, ndjson_cut));
    write_file(sinks.colstore_path, std::string_view(from.colstore).substr(
                                        0, colstore_cut));
    const obs::RecoveryReport nd =
        obs::recover_ndjson_file(sinks.ndjson_path, sinks.ndjson_path);
    const obs::RecoveryReport col =
        obs::recover_colstore_file(sinks.colstore_path, sinks.colstore_path);
    EXPECT_TRUE(nd.ok && col.ok) << nd.detail << col.detail;
    bytes = nd.salvaged_bytes + col.salvaged_bytes;
  }

  std::uint64_t bytes = 0;
};

struct Resumed {
  scenario::ResumeOutcome outcome;
  Recording files;
};

/// Resumes `config` against `crashed` into fresh sink files.
Resumed resume(const scenario::ScenarioConfig& config,
               const obs::EventSinks& crashed,
               obs::FlowTracker* flows = nullptr,
               obs::HealthEngine* health = nullptr) {
  const SinkFiles files("resume_rerun");
  obs::EventLog log(files.sinks);
  Resumed out;
  out.outcome = scenario::resume_campaign(
      config, {.events = &log, .flows = flows, .health = health}, crashed);
  out.files = {read_file(files.sinks.ndjson_path),
               read_file(files.sinks.colstore_path)};
  return out;
}

std::size_t first_line_length(const std::string& ndjson) {
  return ndjson.find('\n');
}

TEST(ResumeTest, ConfigDigestSeparatesSeedsNotOutputKnobs) {
  const scenario::ScenarioConfig a = scenario::ScenarioConfig::small();
  const auto differs = [&a](auto&& change) {
    scenario::ScenarioConfig b = a;
    change(b);
    return scenario::config_digest(a) != scenario::config_digest(b);
  };
  EXPECT_EQ(scenario::config_digest(a), scenario::config_digest(a));
  EXPECT_TRUE(differs([](auto& c) { c.seed += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.days *= 2; }));
  // Knobs that act only at the harvest or when a fault window begins.
  EXPECT_TRUE(differs([](auto& c) { c.recorder.p_partial_read_job = 0.5; }));
  EXPECT_TRUE(
      differs([](auto& c) { c.corruption.p_drop_file_record = 0.5; }));
  EXPECT_TRUE(
      differs([](auto& c) { c.faults.link_blackouts_per_day = 3.0; }));
  fault::FaultWindow window;
  window.begin = util::days(1);
  window.end = util::days(2);
  scenario::ScenarioConfig with_window = a;
  with_window.fault_windows.push_back(window);
  scenario::ScenarioConfig later_window = with_window;
  later_window.fault_windows[0].end = util::days(3);
  EXPECT_NE(scenario::config_digest(with_window),
            scenario::config_digest(later_window));
}

TEST(ResumeTest, StreamStartsWithTheConfigDigest) {
  const std::string& ndjson = reference().ndjson;
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    scenario::config_digest(seed7())));
  EXPECT_EQ(ndjson.substr(0, first_line_length(ndjson) + 1),
            std::string("{\"ts\":0,\"kind\":\"campaign_config\",\"entity\":0,"
                        "\"digest\":\"") +
                digest + "\"}\n");
}

TEST(ResumeTest, ResumedFilesEqualAnUninterruptedRun) {
  const Recording& ref = reference();
  // The crash tore both files: the NDJSON mid-line, the colstore mid-way.
  const Salvage salvage(ref, ref.ndjson.size() * 3 / 5,
                        ref.colstore.size() / 2);
  ASSERT_GT(salvage.bytes, 0u);
  const Resumed resumed = resume(seed7(), salvage.sinks);
  ASSERT_TRUE(resumed.outcome.ok) << resumed.outcome.error;
  EXPECT_EQ(resumed.outcome.verified_bytes, salvage.bytes);
  EXPECT_TRUE(resumed.files.ndjson == ref.ndjson);
  EXPECT_TRUE(resumed.files.colstore == ref.colstore);
  EXPECT_GT(resumed.outcome.result.store.counts().transfers, 0u);
}

TEST(ResumeTest, ResumeRunsBesideAnotherLogAndLeavesItAlone) {
  const Recording& ref = reference();
  const Salvage salvage(ref, ref.ndjson.size() / 3, ref.colstore.size());

  // Another log in the process, holding published lines of its own.
  obs::EventLog other;
  other.emit(obs::Event("probe", 1, std::int64_t{1}));
  other.emit(obs::Event("probe", 2, std::int64_t{2}));
  ASSERT_EQ(other.publish(), 2u);
  const std::string before = other.to_ndjson();

  const Resumed resumed = resume(seed7(), salvage.sinks);
  ASSERT_TRUE(resumed.outcome.ok) << resumed.outcome.error;
  EXPECT_TRUE(resumed.files.ndjson == ref.ndjson);
  // The re-run reported to its own session only.
  EXPECT_EQ(other.events_written(), 2u);
  EXPECT_EQ(other.watermark(), 2u);
  EXPECT_EQ(other.to_ndjson(), before);
}

TEST(ResumeTest, ResumeFromEmptySalvageRunsFromScratch) {
  // Killed before the first line reached the NDJSON file and before the
  // first chunk reached the colstore: only its 12-byte header survives,
  // or (killed before the colstore's first flush) none of it.
  const Recording& ref = reference();
  for (const std::size_t colstore_cut : {ref.colstore.size() / 2,
                                         std::size_t{0}}) {
    const Salvage salvage(ref, 0, colstore_cut);
    EXPECT_EQ(salvage.bytes, colstore_cut == 0 ? 0u : 12u);
    const Resumed resumed = resume(seed7(), salvage.sinks);
    EXPECT_TRUE(resumed.outcome.ok) << resumed.outcome.error;
    EXPECT_EQ(resumed.outcome.verified_bytes, salvage.bytes);
    EXPECT_TRUE(resumed.files.ndjson == ref.ndjson);
  }
}

TEST(ResumeTest, ResumeRejectsMismatchedConfig) {
  const Recording& ref = reference();
  const Salvage salvage(ref, ref.ndjson.size() / 2,
                        ref.colstore.size() / 2);
  scenario::ScenarioConfig other = seed7();
  other.seed = 8;
  const Resumed resumed = resume(other, salvage.sinks);
  EXPECT_FALSE(resumed.outcome.ok);
  EXPECT_LT(resumed.outcome.verified_bytes, first_line_length(ref.ndjson));
  EXPECT_NE(resumed.outcome.error.find(salvage.sinks.ndjson_path),
            std::string::npos)
      << resumed.outcome.error;
}

TEST(ResumeTest, ResumeRejectsSalvageWithOneByteFlipped) {
  Recording tampered = reference();
  // A digit of the first transfer_record line's entity: the line still
  // parses, so the salvage keeps it.
  const std::size_t record = tampered.ndjson.find("\"transfer_record\"");
  ASSERT_NE(record, std::string::npos);
  const std::size_t offset =
      tampered.ndjson.find("\"entity\":", record) + std::string_view("\"entity\":").size();
  char& digit = tampered.ndjson[offset];
  ASSERT_TRUE(digit >= '0' && digit <= '9');
  digit = digit == '9' ? '8' : static_cast<char>(digit + 1);
  const Salvage salvage(tampered, tampered.ndjson.size(),
                        tampered.colstore.size());

  const Resumed resumed = resume(seed7(), salvage.sinks);
  EXPECT_FALSE(resumed.outcome.ok);
  EXPECT_EQ(resumed.outcome.verified_bytes, offset);
  EXPECT_NE(resumed.outcome.error.find("at byte " + std::to_string(offset)),
            std::string::npos)
      << resumed.outcome.error;
}

TEST(ResumeTest, ResumeRejectsHarvestOnlyConfigChanges) {
  const Recording& ref = reference();
  // Cut before the harvest: nothing in the salvage but its first line
  // depends on the recorder or corruption knobs.
  const std::size_t harvest = ref.ndjson.find("\"kind\":\"campaign_meta\"");
  ASSERT_NE(harvest, std::string::npos);
  const Salvage salvage(ref, harvest, ref.colstore.size() / 2);

  scenario::ScenarioConfig corrupted = seed7();
  corrupted.corruption.p_drop_file_record = 0.5;
  scenario::ScenarioConfig recorded = seed7();
  recorded.recorder.p_partial_read_job = 0.5;
  for (const scenario::ScenarioConfig& config : {corrupted, recorded}) {
    const Resumed resumed = resume(config, salvage.sinks);
    EXPECT_FALSE(resumed.outcome.ok);
    EXPECT_LT(resumed.outcome.verified_bytes, first_line_length(ref.ndjson))
        << resumed.outcome.error;
  }
}

TEST(ResumeTest, ResumeWithHealthArmedNeedsTheSameHooks) {
  scenario::ScenarioConfig config = scenario::ScenarioConfig::small();
  config.seed = 20250401;
  Recording full;
  {
    obs::FlowTracker flows;
    obs::HealthEngine health;
    full = record(config, &flows, &health);
  }
  // Cut a few bytes into the line after the first alert.
  const std::size_t alert = full.ndjson.find("\"kind\":\"alert\"");
  ASSERT_NE(alert, std::string::npos);
  const Salvage salvage(full, full.ndjson.find('\n', alert) + 5,
                        full.colstore.size() / 2);

  {
    obs::FlowTracker flows;
    obs::HealthEngine health;
    const Resumed resumed = resume(config, salvage.sinks, &flows, &health);
    ASSERT_TRUE(resumed.outcome.ok) << resumed.outcome.error;
    EXPECT_EQ(resumed.outcome.verified_bytes, salvage.bytes);
    EXPECT_TRUE(resumed.files.ndjson == full.ndjson);
    EXPECT_TRUE(resumed.files.colstore == full.colstore);
  }
  obs::FlowTracker flows;
  const Resumed without_health = resume(config, salvage.sinks, &flows);
  // The re-run differs first inside the first alert line.
  EXPECT_FALSE(without_health.outcome.ok);
  EXPECT_GE(without_health.outcome.verified_bytes,
            full.ndjson.rfind('\n', alert) + 1);
  EXPECT_LT(without_health.outcome.verified_bytes,
            full.ndjson.find('\n', alert));
}

}  // namespace
}  // namespace pandarus
